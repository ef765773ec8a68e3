"""Permutation-invariant value network: rho(sum_phi) with auxiliary inputs.

Both the per-element network ``phi`` and the head ``rho`` are plain MLPs
(ReLU hidden layers, identity output) implemented in numpy with hand-written
reverse-mode gradients. A set arrives as one (k, d) array whose rows are
in lexicographic order (``canonical_set``); summing in that fixed order makes
permutation invariance bit-exact despite floating-point non-associativity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Input shapes disagree with the network architecture."""


CHECKPOINT_VERSION = 1
_SMALL_PRODUCT = 100**3  # most multiply-adds OpenBLAS takes on its small-matrix kernel (README)


class Mlp:
    """Fully connected network: ReLU on hidden layers, identity on the output.
    ``weights`` and ``biases`` are views into one vector ``flat``: w0, b0, w1, ..."""

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.n_layers = len(self.sizes) - 1
        values = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            values.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            values.append(rng.uniform(-bound, bound, size=fan_out))
        ends = np.cumsum([v.size for v in values]).tolist()
        self._blocks = [(slice(e - v.size, e), v.shape) for v, e in zip(values, ends)]
        self.size = ends[-1]
        self.bind(np.concatenate([v.ravel() for v in values]))

    def views(self, flat: np.ndarray) -> list:
        """Views w0, b0, w1, b1, ... into a vector laid out like ``flat``."""
        return [flat[block].reshape(shape) for block, shape in self._blocks]

    def bind(self, flat: np.ndarray) -> None:
        """Hold the parameters in ``flat`` from now on."""
        self.flat = flat
        views = self.views(flat)
        self.weights, self.biases = views[0::2], views[1::2]

    def forward(self, x: np.ndarray):
        """Batched forward pass; returns (output, cache: each layer's input)."""
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise DimensionMismatch(
                f"expected input of shape (B, {self.sizes[0]}), got {x.shape}"
            )
        activations = [x]
        for i, w in enumerate(self.weights):
            step = max(4, _SMALL_PRODUCT // w.size // 4 * 4)  # rows per BLAS call
            h = activations[-1] @ w if len(x) <= step else np.concatenate(
                [activations[-1][at : at + step] @ w for at in range(0, len(x), step)])
            h += self.biases[i]
            if i < self.n_layers - 1:
                np.maximum(h, 0.0, out=h)
                activations.append(h)
        return h, activations

    def backward(self, activations, d_out: np.ndarray, grad: np.ndarray):
        """Write the gradients of sum(loss), given d(loss)/d(output), into
        ``grad`` (laid out like ``flat``); returns d(loss)/d(x @ w0 + b0)."""
        grads = self.views(grad)
        delta = d_out
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                delta = (delta @ self.weights[i + 1].T) * (activations[i + 1] > 0.0)
            np.matmul(activations[i].T, delta, out=grads[2 * i])
            delta.sum(axis=0, out=grads[2 * i + 1])
        return delta


def canonical_set(elements, element_dim: int) -> np.ndarray:
    """Set elements as one float (k, element_dim) array, rows in lexicographic
    order (first coordinate primary); (0, element_dim) for the empty set."""
    rows = np.asarray(elements, dtype=float)
    if rows.size == 0:
        return np.empty((0, element_dim))
    if rows.ndim != 2 or rows.shape[1] != element_dim:
        raise DimensionMismatch(f"set elements must have shape ({element_dim},)")
    return rows[np.lexsort(rows.T[::-1])]


@dataclass
class SetBatch:
    """The states ``forward_batch`` takes: canonical (k, element_dim) sets (a
    list or an object array), the states' aux vectors as one (B, aux_dim) array
    and each state's set as an index into ``sets`` (None: one set per state, in
    order). ``forward_batch`` reads each set's k off the set, pools each listed
    set once and gathers its states' rows. Iterates as (elements, aux)."""

    sets: list | np.ndarray
    aux: np.ndarray
    index: np.ndarray | None = None

    def __iter__(self):
        sets = self.sets if self.index is None else [self.sets[i] for i in self.index]
        return zip(sets, self.aux)


class DeepSetsNet:
    """q(set, aux) = rho(concat(sum_y phi(y), aux)); output one value per action.
    All parameters live in one vector ``flat``: phi's block, then rho's."""

    def __init__(
        self,
        element_dim: int,
        aux_dim: int,
        output_dim: int,
        seed: int = 0,
        phi_hidden=(32, 32),
        latent_dim: int = 16,
        rho_hidden=(32, 32),
    ):
        self.element_dim = element_dim
        self.aux_dim = aux_dim
        self.output_dim = output_dim
        self.latent_dim = latent_dim
        rng = np.random.default_rng(seed)
        self.phi = Mlp((element_dim, *phi_hidden, latent_dim), rng)
        self.rho = Mlp((latent_dim + aux_dim, *rho_hidden, output_dim), rng)
        self.flat = np.concatenate([self.phi.flat, self.rho.flat])
        self.phi.bind(self.flat[: self.phi.size])
        self.rho.bind(self.flat[self.phi.size:])
        self._slots = np.empty(0)  # forward_batch's pooling block, reused (README)

    # parameter bookkeeping ------------------------------------------------

    def named(self, flat: np.ndarray) -> dict:
        """Name -> view into a vector laid out like ``flat``."""
        named, n_phi = {}, self.phi.size
        for name, mlp, block in (("phi", self.phi, flat[:n_phi]),
                                 ("rho", self.rho, flat[n_phi:])):
            views = mlp.views(block)
            for i in range(mlp.n_layers):
                named[f"{name}.w{i}"], named[f"{name}.b{i}"] = views[2 * i : 2 * i + 2]
        return named

    def parameters(self) -> dict:
        return self.named(self.flat)

    def load_parameters(self, params: dict) -> None:
        own = self.parameters()
        if set(own) != set(params):
            raise DimensionMismatch("parameter names do not match")
        for name, value in params.items():
            if own[name].shape != value.shape:
                raise DimensionMismatch(f"shape mismatch for {name}")
            own[name][...] = value

    # forward and backward passes -------------------------------------------

    def forward(self, elements, aux: np.ndarray) -> np.ndarray:
        """Q-values of one state, a batch of one; the elements may come in
        any order."""
        aux = np.asarray(aux, dtype=float)
        if aux.shape != (self.aux_dim,):
            raise DimensionMismatch(f"aux must have shape ({self.aux_dim},)")
        batch = SetBatch([canonical_set(elements, self.element_dim)], aux[None, :])
        q, _ = self.forward_batch(batch)
        return q[0]

    def forward_batch(self, batch: SetBatch):
        """Forward over a batch; returns (Q, cache). A row of Q has the same bits in any batch.

        Every batch pools each listed set once and gathers each state's row. Each
        set must be a canonical (k, element_dim) array (``canonical_set``): summing
        every set's rows in one fixed order makes pooling bit-exactly permutation invariant.
        """
        counts = np.fromiter(map(len, batch.sets), np.int64, len(batch.sets))
        size, k_max = len(batch.aux), counts.max()
        rows = size + (-size) % 4  # each product gets a multiple of 4 rows (README)
        rho_in = np.zeros((rows, self.latent_dim + self.aux_dim))
        rho_in[:size, self.latent_dim:] = batch.aux
        phi_cache = None
        if k_max:
            n = counts.sum()
            phi_out, phi_cache = self.phi.forward(
                np.concatenate([*batch.sets, np.zeros(((-n) % 4, self.element_dim))]))
            # Row j of set b goes to slot j + 1, column b, of a zero (1 + max k, m,
            # latent) block summed over its slots in order, so each pooled vector is
            # 0 + row 1 + row 2 + ..., a sequential add from zero. m is the listed
            # sets rounded up to a multiple of 4: numpy sums a lone column pairwise.
            m = len(counts) + (-len(counts)) % 4
            if self._slots.size < (cells := (1 + k_max) * m * self.latent_dim):
                self._slots = np.empty(cells)
            padded = self._slots[:cells].reshape(1 + k_max, m, self.latent_dim)
            padded[...] = 0.0
            filled = np.arange(k_max) < counts[:, None]
            padded[1:, : len(counts)].transpose(1, 0, 2)[filled] = phi_out[:n]
            index = slice(size) if batch.index is None else batch.index
            rho_in[:size, : self.latent_dim] = padded.sum(axis=0)[index]
        q, rho_cache = self.rho.forward(rho_in)
        return q[:size], (counts, phi_cache, rho_cache)

    def backward_batch(self, cache, d_q: np.ndarray) -> np.ndarray:
        """Gradient of sum(d_q * Q) as one vector laid out like ``flat``; an
        n-row ``d_q`` takes the first n states' slice of the cache alone. The cache
        holds phi's rows per listed set, so the first n states must hold the first n sets."""
        counts, phi_cache, rho_cache = cache
        n, n_phi = len(d_q), self.phi.size
        grad = np.empty_like(self.flat)
        d_rho_out = self.rho.backward([a[:n] for a in rho_cache], d_q, grad[n_phi:])
        if phi_cache is None:
            grad[:n_phi] = 0.0
        else:
            d_rho_in = d_rho_out @ self.rho.weights[0].T
            d_phi_out = np.repeat(d_rho_in[:, : self.latent_dim], counts[:n], axis=0)
            phi_cache = [a[: len(d_phi_out)] for a in phi_cache]
            self.phi.backward(phi_cache, d_phi_out, grad[:n_phi])
        return grad


@dataclass
class Adam:
    """First/second-moment adaptive update with bias correction, of one flat
    parameter vector of ``size`` entries."""

    size: int
    learning_rate: float = 1e-3
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # fixed: no caller tunes them

    def __post_init__(self):
        self.t = 0
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        m, v = self.m, self.v  # in place: b1 m + (1 - b1) g, b2 v + (1 - b2) g g
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**self.t)
        v_hat = v / (1 - self.beta2**self.t)
        params -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def save_checkpoint(path, net: DeepSetsNet, meta: dict | None = None) -> None:
    """Write parameters plus architecture to an npz file; round-trips bit-exactly."""
    arrays = {f"param/{k}": v for k, v in net.parameters().items()}
    header = {
        "version": CHECKPOINT_VERSION,
        "element_dim": net.element_dim,
        "aux_dim": net.aux_dim,
        "output_dim": net.output_dim,
        "latent_dim": net.latent_dim,
        "phi_hidden": list(net.phi.sizes[1:-1]),
        "rho_hidden": list(net.rho.sizes[1:-1]),
        "meta": meta or {},
    }
    np.savez(path, header=json.dumps(header, sort_keys=True), **arrays)


def _check_header(header) -> None:
    """Raise ValueError unless ``header`` can build a net: an object of this
    version whose dims and hidden sizes are ints >= 1, with meta an object."""
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not an object")
    version = header["version"]
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    hidden = [header["phi_hidden"], header["rho_hidden"]]
    if not all(isinstance(sizes, list) for sizes in hidden):
        raise ValueError(f"checkpoint hidden sizes {hidden} are not lists")
    dims = [header[k] for k in ("element_dim", "aux_dim", "output_dim", "latent_dim")]
    for size in dims + hidden[0] + hidden[1]:
        if type(size) is not int or size < 1:  # not isinstance: that admits bool
            raise ValueError(f"checkpoint size {size!r} is not an int >= 1")
    if not isinstance(header["meta"], dict):
        raise ValueError("checkpoint meta is not an object")


def load_checkpoint(path):
    """Rebuild a DeepSetsNet from a checkpoint; returns (net, meta)."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        _check_header(header)
        net = DeepSetsNet(
            header["element_dim"], header["aux_dim"], header["output_dim"],
            phi_hidden=tuple(header["phi_hidden"]),
            latent_dim=header["latent_dim"],
            rho_hidden=tuple(header["rho_hidden"]),
        )
        net.load_parameters(
            {k[len("param/"):]: data[k] for k in data.files if k.startswith("param/")}
        )
    return net, header["meta"]
