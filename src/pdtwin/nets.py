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


class Mlp:
    """Fully connected network: ReLU on hidden layers, identity on the output."""

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray):
        """Batched forward pass; returns (output, cache for backward)."""
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise DimensionMismatch(
                f"expected input of shape (B, {self.sizes[0]}), got {x.shape}"
            )
        activations = [x]
        h = x
        for i in range(self.n_layers):
            z = h @ self.weights[i] + self.biases[i]
            if i < self.n_layers - 1:
                h = np.maximum(z, 0.0)
            else:
                h = z
            activations.append(h)
        return h, activations

    def backward(self, activations, d_out: np.ndarray):
        """Gradients of sum(loss) given d(loss)/d(output); also returns d_input."""
        grads_w = [None] * self.n_layers
        grads_b = [None] * self.n_layers
        delta = d_out
        for i in reversed(range(self.n_layers)):
            if i < self.n_layers - 1:
                delta = delta * (activations[i + 1] > 0.0)
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            delta = delta @ self.weights[i].T
        return grads_w, grads_b, delta


def canonical_set(elements, element_dim: int) -> np.ndarray:
    """Set elements as one float (k, element_dim) array, rows in lexicographic
    order (first coordinate primary); (0, element_dim) for the empty set."""
    rows = np.asarray(elements, dtype=float)
    if rows.size == 0:
        return np.empty((0, element_dim))
    if rows.ndim != 2 or rows.shape[1] != element_dim:
        raise DimensionMismatch(f"set elements must have shape ({element_dim},)")
    if len(rows) > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


class DeepSetsNet:
    """q(set, aux) = rho(concat(sum_y phi(y), aux)); output one value per action."""

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

    # parameter bookkeeping ------------------------------------------------

    def parameters(self) -> dict:
        params = {}
        for name, mlp in (("phi", self.phi), ("rho", self.rho)):
            for i in range(mlp.n_layers):
                params[f"{name}.w{i}"] = mlp.weights[i]
                params[f"{name}.b{i}"] = mlp.biases[i]
        return params

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters().values())

    def copy(self) -> "DeepSetsNet":
        clone = DeepSetsNet(
            self.element_dim, self.aux_dim, self.output_dim,
            phi_hidden=self.phi.sizes[1:-1], latent_dim=self.latent_dim,
            rho_hidden=self.rho.sizes[1:-1],
        )
        clone.load_parameters(self.parameters())
        return clone

    def load_parameters(self, params: dict) -> None:
        own = self.parameters()
        if set(own) != set(params):
            raise DimensionMismatch("parameter names do not match")
        for name, value in params.items():
            if own[name].shape != value.shape:
                raise DimensionMismatch(f"shape mismatch for {name}")
            own[name][...] = value

    # single-state interface: batches of one --------------------------------

    def _single(self, elements, aux) -> list:
        aux = np.asarray(aux, dtype=float)
        if aux.shape != (self.aux_dim,):
            raise DimensionMismatch(f"aux must have shape ({self.aux_dim},)")
        return [(canonical_set(elements, self.element_dim), aux)]

    def forward(self, elements, aux: np.ndarray) -> np.ndarray:
        """Q-values of one state; the elements may come in any order."""
        q, _ = self.forward_batch(self._single(elements, aux))
        return q[0]

    def backward(self, elements, aux, upstream: np.ndarray) -> dict:
        """Exact gradients of upstream . q with respect to every parameter."""
        upstream = np.asarray(upstream, dtype=float)
        if upstream.shape != (self.output_dim,):
            raise DimensionMismatch(f"upstream must have shape ({self.output_dim},)")
        _, cache = self.forward_batch(self._single(elements, aux))
        return self.backward_batch(cache, upstream[None, :])

    # batched interface (training hot path) --------------------------------

    def forward_batch(self, encodings):
        """Forward over (elements, aux) pairs; returns (Q, cache).

        Each ``elements`` must already be a canonical (k, element_dim) array
        (see ``canonical_set``): summing the rows of every set in one fixed
        order is what makes the pooled sum bit-exactly permutation invariant.
        """
        batch = len(encodings)
        aux = np.stack([a for _, a in encodings])
        sets = [e for e, _ in encodings]
        seg = np.repeat(np.arange(batch), [len(e) for e in sets])
        pooled = np.zeros((batch, self.latent_dim))
        phi_cache = None
        if len(seg):
            phi_out, phi_cache = self.phi.forward(np.concatenate(sets))
            np.add.at(pooled, seg, phi_out)
        rho_in = np.concatenate([pooled, aux], axis=1)
        q, rho_cache = self.rho.forward(rho_in)
        return q, (seg, phi_cache, rho_cache, batch)

    def backward_batch(self, cache, d_q: np.ndarray) -> dict:
        seg, phi_cache, rho_cache, batch = cache
        rho_gw, rho_gb, d_rho_in = self.rho.backward(rho_cache, d_q)
        grads = {}
        for i in range(self.rho.n_layers):
            grads[f"rho.w{i}"] = rho_gw[i]
            grads[f"rho.b{i}"] = rho_gb[i]
        if phi_cache is not None:
            d_phi_out = d_rho_in[seg, : self.latent_dim]
            phi_gw, phi_gb, _ = self.phi.backward(phi_cache, d_phi_out)
        else:
            phi_gw = [np.zeros_like(w) for w in self.phi.weights]
            phi_gb = [np.zeros_like(b) for b in self.phi.biases]
        for i in range(self.phi.n_layers):
            grads[f"phi.w{i}"] = phi_gw[i]
            grads[f"phi.b{i}"] = phi_gb[i]
        return grads


@dataclass
class Adam:
    """First/second-moment adaptive update with bias correction."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


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


def load_checkpoint(path):
    """Rebuild a DeepSetsNet from a checkpoint; returns (net, meta)."""
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        if header["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
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
