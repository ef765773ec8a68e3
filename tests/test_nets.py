import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdtwin.nets
from pdtwin.nets import (
    Adam, CHECKPOINT_VERSION, DeepSetsNet, DimensionMismatch, Mlp, SetBatch,
    canonical_set, load_checkpoint, save_checkpoint,
)


def small_net(seed=0):
    """~150 parameters: small enough for fast finite-difference checks."""
    return DeepSetsNet(
        element_dim=2, aux_dim=1, output_dim=2,
        seed=seed, phi_hidden=(4,), latent_dim=3, rho_hidden=(5,),
    )


def random_set(rng, n, dim=2):
    return [rng.standard_normal(dim) for _ in range(n)]


def random_batch(rng, count, sets_first=False):
    """Canonical sets and aux rows in the form forward_batch takes, drawn a
    state at a time or, with ``sets_first``, every set before every aux."""
    def draw_set():
        return canonical_set(random_set(rng, int(rng.integers(0, 6))), 2)

    if sets_first:
        sets = [draw_set() for _ in range(count)]
        return SetBatch(sets, rng.standard_normal((count, 1)))
    pairs = [(draw_set(), rng.standard_normal(1)) for _ in range(count)]
    return SetBatch([e for e, _ in pairs], np.array([a for _, a in pairs]))


def gradients(net, elements, aux, upstream):
    """Gradients of upstream . q for one state, read as training reads them:
    backward_batch over a batch of one."""
    batch = SetBatch([canonical_set(elements, net.element_dim)], aux[None])
    _, cache = net.forward_batch(batch)
    return net.named(net.backward_batch(cache, upstream[None]))


class TestMlp:
    def test_shapes(self):
        mlp = Mlp((3, 5, 2), np.random.default_rng(0))
        out, _ = mlp.forward(np.zeros((4, 3)))
        assert out.shape == (4, 2)

    def test_rejects_bad_input(self):
        mlp = Mlp((3, 5, 2), np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            mlp.forward(np.zeros((4, 7)))

    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            Mlp((3,), np.random.default_rng(0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        mlp = Mlp((2, 4, 3), rng)
        x = rng.standard_normal((5, 2))
        out, cache = mlp.forward(x)
        d_out = rng.standard_normal(out.shape)
        grad = np.empty(mlp.size)
        d_x = mlp.backward(cache, d_out, grad) @ mlp.weights[0].T
        grads_w, grads_b = mlp.views(grad)[0::2], mlp.views(grad)[1::2]

        def loss():
            return float((mlp.forward(x)[0] * d_out).sum())

        eps = 1e-6
        for arrays, grads in ((mlp.weights, grads_w), (mlp.biases, grads_b)):
            for arr, grad in zip(arrays, grads):
                flat = arr.reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    up = loss()
                    flat[k] = orig - eps
                    down = loss()
                    flat[k] = orig
                    fd = (up - down) / (2 * eps)
                    assert grad.reshape(-1)[k] == pytest.approx(fd, abs=1e-5)
        # input gradient too
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                orig = x[i, j]
                x[i, j] = orig + eps
                up = loss()
                x[i, j] = orig - eps
                down = loss()
                x[i, j] = orig
                assert d_x[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-5)


class TestCanonicalOrder:
    def test_sorts_by_first_coordinate(self):
        elements = [np.array([2.0, 0.0]), np.array([1.0, 5.0])]
        ordered = canonical_set(elements, 2)
        assert np.array_equal(ordered, [[1.0, 5.0], [2.0, 0.0]])

    def test_ties_broken_by_later_coordinates(self):
        elements = [np.array([1.0, 7.0]), np.array([1.0, 3.0])]
        ordered = canonical_set(elements, 2)
        assert np.array_equal(ordered, [[1.0, 3.0], [1.0, 7.0]])

    def test_empty_and_singleton(self):
        for empty in ([], (), np.empty((0, 3))):
            out = canonical_set(empty, 3)
            assert out.shape == (0, 3) and out.dtype == float
        one = canonical_set([(1, 2)], 2)
        assert one.dtype == float and np.array_equal(one, [[1.0, 2.0]])

    def test_rejects_wrong_element_dimension(self):
        with pytest.raises(DimensionMismatch):
            canonical_set([np.zeros(3), np.zeros(3)], 2)
        with pytest.raises(DimensionMismatch):
            canonical_set(np.zeros(4), 2)


class TestPermutationInvariance:
    def test_bit_exact_over_random_sets(self):
        net = small_net()
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 8))
            elements = random_set(rng, n)
            aux = rng.standard_normal(1)
            baseline = net.forward(elements, aux)
            perm = [elements[i] for i in rng.permutation(n)]
            permuted = net.forward(perm, aux)
            assert np.array_equal(baseline, permuted)  # bit-exact, not approx

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_bit_exact_property(self, seed, n):
        net = small_net()
        rng = np.random.default_rng(seed)
        elements = random_set(rng, n)
        aux = rng.standard_normal(1)
        perm = [elements[i] for i in rng.permutation(n)]
        assert np.array_equal(net.forward(elements, aux), net.forward(perm, aux))


class TestDeepSetsGradients:
    def test_finite_difference_check(self):
        net = small_net(seed=3)
        assert sum(p.size for p in net.parameters().values()) <= 200
        rng = np.random.default_rng(5)
        elements = random_set(rng, 4)
        aux = rng.standard_normal(1)
        upstream = rng.standard_normal(2)
        grads = gradients(net, elements, aux, upstream)
        params = net.parameters()
        eps = 1e-6
        worst = 0.0
        for name, arr in params.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                up = float(net.forward(elements, aux) @ upstream)
                flat[k] = orig - eps
                down = float(net.forward(elements, aux) @ upstream)
                flat[k] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(gflat[k]), 1e-8)
                worst = max(worst, abs(fd - gflat[k]) / denom)
        assert worst < 1e-4

    def test_empty_set_gradients_are_zero_for_phi(self):
        net = small_net()
        grads = gradients(net, [], np.array([0.3]), np.array([1.0, 0.0]))
        assert all(
            not grads[k].any() for k in grads if k.startswith("phi.")
        )
        assert any(grads[k].any() for k in grads if k.startswith("rho."))


class TestBatchedInterface:
    def test_forward_batch_matches_single(self):
        net = small_net(seed=11)
        for sets_first in (False, True):
            rng = np.random.default_rng(13)
            batch = random_batch(rng, 9, sets_first)
            q, _ = net.forward_batch(batch)
            for i, (elements, aux) in enumerate(zip(batch.sets, batch.aux)):
                shuffled = elements[rng.permutation(len(elements))]
                assert np.array_equal(q[i], net.forward(shuffled, aux))

    def test_backward_batch_sums_per_sample_gradients(self):
        net = small_net(seed=11)
        rng = np.random.default_rng(17)
        batch = random_batch(rng, 5)
        d_q = rng.standard_normal((5, 2))
        _, cache = net.forward_batch(batch)
        batched = net.named(net.backward_batch(cache, d_q))
        for name in batched:
            total = sum(
                gradients(net, e, a, d_q[i])[name]
                for i, (e, a) in enumerate(zip(batch.sets, batch.aux))
            )
            assert np.allclose(batched[name], total, atol=1e-10)

    def test_all_empty_batch(self):
        net = small_net()
        empty = canonical_set([], 2)
        q, cache = net.forward_batch(SetBatch([empty, empty], np.array([[0.1], [0.2]])))
        assert q.shape == (2, 2)
        grads = net.named(net.backward_batch(cache, np.ones((2, 2))))
        assert not grads["phi.w0"].any()

    def test_all_empty_batch_never_runs_phi(self, monkeypatch):
        # the same bits as the general path, but the compressed encoding's
        # all-empty batches train 20-30% faster for skipping phi
        net = small_net()

        def no_phi(x):
            raise AssertionError("phi ran on a batch with no elements")

        monkeypatch.setattr(net.phi, "forward", no_phi)
        empty = canonical_set([], 2)
        _, cache = net.forward_batch(SetBatch([empty] * 3, np.array([[0.1], [0.2], [0.3]])))
        grads = net.named(net.backward_batch(cache, np.ones((3, 2))))
        assert all(not g.any() for name, g in grads.items() if name.startswith("phi."))


class TestPooling:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=8),
           st.sampled_from((1, 2, 3, 16)), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_sequential_add_at(self, counts, latent, seed):
        # ragged sets, empty sets, all-empty batches, 1-row batches and a
        # width of 1; rows span many magnitudes so any reordering shows
        net = DeepSetsNet(2, 1, 2, seed=0, phi_hidden=(4,), latent_dim=latent,
                          rho_hidden=(3,))
        rng = np.random.default_rng(seed)
        sets = [canonical_set(rng.standard_normal((k, 2)), 2) for k in counts]
        batch = SetBatch(sets, np.zeros((len(sets), 1)))
        _, (_, _, rho_cache) = net.forward_batch(batch)
        pooled = rho_cache[0][: len(sets), :latent]
        assert not rho_cache[0][len(sets):].any()  # rho's padding rows

        expected = np.zeros((len(sets), latent))
        if n := sum(counts):  # phi's rows, padded as forward_batch pads them
            rows, _ = net.phi.forward(np.concatenate([*sets, np.zeros(((-n) % 4, 2))]))
            np.add.at(expected, np.repeat(np.arange(len(sets)), counts), rows[:n])
        assert np.array_equal(pooled, expected)

    def test_kept_block_pools_like_a_fresh_one(self):
        # a net keeps one pooling block between calls for indexed and unindexed
        # batches alike; after a larger batch has filled it, a smaller one of
        # either kind must pool as a net that never pooled
        rng = np.random.default_rng(5)
        net = small_net(seed=4)
        for count, indexed in ((12, False), (2, True), (7, False), (1, True),
                               (12, True), (3, False), (1, False), (9, True)):
            batch = random_batch(rng, count)
            if indexed:  # each listed set's own state, then five states sharing them
                index = np.concatenate([np.arange(count), rng.integers(0, count, 5)])
                batch = SetBatch(batch.sets, rng.standard_normal((len(index), 1)), index=index)
            q, _ = net.forward_batch(batch)
            assert q.tobytes() == small_net(seed=4).forward_batch(batch)[0].tobytes()


class TestBatchInvariance:
    """A state's Q row has the same bits in any batch (README)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(1, 33), min_size=6, max_size=6),
           st.integers(1, 300), st.sampled_from((1, 5, 41)), st.integers(0, 2**32 - 1))
    def test_row_bits_do_not_depend_on_the_batch(self, element_dim, widths, size,
                                                 k_end, seed):
        # set sizes up to 40, the reliability game's, give phi passes past
        # 10**6 multiply-adds per layer
        phi_a, phi_b, latent, rho_a, rho_b, outputs = widths
        net = DeepSetsNet(element_dim, 2, outputs, phi_hidden=(phi_a, phi_b),
                          latent_dim=latent, rho_hidden=(rho_a, rho_b))
        rng = np.random.default_rng(seed)
        sets = [canonical_set(rng.standard_normal((rng.integers(0, k_end), element_dim)),
                              element_dim) for _ in range(size)]
        aux = rng.standard_normal((size, 2))
        q, _ = net.forward_batch(SetBatch(sets, aux))
        for i in range(size):
            alone, _ = net.forward_batch(SetBatch(sets[i : i + 1], aux[i : i + 1]))
            assert alone.tobytes() == q[i].tobytes()
        lo = rng.integers(0, size)
        hi = rng.integers(lo + 1, size + 1)
        part, _ = net.forward_batch(SetBatch(sets[lo:hi], aux[lo:hi]))
        assert part.tobytes() == q[lo:hi].tobytes()

    def test_holds_at_two_blas_threads(self):
        # tests/conftest.py pins BLAS to one thread; run the property once
        # more in one process with two
        test = f"{__file__}::TestBatchInvariance::test_row_bits_do_not_depend_on_the_batch"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "2",
                 "PYTHONPATH": str(Path(pdtwin.nets.__file__).resolve().parents[1])},
            cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestSetIndex:
    """A batch that lists each set once and gives each state's set by index
    has the bits of the batch with one set per state (README)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 41), min_size=1, max_size=6), st.integers(0, 70),
           st.sampled_from((1, 2, 16)), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_expanded_batch(self, counts, shared, latent, seed):
        # empty sets, sets of up to 41 rows, and the last set shared by
        # ``shared`` more states; the first states hold the sets in order, as
        # backward_batch needs. One listed set at latent 1 once pooled as one
        # contiguous column, which numpy sums pairwise
        net = DeepSetsNet(3, 2, 4, seed=1, latent_dim=latent)
        rng = np.random.default_rng(seed)
        sets = np.empty(len(counts), dtype=object)
        sets[:] = [canonical_set(rng.standard_normal((k, 3)), 3) for k in counts]
        index = np.concatenate([np.arange(len(sets)),
                                rng.integers(0, len(sets), rng.integers(0, 9)),
                                np.full(shared, len(sets) - 1)])
        aux = rng.standard_normal((len(index), 2))
        indexed = SetBatch(sets, aux, index=index)
        expanded = SetBatch(list(sets[index]), aux)
        assert [e is f for (e, _), (f, _) in zip(indexed, expanded)] == [True] * len(index)
        q, cache = net.forward_batch(indexed)
        q_expanded, cache_expanded = net.forward_batch(expanded)
        assert q.tobytes() == q_expanded.tobytes()
        d_q = rng.standard_normal((len(sets), 4))
        assert (net.backward_batch(cache, d_q).tobytes()
                == net.backward_batch(cache_expanded, d_q).tobytes())


class TestParameterHandling:
    def test_one_seed_builds_equal_independent_nets(self):
        # how training builds its target network beside the online one
        net, clone = small_net(seed=3), small_net(seed=3)
        assert net.flat.tobytes() == clone.flat.tobytes()
        assert not np.shares_memory(net.flat, clone.flat)
        assert np.array_equal(
            net.forward([], np.zeros(1)), clone.forward([], np.zeros(1))
        )
        clone.parameters()["rho.b1"][...] += 1.0
        assert not np.array_equal(
            net.forward([], np.zeros(1)), clone.forward([], np.zeros(1))
        )

    def test_load_rejects_wrong_names(self):
        net = small_net()
        with pytest.raises(DimensionMismatch):
            net.load_parameters({"bogus": np.zeros(1)})

    def test_different_seeds_differ(self):
        a, b = small_net(seed=0), small_net(seed=1)
        assert not np.array_equal(
            a.forward([], np.zeros(1)), b.forward([], np.zeros(1))
        )

    def test_parameters_are_views_of_the_flat_vector(self):
        def check(net):
            for mlp in (net.phi, net.rho):
                for arr in (*mlp.weights, *mlp.biases):
                    assert np.shares_memory(arr, net.flat)
            params = net.parameters()
            assert sum(p.size for p in params.values()) == net.flat.size
            for arr in params.values():
                assert np.shares_memory(arr, net.flat)

        net = small_net()
        check(net)
        clone = small_net()
        check(clone)
        assert not np.shares_memory(clone.flat, net.flat)
        clone.load_parameters({k: v + 1.0 for k, v in net.parameters().items()})
        check(clone)
        assert np.array_equal(clone.flat, net.flat + 1.0)
        net.flat[...] = clone.flat  # how training syncs its target network
        check(net)
        assert np.array_equal(net.forward([(0.5, 1.0)], np.zeros(1)),
                              clone.forward([(0.5, 1.0)], np.zeros(1)))


class TestAdam:
    def test_single_step_magnitude(self):
        # with one gradient step, bias correction makes the update ~lr*sign(g)
        params = np.array([1.0, -1.0])
        opt = Adam(2, learning_rate=0.1)
        opt.step(params, np.array([0.5, -2.0]))
        assert params == pytest.approx([0.9, -0.9], abs=1e-6)

    def test_descends_a_quadratic(self):
        params = np.array([5.0])
        opt = Adam(1, learning_rate=0.1)
        for _ in range(500):
            opt.step(params, 2.0 * params)
        assert abs(params[0]) < 1e-2

    def test_flat_step_is_bit_identical_to_per_name_updates(self):
        net = small_net(seed=2)
        reference = {k: v.copy() for k, v in net.parameters().items()}
        m = {k: np.zeros_like(v) for k, v in reference.items()}
        v2 = {k: np.zeros_like(v) for k, v in reference.items()}
        opt = Adam(net.flat.size, learning_rate=0.01)
        b1, b2, lr, eps = opt.beta1, opt.beta2, opt.learning_rate, opt.eps
        rng = np.random.default_rng(4)
        for t in range(1, 21):
            grad = rng.standard_normal(net.flat.size) * 10.0 ** rng.integers(-6, 3)
            opt.step(net.flat, grad)
            for name, g in net.named(grad).items():
                m[name] = b1 * m[name] + (1 - b1) * g
                v2[name] = b2 * v2[name] + (1 - b2) * g * g
                m_hat = m[name] / (1 - b1**t)
                v_hat = v2[name] / (1 - b2**t)
                reference[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for name, arr in net.parameters().items():
            assert np.array_equal(arr, reference[name])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = DeepSetsNet(3, 2, 4, seed=9, phi_hidden=(8, 8), latent_dim=6,
                          rho_hidden=(8,))
        path = tmp_path / "net.npz"
        save_checkpoint(path, net, meta={"env": "component"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"env": "component"}
        for name, arr in net.parameters().items():
            assert np.array_equal(arr, loaded.parameters()[name])
        rng = np.random.default_rng(0)
        elements = [rng.standard_normal(3) for _ in range(4)]
        aux = rng.standard_normal(2)
        assert np.array_equal(net.forward(elements, aux),
                              loaded.forward(elements, aux))

    def test_version_check(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        import json

        with np.load(path) as data:
            header = json.loads(str(data["header"]))
            arrays = {k: data[k] for k in data.files if k != "header"}
        header["version"] = CHECKPOINT_VERSION + 1
        np.savez(path, header=json.dumps(header), **arrays)
        with pytest.raises(ValueError):
            load_checkpoint(path)
