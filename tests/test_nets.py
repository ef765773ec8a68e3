import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdtwin.nets import (
    Adam, CHECKPOINT_VERSION, DeepSetsNet, DimensionMismatch, Mlp,
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


def random_encodings(rng, count):
    """(canonical set, aux) pairs in the form envs hand to forward_batch."""
    return [
        (canonical_set(random_set(rng, int(rng.integers(0, 6))), 2),
         rng.standard_normal(1))
        for _ in range(count)
    ]


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
        grads_w, grads_b, d_x = mlp.backward(cache, d_out)

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
        grads = net.backward(elements, aux, upstream)
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
        grads = net.backward([], np.array([0.3]), np.array([1.0, 0.0]))
        assert all(
            not grads[k].any() for k in grads if k.startswith("phi.")
        )
        assert any(grads[k].any() for k in grads if k.startswith("rho."))

    def test_rejects_wrong_upstream_shape(self):
        net = small_net()
        with pytest.raises(DimensionMismatch):
            net.backward([], np.array([0.3]), np.zeros(3))


class TestBatchedInterface:
    def test_forward_batch_matches_single(self):
        net = small_net(seed=11)
        rng = np.random.default_rng(13)
        encodings = random_encodings(rng, 9)
        q, _ = net.forward_batch(encodings)
        for i, (elements, aux) in enumerate(encodings):
            shuffled = elements[rng.permutation(len(elements))]
            assert np.array_equal(q[i], net.forward(shuffled, aux))

    def test_backward_batch_sums_per_sample_gradients(self):
        net = small_net(seed=11)
        rng = np.random.default_rng(17)
        encodings = random_encodings(rng, 5)
        d_q = rng.standard_normal((5, 2))
        _, cache = net.forward_batch(encodings)
        batched = net.backward_batch(cache, d_q)
        for name in batched:
            total = sum(
                net.backward(e, a, d_q[i])[name]
                for i, (e, a) in enumerate(encodings)
            )
            assert np.allclose(batched[name], total, atol=1e-10)

    def test_all_empty_batch(self):
        net = small_net()
        empty = canonical_set([], 2)
        encodings = [(empty, np.array([0.1])), (empty, np.array([0.2]))]
        q, cache = net.forward_batch(encodings)
        assert q.shape == (2, 2)
        grads = net.backward_batch(cache, np.ones((2, 2)))
        assert not grads["phi.w0"].any()


class TestParameterHandling:
    def test_copy_is_independent(self):
        net = small_net()
        clone = net.copy()
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


class TestAdam:
    def test_single_step_magnitude(self):
        # with one gradient step, bias correction makes the update ~lr*sign(g)
        params = {"w": np.array([1.0, -1.0])}
        grads = {"w": np.array([0.5, -2.0])}
        opt = Adam(learning_rate=0.1)
        opt.step(params, grads)
        assert params["w"] == pytest.approx([0.9, -0.9], abs=1e-6)

    def test_descends_a_quadratic(self):
        params = {"w": np.array([5.0])}
        opt = Adam(learning_rate=0.1)
        for _ in range(500):
            opt.step(params, {"w": 2.0 * params["w"]})
        assert abs(params["w"][0]) < 1e-2


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
