"""Tensor-core tests: op semantics, gradient checks, optimizer behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from specdec import tensor as T
from specdec.errors import ContractError, DimensionError, NumericError


@pytest.fixture(autouse=True)
def fresh_tape():
    T.clear_tape()
    yield
    T.clear_tape()


def finite_diff_grad(f, params, h=1e-3):
    """Central finite differences of scalar f() w.r.t. each param, in float64."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-3):
    scale = max(1.0, float(np.abs(numeric).max()))
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=rtol * scale)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, b.data)

    def test_hand_checkable(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, [[11.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=(5, 3)).astype(np.float32)
        expected = np.zeros((4, 3), dtype=np.float64)
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += float(a[i, k]) * float(b[k, j])
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 2, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4, 5)).astype(np.float32)
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        np.testing.assert_allclose(got, np.matmul(a, b), rtol=1e-6)


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-7)

    def test_no_overflow(self):
        out = T.softmax(T.Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    def test_matches_float64_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        e = np.exp(x - x.max())
        expected = e / e.sum()
        got = T.softmax(T.Tensor(x.astype(np.float32))).data
        np.testing.assert_allclose(got, expected, rtol=1e-6)

    def test_simplex(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=5.0, size=(10, 7)).astype(np.float32)
        out = T.softmax(T.Tensor(x), axis=-1).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(T.Tensor([np.nan, 0.0]))
        with pytest.raises(NumericError):
            T.KERNELS.softmax(np.array([[0.0, 1.0], [np.nan, 0.0]], dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_is_one_float64_division(self, dtype):
        # rows with masked-off (-1e9) keys, as attention scores have them
        x = np.random.default_rng(3).normal(scale=4.0, size=(3, 5, 9)).astype(dtype)
        x[..., 6:] = -1e9
        x[0, 0, :] = -1e9
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = (e / e.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(dtype)
        got = T.KERNELS.softmax(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(T.softmax(T.Tensor(x)).data, want)

    def test_kernel_peak_memory_is_one_output(self):
        x = np.random.default_rng(4).normal(size=(1, 4, 320, 320)).astype(np.float32)
        tracemalloc.start()
        try:
            T.KERNELS.softmax(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes


class TestSilu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kernel_and_tape_match_the_formula(self, dtype):
        x = np.random.default_rng(5).normal(scale=6.0, size=(4, 33)).astype(dtype)
        want = x * (1 / (1 + np.exp(-x)))
        np.testing.assert_array_equal(T.KERNELS.silu(x), want)
        np.testing.assert_array_equal(T.silu(T.Tensor(x)).data, want)


class TestScaleBias:
    def test_matches_scale_then_add(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 5, 7)).astype(np.float32)
        bias = np.where(rng.random((5, 7)) < 0.3, -1e9, 0.0)  # float64, cast to x's dtype
        s = 1.0 / math.sqrt(32)
        want = x * s + bias.astype(np.float32)
        taped = T.scale_bias(T.Tensor(x), s, bias)
        np.testing.assert_array_equal(taped.data, want)
        assert taped.dtype == np.float32
        np.testing.assert_array_equal(T.KERNELS.scale_bias(x.copy(), s, bias), want)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        logits = T.Tensor([[30.0, 0.0, 0.0, 0.0]])
        probs = T.Tensor([[1.0, 0.0, 0.0, 0.0]])
        assert T.cross_entropy(logits, probs).item() == pytest.approx(0.0, abs=1e-4)

    def test_uniform_analytic(self):
        logits = T.Tensor(np.zeros((1, 4), dtype=np.float32))
        probs = T.Tensor(np.full((1, 4), 0.25, dtype=np.float32))
        assert T.cross_entropy(logits, probs).item() == pytest.approx(math.log(4), abs=1e-6)

    def test_masked_positions_excluded(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 5))
        probs = rng.dirichlet(np.ones(5), size=3)
        mask = np.array([1.0, 0.0, 1.0])
        # per-position oracle in float64, averaged over the 2 masked-in rows
        expected = 0.0
        for i in (0, 2):
            z = logits[i] - logits[i].max()
            logp = z - np.log(np.exp(z).sum())
            expected += -(probs[i] * logp).sum()
        expected /= 2
        got = T.cross_entropy(
            T.Tensor(logits.astype(np.float32)), T.Tensor(probs.astype(np.float32)), mask
        ).item()
        assert got == pytest.approx(expected, rel=1e-5)

    def test_all_masked_warns_and_zero(self):
        logits = T.Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        probs = T.Tensor(np.full((2, 4), 0.25, dtype=np.float32))
        with pytest.warns(UserWarning):
            loss = T.cross_entropy(logits, probs, np.zeros(2))
        assert loss.item() == 0.0

    def test_labels_variant_matches_one_hot(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 6)).astype(np.float32)
        labels = rng.integers(0, 6, size=4)
        one_hot = np.eye(6, dtype=np.float32)[labels]
        a = T.cross_entropy_labels(T.Tensor(logits), labels).item()
        b = T.cross_entropy(T.Tensor(logits), T.Tensor(one_hot)).item()
        assert a == pytest.approx(b, rel=1e-6)


class TestSmoothL1:
    def test_identity(self):
        a = T.Tensor(np.arange(6.0).reshape(2, 3))
        assert T.smooth_l1(a, a).item() == 0.0

    def test_quadratic_region(self):
        a = T.Tensor(np.full((2, 3), 0.5, dtype=np.float32))
        b = T.Tensor(np.zeros((2, 3), dtype=np.float32))
        assert T.smooth_l1(a, b).item() == pytest.approx(0.125, abs=1e-7)

    def test_linear_region(self):
        a = T.Tensor(np.full((2, 3), 2.0, dtype=np.float32))
        b = T.Tensor(np.zeros((2, 3), dtype=np.float32))
        assert T.smooth_l1(a, b).item() == pytest.approx(1.5, abs=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.smooth_l1(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))

    @pytest.mark.parametrize("shape,mask_shape", [((2, 3), (3,)), ((2, 4, 3), (2,))])
    def test_mask_must_cover_every_axis_but_the_last(self, shape, mask_shape):
        a = T.Tensor(np.zeros(shape))
        with pytest.raises(DimensionError):
            T.smooth_l1(a, a, np.ones(mask_shape, dtype=bool))


class TestBackward:
    def test_sum_grad_ones(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        T.backward(T.sum_all(x))
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_sum_grad(self):
        x = T.Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(ContractError):
            T.backward(y)

    def test_unrelated_leaf_untouched(self):
        x = T.Tensor(np.ones(2), requires_grad=True)
        z = T.Tensor(np.ones(2), requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        assert z.grad is None  # reads as zero

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w1 = T.Tensor(rng.normal(size=(4, 8)), dtype=np.float64, requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(8, 3)), dtype=np.float64, requires_grad=True)
        x = rng.normal(size=(5, 4)).astype(np.float64)
        target = rng.normal(size=(5, 3)).astype(np.float64)

        def forward():
            h = T.silu(T.matmul(T.Tensor(x, dtype=np.float64), w1))
            y = T.matmul(h, w2)
            return float(np.sum((y.data - target) ** 2))

        h = T.silu(T.matmul(T.Tensor(x, dtype=np.float64), w1))
        y = T.matmul(h, w2)
        diff = T.sub(y, T.Tensor(target, dtype=np.float64))
        loss = T.sum_all(T.mul(diff, diff))
        T.backward(loss)
        for p, fd in zip((w1, w2), finite_diff_grad(forward, (w1, w2))):
            assert_grads_close(p.grad, fd)


class TestOpGradients:
    """Every differentiable op vs central finite differences on random inputs."""

    def _check(self, build, params, seed=0):
        T.clear_tape()
        loss = build()
        T.backward(loss)
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

        def f():
            T.clear_tape()
            return build().item()

        for a, fd in zip(analytic, finite_diff_grad(f, params)):
            assert_grads_close(a, fd)

    def test_elementwise_and_shape_ops(self):
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)

        def build():
            x = T.add(T.mul(a, b), T.scale(T.sub(a, b), 0.5))
            x = T.silu(x)
            lo, hi = T.index(x, (..., slice(0, 2))), T.index(x, (..., slice(2, 4)))
            x = T.concat_last([hi, lo])
            x = T.reshape(x, (4, 3))
            x = T.transpose(x, (1, 0))
            return T.mean_all(T.mul(x, x))

        self._check(build, (a, b))

    def test_softmax_rms_matmul(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.normal(size=(2, 5)), dtype=np.float64, requires_grad=True)
        w = T.Tensor(rng.normal(size=(5, 4)), dtype=np.float64, requires_grad=True)
        g = T.Tensor(rng.normal(size=(4,)), dtype=np.float64, requires_grad=True)

        def build():
            h = T.rms_norm(T.matmul(x, w), g)
            return T.sum_all(T.mul(T.softmax(h, axis=-1), h))

        self._check(build, (x, w, g))

    def test_index_and_broadcast_matmul(self):
        # the stacked-projection pattern: (1, n, c) @ (3, c, c), then slabs
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(1, 4, 3)), dtype=np.float64, requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 3, 3)), dtype=np.float64, requires_grad=True)

        def build():
            y = T.matmul(x, w)
            head = T.mul(T.index(y, slice(0, 2)), T.index(y, 2))
            return T.add(T.sum_all(T.mul(T.index(head, 1), T.index(head, 0))),
                         T.sum_all(T.index(y, (2, slice(1, 3)))))

        self._check(build, (x, w))

    def test_matmul_backward_skips_an_operand_without_grad(self):
        rng = np.random.default_rng(12)
        a = T.Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
        b = T.Tensor(rng.normal(size=(4, 5)).astype(np.float32), requires_grad=True)
        calls = []
        real = np.matmul

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        out = T.matmul(a, b)
        np.matmul = counted
        try:
            T.backward(T.sum_all(out))
        finally:
            np.matmul = real
        assert a.grad is None and len(calls) == 1
        ones = np.ones((2, 3, 5), np.float32)
        want = T._unbroadcast(real(np.swapaxes(a.data, -1, -2), ones), (4, 5))
        np.testing.assert_array_equal(b.grad, want.astype(np.float32))

    def test_rope(self):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.normal(size=(2, 3, 2, 4)), dtype=np.float64, requires_grad=True)
        c, s = rng.normal(size=(2, 3, 1, 4)), rng.normal(size=(3, 1, 4))
        w = rng.normal(size=(2, 3, 2, 4))

        def build():
            return T.sum_all(T.mul(T.rope(x, c, s), w))

        self._check(build, (x,))

    def test_loss_gradients(self):
        rng = np.random.default_rng(9)
        logits = T.Tensor(rng.normal(size=(3, 6)), dtype=np.float64, requires_grad=True)
        probs = T.Tensor(rng.dirichlet(np.ones(6), size=3), dtype=np.float64)
        feats = T.Tensor(rng.normal(size=(3, 4)), dtype=np.float64, requires_grad=True)
        ref = T.Tensor(rng.normal(scale=2.0, size=(3, 4)), dtype=np.float64)
        mask = np.array([1.0, 1.0, 0.0])

        def build():
            return T.add(
                T.cross_entropy(logits, probs, mask),
                T.smooth_l1(feats, ref, mask),
            )

        self._check(build, (logits, feats))

    def test_embedding_grad_one_hot(self):
        table = T.Tensor(np.random.default_rng(10).normal(size=(5, 3)),
                         dtype=np.float64, requires_grad=True)

        def build():
            return T.sum_all(T.embedding(table, np.array([3])))

        T.clear_tape()
        T.backward(build())
        expected = np.zeros((5, 3))
        expected[3] = 1.0
        np.testing.assert_allclose(table.grad, expected)

        def f():
            T.clear_tape()
            return build().item()

        fd = finite_diff_grad(f, (table,))[0]
        assert_grads_close(table.grad, fd)


class TestTapeAndProperties:
    def test_split_concat_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            x = T.Tensor(rng.normal(size=(3, n)).astype(np.float32))
            cut = int(rng.integers(1, n))
            parts = [T.index(x, (..., slice(0, cut))), T.index(x, (..., slice(cut, n)))]
            back = T.concat_last(parts)
            np.testing.assert_array_equal(back.data, x.data)

    def test_clear_tape_keeps_parameter_data(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.sum_all(T.mul(x, x))
        T.backward(y)
        data_before = x.data.copy()
        T.clear_tape()
        np.testing.assert_array_equal(x.data, data_before)
        assert len(T._TAPE) == 0

    def test_no_grad_records_nothing(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            T.mul(x, x)
        assert len(T._TAPE) == 0


class TestAdamW:
    def test_zero_grad_with_decay_changes_only_by_decay(self):
        p = T.Tensor(np.full(4, 2.0, dtype=np.float32), requires_grad=True)
        opt = T.AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros_like(p.data)
        opt.step()
        np.testing.assert_allclose(p.data, 2.0 - 0.1 * 0.5 * 2.0, rtol=1e-6)

    def test_zero_grad_no_decay_unchanged(self):
        p = T.Tensor(np.full(4, 2.0, dtype=np.float32), requires_grad=True)
        opt = T.AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros_like(p.data)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_clipping_bounds_update_norm(self):
        p = T.Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        opt = T.AdamW([p], lr=1.0, clip_norm=0.5)
        p.grad = np.full(3, 100.0, dtype=np.float32)
        assert opt.grad_norm() > 0.5
        opt.step()
        # post-clip gradient has global norm 0.5; first Adam step is bounded by lr
        assert np.isfinite(p.data).all()
        assert np.abs(p.data).max() <= 1.0 + 1e-6

    def test_descends_quadratic(self):
        p = T.Tensor(np.array([5.0], dtype=np.float32), requires_grad=True)
        opt = T.AdamW([p], lr=0.05, clip_norm=None)
        for _ in range(200):
            T.clear_tape()
            loss = T.sum_all(T.mul(p, p))
            opt.zero_grad()
            T.backward(loss)
            opt.step()
        assert abs(p.data[0]) < 1.0
