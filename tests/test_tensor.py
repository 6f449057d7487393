"""Tensor construction, shape errors, autodiff and the finite-difference oracle."""

import numpy as np
import pytest

from bfpcnn.tensor import Tensor, matmul, no_tape, records

from util import check_grad, finite_diff_grad, rel_err, smooth_values


class TestConstruction:
    def test_fill(self):
        t = Tensor([2, 2], 0.0)
        assert t.shape == (2, 2)
        assert np.array_equal(t.data, np.zeros((2, 2), np.float32))

    def test_array(self):
        t = Tensor([3], [1, 2, 3])
        assert t.data.tolist() == [1.0, 2.0, 3.0]

    def test_wrong_length(self):
        with pytest.raises(ValueError, match=r"cannot reshape array of size 5 into shape \(2,3\)"):
            Tensor([2, 3], [1, 2, 3, 4, 5])

    def test_zero_dim(self):
        with pytest.raises(ValueError, match="every dimension must be >= 1"):
            Tensor([2, 0], 1.0)

    def test_row_major_layout(self):
        t = Tensor([2, 3], [0, 1, 2, 3, 4, 5])
        assert t.data[1, 0] == 3.0
        assert t.data.flags["C_CONTIGUOUS"]

    def test_data_is_copied(self):
        src = np.ones(4, np.float32)
        t = Tensor([4], src)
        src[0] = 7.0
        assert t.data[0] == 1.0

    def test_finite_after_construction(self):
        t = Tensor([4], [1e30, -1e30, 0.5, 3.0])
        assert np.all(np.isfinite(t.data))


class TestMatmul:
    def test_identity(self):
        eye = Tensor([2, 2], np.eye(2, dtype=np.float32))
        a = Tensor([2, 2], [1, 2, 3, 4])
        assert np.array_equal(matmul(a, eye).data, a.data)
        assert np.array_equal(matmul(eye, a).data, a.data)

    def test_hand_product(self):
        a = Tensor([1, 2], [1, 2])
        b = Tensor([2, 1], [3, 4])
        assert matmul(a, b).data.tolist() == [[11.0]]

    def test_inner_dim_conflict(self):
        with pytest.raises(ValueError, match="mismatch in its core dimension 0"):
            matmul(Tensor([2, 3], 1.0), Tensor([4, 2], 1.0))

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = Tensor([3, 4], rng.standard_normal(12).astype(np.float32))
            b = Tensor([4, 2], rng.standard_normal(8).astype(np.float32))
            c = Tensor([2, 5], rng.standard_normal(10).astype(np.float32))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert rel_err(left, right) <= 1e-5


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor([2, 3], [1, 2, 3, 4, 5, 6], requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3), np.float32))

    def test_sum_of_squares(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_no_tape(self):
        with pytest.raises(ValueError, match="no recorded computation"):
            Tensor([1], 3.0).backward()

    def test_not_scalar(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        with pytest.raises(ValueError, match=r"backward\(\) needs a scalar, got shape \(2,\)"):
            (x * x).backward()

    def test_fanout_accumulates(self):
        x = Tensor([3], [1, 2, 3], requires_grad=True)
        (x.sum() + x.sum()).backward()
        assert np.array_equal(x.grad, np.full(3, 2.0, np.float32))

    def test_diamond_graph_visits_once(self):
        x = Tensor([2], [1.0, 2.0], requires_grad=True)
        y = x * Tensor([2], 2.0)
        (y.sum() + (y * y).sum()).backward()
        # d/dx (2x + 4x^2) = 2 + 8x
        assert np.allclose(x.grad, [10.0, 18.0])

    def test_matmul_grads(self):
        a = Tensor([2, 3], [1, 2, 3, 4, 5, 6], requires_grad=True)
        b = Tensor([3, 2], [1, 0, 0, 1, 1, 1], requires_grad=True)
        matmul(a, b).sum().backward()
        ones = np.ones((2, 2), np.float32)
        assert np.array_equal(a.grad, ones @ b.data.T)
        assert np.array_equal(b.grad, a.data.T @ ones)

    def test_one_tensor_in_both_matmul_slots(self):
        a = Tensor([2, 2], [1, 2, 3, 4], requires_grad=True)
        matmul(a, a).sum().backward()
        g = np.ones((2, 2), np.float32)
        assert np.array_equal(a.grad, g @ a.data.T + a.data.T @ g)

    def test_grad_accumulates_across_calls(self):
        x = Tensor([2], [1, 1], requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        assert np.array_equal(x.grad, np.full(2, 2.0, np.float32))

    def test_second_sweep_of_one_graph_adds_the_same_gradient(self):
        x = Tensor([3], [1, 2, 3], requires_grad=True)
        loss = (x * Tensor([3], 3.0)).sum()
        loss.backward()
        loss.backward()
        # a stale intermediate gradient would make the second sweep add 9
        assert np.array_equal(x.grad, np.full(3, 6.0, np.float32))

    def test_intermediate_shared_by_two_graphs(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        y = x * Tensor([2], 2.0)
        y.sum().backward()
        (y * Tensor([2], 3.0)).sum().backward()
        assert np.array_equal(x.grad, np.full(2, 2.0 + 6.0, np.float32))

    def test_only_leaves_keep_a_gradient(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        y = x * Tensor([2], 2.0)
        z = y.reshape([1, 2])
        loss = (z * z).sum()
        loss.backward()
        assert y.grad is None and z.grad is None and loss.grad is None
        assert np.array_equal(x.grad, np.array([8.0, 16.0], np.float32))


class TestNoTape:
    def test_ops_record_nothing_inside(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        with no_tape():
            y = (x * x).sum()
        assert y.node is None and not y.requires_grad
        assert y.item() == 5.0
        with pytest.raises(ValueError, match="no recorded computation"):
            y.backward()
        assert x.grad is None

    def test_records_needs_a_tracked_input_and_recording_on(self):
        tracked, plain = Tensor([1], 1.0, requires_grad=True), Tensor([1], 1.0)
        assert records([plain, tracked]) and not records([plain])
        with no_tape():
            assert not records([tracked])
        assert records([tracked])

    def test_nested_blocks_restore_the_outer_setting(self):
        x = Tensor([1], 1.0, requires_grad=True)
        with no_tape():
            with no_tape():
                pass
            assert (x * x).node is None
        assert (x * x).node is not None

    def test_recording_comes_back_after_an_exception(self):
        x = Tensor([2], [1, 2], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_tape():
                raise RuntimeError("inside")
        y = (x * x).sum()
        assert y.node is not None
        y.backward()
        assert np.array_equal(x.grad, np.array([2.0, 4.0], np.float32))


class TestFiniteDiff:
    def test_linear_is_exact(self):
        # exactly representable evaluations: central differences are exact
        x = Tensor([4], 0.0)
        fd = finite_diff_grad(lambda t: t.sum(), x, 1e-3)
        assert np.allclose(fd.data, 1.0, atol=1e-6)

    def test_linear_generic_values(self):
        # float32 rounding of f bounds generic inputs at the 1e-3 invariant
        x = Tensor([4], [0.3, -0.2, 0.9, 1.5])
        fd = finite_diff_grad(lambda t: t.sum(), x, 1e-3)
        assert np.allclose(fd.data, 1.0, atol=1e-3)

    def test_sum_of_squares(self):
        x = Tensor([1], [3.0])
        fd = finite_diff_grad(lambda t: (t * t).sum(), x, 1e-3)
        assert abs(fd.data[0] - 6.0) <= 1e-5

    def test_constant_function(self):
        x = Tensor([3], [1, 2, 3])
        fd = finite_diff_grad(lambda t: Tensor([], 4.0, requires_grad=True).sum(), x, 1e-3)
        assert np.array_equal(fd.data, np.zeros(3, np.float32))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: t.sum(), Tensor([1], 1.0), 0.0)


class TestGradOracle:
    """Autodiff vs central differences on random small tensors."""

    @pytest.mark.parametrize("seed", range(12))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(100 + seed)
        dims = [int(d) for d in rng.integers(1, 6, size=2)]
        x = Tensor(dims, smooth_values(rng, dims))
        c = Tensor(dims, smooth_values(rng, dims))

        def f(t):
            return ((t * t + t * Tensor(dims, 0.5)) * Tensor(dims, c.data.copy())).sum()

        check_grad(f, x, tol=1e-3)

    @pytest.mark.parametrize("seed", range(12))
    def test_matmul_chain(self, seed):
        rng = np.random.default_rng(200 + seed)
        m, k, n = (int(d) for d in rng.integers(1, 6, size=3))
        w = smooth_values(rng, (k, n))
        x = Tensor([m, k], smooth_values(rng, (m, k)))

        def f(t):
            return matmul(t, Tensor([k, n], w.copy())).sum()

        check_grad(f, x, tol=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_reshape_transpose(self, seed):
        rng = np.random.default_rng(300 + seed)
        x = Tensor([2, 3, 4], smooth_values(rng, (2, 3, 4)))

        def f(t):
            u = t.transpose(0, 2, 1).reshape([4, 6])
            return (u * u).sum()

        check_grad(f, x, tol=1e-3)


class TestShapeRules:
    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"add: \(2,\) vs \(3,\)"):
            Tensor([2], 1.0) + Tensor([3], 1.0)

    def test_mul_elementwise(self):
        t = Tensor([2, 2], 1.0) * Tensor([2, 2], 3.0)
        assert np.array_equal(t.data, np.full((2, 2), 3.0, np.float32))

    def test_reshape_size_conflict(self):
        with pytest.raises(ValueError, match=r"cannot reshape array of size 4 into shape \(3,\)"):
            Tensor([4], 1.0).reshape([3])

    def test_mul_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"mul: \(2, 2\) vs \(2, 3\)"):
            Tensor([2, 2], 1.0) * Tensor([2, 3], 1.0)
