"""Layer primitives: examples, invariants, and finite-difference gradients."""

import re

import numpy as np
import pytest

from bfpcnn import layers
from bfpcnn.blocks import SpatialAttentionParams
from bfpcnn.data import gen_synthetic
from bfpcnn.errors import DataError
from bfpcnn.layers import (
    BatchNormParams,
    Conv2DParams,
    batchnorm,
    concat_depth,
    conv2d,
    dense,
    dropout,
    flatten,
    maxpool2d,
    relu,
    separable_conv2d,
    softmax,
)
from bfpcnn.tensor import Tensor, matmul
from bfpcnn.train import Dataset

from util import (
    check_grad,
    distinct_values,
    reference_col2im,
    reference_im2col,
    smooth_values,
)


def conv_params(weights, bias, stride=1, padding="valid", dilation=1, track=False):
    w = np.asarray(weights, np.float32)
    b = np.asarray(bias, np.float32)
    return Conv2DParams(
        Tensor(list(w.shape), w, requires_grad=track),
        Tensor(list(b.shape), b, requires_grad=track),
        stride, padding, dilation)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = Tensor([1, 1, 3, 3], np.arange(9, dtype=np.float32))
        p = conv_params(np.ones((1, 1, 1, 1)), [0.0])
        assert np.array_equal(conv2d(x, p).data, x.data)

    def test_hand_convolution(self):
        x = Tensor([1, 1, 3, 3], 1.0)
        p = conv_params(np.ones((1, 1, 2, 2)), [0.0])
        out = conv2d(x, p)
        assert out.shape == (1, 1, 2, 2)
        assert np.all(out.data == 4.0)

    def test_bias_only(self):
        x = Tensor([2, 3, 4, 4], 5.0)
        p = conv_params(np.zeros((2, 3, 3, 3)), [7.0, 7.0], padding="same")
        assert np.all(conv2d(x, p).data == 7.0)

    def test_channel_mismatch(self):
        x = Tensor([1, 2, 4, 4], 1.0)
        p = conv_params(np.ones((1, 3, 3, 3)), [0.0])
        with pytest.raises(ValueError, match=r"array of size 72 into shape \(1,27,4\)"):
            conv2d(x, p)

    def test_kernel_too_large(self):
        x = Tensor([1, 1, 2, 2], 1.0)
        p = conv_params(np.ones((1, 1, 3, 3)), [0.0], padding="valid")
        with pytest.raises(ValueError, match="kernel extent 3 exceeds input size 2"):
            conv2d(x, p)

    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_same_padding_preserves_dims(self, kernel):
        rng = np.random.default_rng(kernel)
        x = Tensor([1, 2, 8, 8], smooth_values(rng, (1, 2, 8, 8)))
        p = conv_params(smooth_values(rng, (3, 2, kernel, kernel)), np.zeros(3),
                        padding="same")
        assert conv2d(x, p).shape == (1, 3, 8, 8)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(55)
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = conv2d(Tensor(list(x.shape), x), conv_params(w, b)).data
        for f in range(3):
            for i in range(4):
                for j in range(4):
                    acc = float(b[f])
                    for c in range(2):
                        for m in range(2):
                            for n in range(2):
                                acc += float(x[0, c, i + m, j + n]) * float(w[f, c, m, n])
                    assert abs(out[0, f, i, j] - acc) < 1e-4

    def test_untracked_input_skips_col2im(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("col2im ran for an untracked input")

        monkeypatch.setattr(layers, "_col2im", refuse)
        rng = np.random.default_rng(12)
        x = Tensor([2, 1, 4, 4], smooth_values(rng, (2, 1, 4, 4)))
        p = conv_params(smooth_values(rng, (3, 1, 3, 3)), np.zeros(3), padding="same",
                        track=True)
        conv2d(x, p).sum().backward()
        assert x.grad is None
        assert np.array_equal(p.bias.grad, np.full(3, 2 * 4 * 4, np.float32))
        assert p.weights.grad.shape == (3, 1, 3, 3)
        assert np.any(p.weights.grad != 0)

    def test_stride_two_geometry(self):
        x = Tensor([1, 1, 5, 5], np.arange(25, dtype=np.float32))
        p = conv_params(np.ones((1, 1, 2, 2)), [0.0], stride=2)
        assert conv2d(x, p).shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride,dilation,padding",
                             [(2, 2, "valid"), (2, 2, "same"), (3, 2, "valid")])
    def test_stride_dilation_against_loop_oracle(self, stride, dilation, padding):
        rng = np.random.default_rng(73)
        x = rng.standard_normal((1, 2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = conv2d(Tensor([1, 2, 9, 9], x.reshape(-1)),
                     conv_params(w, b, stride=stride, padding=padding,
                                 dilation=dilation)).data
        eff = (3 - 1) * dilation + 1
        if padding == "same":
            oh = -(-9 // stride)
            total = max((oh - 1) * stride + eff - 9, 0)
            before = total // 2
            xp = np.pad(x, ((0, 0), (0, 0), (before, total - before),
                            (before, total - before)))
        else:
            oh = (9 - eff) // stride + 1
            xp = x
        ref = np.zeros((1, 3, oh, oh), np.float32)
        for f in range(3):
            for i in range(oh):
                for j in range(oh):
                    acc = float(b[f])
                    for c in range(2):
                        for m in range(3):
                            for n in range(3):
                                acc += (xp[0, c, i * stride + m * dilation,
                                           j * stride + n * dilation]
                                        * w[f, c, m, n])
                    ref[0, f, i, j] = acc
        assert out.shape == ref.shape
        assert np.allclose(out, ref, atol=1e-4)

    def test_dilated_same_padding(self):
        rng = np.random.default_rng(3)
        x = Tensor([1, 1, 6, 6], smooth_values(rng, (1, 1, 6, 6)))
        p = conv_params(smooth_values(rng, (1, 1, 3, 3)), [0.0],
                        padding="same", dilation=2)
        assert conv2d(x, p).shape == (1, 1, 6, 6)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(800 + seed)
        xv = smooth_values(rng, (1, 2, 3, 3))
        wv = smooth_values(rng, (2, 2, 3, 3))
        bv = smooth_values(rng, (2,))

        def via_x(t):
            return conv2d(t, conv_params(wv.copy(), bv.copy(), padding="same")).sum()

        check_grad(via_x, Tensor(list(xv.shape), xv.copy()), tol=1e-3)

        def via_w(t):
            p = Conv2DParams(t, Tensor([2], bv.copy()), 1, "same")
            return conv2d(Tensor(list(xv.shape), xv.copy()), p).sum()

        check_grad(via_w, Tensor(list(wv.shape), wv.copy()), tol=1e-3)

        def via_b(t):
            p = Conv2DParams(Tensor(list(wv.shape), wv.copy()), t, 1, "same")
            return conv2d(Tensor(list(xv.shape), xv.copy()), p).sum()

        check_grad(via_b, Tensor([2], bv.copy()), tol=1e-3)


class TestSeparableConv2d:
    def test_identity_composition(self):
        x = Tensor([1, 2, 3, 3], np.arange(18, dtype=np.float32))
        depthwise = Tensor([2, 1, 1, 1], 1.0)
        pointwise = Tensor([2, 2, 1, 1], np.eye(2, dtype=np.float32).reshape(-1))
        bias = Tensor([2], 0.0)
        out = separable_conv2d(x, depthwise, pointwise, bias)
        assert np.array_equal(out.data, x.data)

    def test_rank_one_factorization_matches_full_conv(self):
        rng = np.random.default_rng(21)
        xv = smooth_values(rng, (1, 1, 6, 6))
        dw = smooth_values(rng, (1, 1, 3, 3))
        pw = smooth_values(rng, (4, 1, 1, 1))
        sep = separable_conv2d(Tensor([1, 1, 6, 6], xv.copy()),
                               Tensor([1, 1, 3, 3], dw.copy()),
                               Tensor([4, 1, 1, 1], pw.copy()),
                               Tensor([4], 0.0))
        full_kernel = pw.reshape(4, 1, 1, 1) * dw  # [4,1,3,3]
        full = conv2d(Tensor([1, 1, 6, 6], xv.copy()),
                      conv_params(full_kernel, np.zeros(4), padding="same"))
        assert np.allclose(sep.data, full.data, atol=1e-5)

    def test_parameter_count_saving(self):
        c, out_ch, k = 8, 8, 3
        sep_weights = c * k * k + out_ch * c
        full_count = out_ch * c * k * k + out_ch
        assert sep_weights == 136 and full_count == 584
        assert sep_weights + out_ch < full_count  # bias included on both sides

    def test_channel_mismatch(self):
        x = Tensor([1, 3, 4, 4], 1.0)
        # unchecked, einsum would apply the one kernel to every channel
        with pytest.raises(ValueError, match=r"depthwise kernel \(1, 1, 3, 3\) does not match 3"):
            separable_conv2d(x, Tensor([1, 1, 3, 3], 1.0),
                             Tensor([2, 3, 1, 1], 1.0), Tensor([2], 0.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(900 + seed)
        xv = smooth_values(rng, (1, 2, 4, 4))
        dwv = smooth_values(rng, (2, 1, 3, 3))
        pwv = smooth_values(rng, (3, 2, 1, 1))

        def f(t):
            return separable_conv2d(t, Tensor([2, 1, 3, 3], dwv.copy()),
                                    Tensor([3, 2, 1, 1], pwv.copy()),
                                    Tensor([3], 0.1)).sum()

        check_grad(f, Tensor([1, 2, 4, 4], xv.copy()), tol=1e-3)

        def via_dw(t):
            return separable_conv2d(Tensor([1, 2, 4, 4], xv.copy()), t,
                                    Tensor([3, 2, 1, 1], pwv.copy()),
                                    Tensor([3], 0.1)).sum()

        check_grad(via_dw, Tensor([2, 1, 3, 3], dwv.copy()), tol=1e-3)


class TestMaxPool2d:
    def test_two_by_two(self):
        x = Tensor([1, 1, 2, 2], [1, 2, 3, 4])
        out = maxpool2d(x, 2, 2)
        assert out.data.reshape(-1).tolist() == [4.0]

    def test_constant_input(self):
        x = Tensor([1, 2, 4, 4], 3.5)
        assert np.all(maxpool2d(x, 2, 2).data == 3.5)

    def test_identity_pool(self):
        rng = np.random.default_rng(14)
        x = Tensor([1, 1, 3, 3], smooth_values(rng, (1, 1, 3, 3)))
        assert np.array_equal(maxpool2d(x, 1, 1).data, x.data)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError, match="kernel extent 3 exceeds input size 2"):
            maxpool2d(Tensor([1, 1, 2, 2], 1.0), 3, 1)

    def test_same_padded_window_larger_than_input(self):
        x = Tensor([1, 1, 1, 1], 2.0, requires_grad=True)
        out = maxpool2d(x, 2, 1, padding="same")
        assert out.data.tolist() == [[[[2.0]]]]
        out.sum().backward()
        assert x.grad.tolist() == [[[[1.0]]]]

    def test_same_padding_keeps_dims(self):
        x = Tensor([1, 1, 5, 5], np.arange(25, dtype=np.float32))
        assert maxpool2d(x, 2, 1, padding="same").shape == (1, 1, 5, 5)

    def test_tie_routes_to_first(self):
        x = Tensor([1, 1, 2, 2], [5.0, 5.0, 3.0, 2.0], requires_grad=True)
        maxpool2d(x, 2, 2).sum().backward()
        # row-major first maximum wins the tie
        assert x.grad.reshape(-1).tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(950 + seed)
        xv = distinct_values(rng, (1, 2, 4, 4))

        def f(t):
            return maxpool2d(t, 2, 2).sum()

        check_grad(f, Tensor([1, 2, 4, 4], xv.copy()), tol=1e-3)


class TestWindowView:
    """Every conv and pool gives the bits of the per-tap unfold and scatter
    that the strided window view replaced: outputs and all gradients, on
    normal-valued inputs (uniform ones have hidden a bit split before)."""

    @staticmethod
    def _bits(layer, *shapes):
        """Output, then the gradient of each input, of ``layer`` applied to
        tracked normal-valued tensors of ``shapes``, each as bytes."""
        rng = np.random.default_rng(17)
        inputs = [Tensor(s, rng.standard_normal(s, dtype=np.float32), requires_grad=True)
                  for s in shapes]
        out = layer(*inputs)
        weight = rng.standard_normal(out.shape, dtype=np.float32)
        (out * Tensor(out.shape, weight)).sum().backward()
        return [a.tobytes() for a in [out.data] + [t.grad for t in inputs]]

    def _assert_same_bits(self, monkeypatch, layer, *shapes):
        window = self._bits(layer, *shapes)
        monkeypatch.setattr(layers, "_im2col", reference_im2col)
        monkeypatch.setattr(layers, "_col2im", reference_col2im)
        assert window == self._bits(layer, *shapes)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_conv2d(self, monkeypatch, kernel, stride, dilation, padding):
        def layer(x, w, b):
            return conv2d(x, Conv2DParams(w, b, stride, padding, dilation))
        self._assert_same_bits(monkeypatch, layer, (2, 3, 15, 14), (4, 3, kernel, kernel), (4,))

    @pytest.mark.parametrize("k, stride, padding", [(3, 2, "valid"), (2, 1, "same")])
    def test_maxpool2d(self, monkeypatch, k, stride, padding):
        self._assert_same_bits(monkeypatch, lambda x: maxpool2d(x, k, stride, padding),
                               (2, 3, 15, 14))

    @pytest.mark.parametrize("n", [1, 3])
    def test_separable_conv2d(self, monkeypatch, n):
        self._assert_same_bits(monkeypatch, separable_conv2d,
                               (n, 6, 15, 14), (6, 1, 3, 3), (5, 6, 1, 1), (5,))


class TestBatchNorm:
    def test_equal_inputs_zero_output(self):
        x = Tensor([2, 1, 2, 2], 4.0)
        out = batchnorm(x, BatchNormParams.create(1), "train")
        assert np.allclose(out.data, 0.0, atol=1e-4)

    def test_two_point_batch(self):
        x = Tensor([2, 1, 1, 1], [0.0, 2.0])
        out = batchnorm(x, BatchNormParams.create(1), "train")
        assert np.allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-3)

    def test_gamma_zero_beta_five(self):
        p = BatchNormParams(Tensor([2], 0.0, requires_grad=True),
                            Tensor([2], 5.0, requires_grad=True),
                            Tensor([2], 0.0), Tensor([2], 1.0))
        rng = np.random.default_rng(12)
        x = Tensor([2, 2, 3, 3], smooth_values(rng, (2, 2, 3, 3)))
        assert np.all(batchnorm(x, p, "train").data == 5.0)

    def test_batch_too_small(self):
        with pytest.raises(DataError, match="needs >= 2 values per channel"):
            batchnorm(Tensor([1, 3, 1, 1], 1.0), BatchNormParams.create(3), "train")

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match=r"batchnorm: 3 channels vs parameters \(2,\)"):
            batchnorm(Tensor([2, 3, 2, 2], 1.0), BatchNormParams.create(2), "train")

    @pytest.mark.parametrize("seed", range(5))
    def test_normalizes_batch_statistics(self, seed):
        rng = np.random.default_rng(1200 + seed)
        x = Tensor([4, 3, 5, 5], (rng.standard_normal((4, 3, 5, 5)) * 2 + 1).astype(np.float32))
        out = batchnorm(x, BatchNormParams.create(3), "train")
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) <= 1e-5)
        assert np.all(np.abs(var - 1.0) <= 1e-3)

    def test_running_stats_update(self):
        p = BatchNormParams.create(1)
        x = Tensor([2, 1, 1, 1], [0.0, 2.0])
        batchnorm(x, p, "train")
        assert np.allclose(p.running_mean.data, [0.1])   # 0.9*0 + 0.1*1
        assert np.allclose(p.running_var.data, [1.0])    # 0.9*1 + 0.1*1

    def test_infer_uses_running_stats(self):
        p = BatchNormParams.create(1)
        p.running_mean.data[:] = 3.0
        p.running_var.data[:] = 4.0
        x = Tensor([1, 1, 1, 2], [3.0, 5.0])
        out = batchnorm(x, p, "infer")
        assert np.allclose(out.data.reshape(-1), [0.0, 1.0], atol=1e-3)

    # train and infer share one backward closure that differs only in dx
    @pytest.mark.parametrize("seed, mode", [
        *(pytest.param(s, "train", id=str(s)) for s in range(6)),
        *(pytest.param(s, "infer", id=f"infer-{s}") for s in range(3)),
    ])
    def test_gradients_train_mode(self, seed, mode):
        rng = np.random.default_rng(1300 + seed)
        xv = smooth_values(rng, (2, 2, 3, 3), scale=1.5)
        gv = smooth_values(rng, (2,))
        bv = smooth_values(rng, (2,))
        cv = smooth_values(rng, (2, 2, 3, 3))
        # running statistics, read in infer mode only
        mean, var = smooth_values(rng, (2,)), rng.uniform(0.5, 2.0, 2).astype(np.float32)

        def weigh(out):
            return (out * Tensor(list(cv.shape), cv.copy())).sum()

        def params(gamma):
            return BatchNormParams(gamma, Tensor([2], bv.copy()),
                                   Tensor([2], mean.copy()), Tensor([2], var.copy()))

        def via_x(t):
            return weigh(batchnorm(t, params(Tensor([2], gv.copy())), mode))

        check_grad(via_x, Tensor(list(xv.shape), xv.copy()), tol=1e-3)

        def via_gamma(t):
            return weigh(batchnorm(Tensor(list(xv.shape), xv.copy()), params(t), mode))

        check_grad(via_gamma, Tensor([2], gv.copy()), tol=1e-3)


class TestRelu:
    def test_values(self):
        x = Tensor([3], [-1.0, 2.0, 0.0])
        assert relu(x).data.tolist() == [0.0, 2.0, 0.0]

    def test_gradient_mask(self):
        x = Tensor([3], [-1.0, 2.0, 0.0], requires_grad=True)
        relu(x).sum().backward()
        assert x.grad.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(1400 + seed)
        xv = smooth_values(rng, (3, 4))
        check_grad(lambda t: (relu(t) * relu(t)).sum(),
                   Tensor([3, 4], xv.copy()), tol=1e-3)


class TestConcatDepth:
    def test_depth_arithmetic(self):
        x = Tensor([1, 2, 3, 3], 1.0)
        y = Tensor([1, 3, 3, 3], 2.0)
        assert concat_depth(x, y).shape == (1, 5, 3, 3)

    def test_second_block_is_y(self):
        rng = np.random.default_rng(31)
        x = Tensor([2, 2, 3, 3], smooth_values(rng, (2, 2, 3, 3)))
        y = Tensor([2, 3, 3, 3], smooth_values(rng, (2, 3, 3, 3)))
        out = concat_depth(x, y)
        assert np.array_equal(out.data[:, 2], y.data[:, 0])

    def test_spatial_mismatch(self):
        with pytest.raises(ValueError, match="dimension 2, the array at index 0 has size 3 "):
            concat_depth(Tensor([1, 1, 3, 3], 1.0), Tensor([1, 1, 4, 3], 1.0))

    def test_associative_bitwise(self):
        rng = np.random.default_rng(32)
        a = Tensor([1, 1, 2, 2], smooth_values(rng, (1, 1, 2, 2)))
        b = Tensor([1, 2, 2, 2], smooth_values(rng, (1, 2, 2, 2)))
        c = Tensor([1, 3, 2, 2], smooth_values(rng, (1, 3, 2, 2)))
        left = concat_depth(concat_depth(a, b), c).data
        right = concat_depth(a, concat_depth(b, c)).data
        assert np.array_equal(left, right)

    def test_gradients_split(self):
        x = Tensor([1, 1, 2, 2], 1.0, requires_grad=True)
        y = Tensor([1, 2, 2, 2], 1.0, requires_grad=True)
        (concat_depth(x, y) * Tensor([1, 3, 2, 2], 2.0)).sum().backward()
        assert np.all(x.grad == 2.0) and np.all(y.grad == 2.0)

    def test_three_inputs_layout_and_gradient_slices(self):
        rng = np.random.default_rng(33)
        xs = [Tensor([2, ch, 2, 3], smooth_values(rng, (2, ch, 2, 3)), requires_grad=True)
              for ch in (1, 3, 2)]
        out = concat_depth(*xs)
        assert np.array_equal(out.data, np.concatenate([x.data for x in xs], axis=1))
        weights = smooth_values(rng, out.shape)
        (out * Tensor(list(out.shape), weights)).sum().backward()
        assert np.array_equal(xs[0].grad, weights[:, :1])
        assert np.array_equal(xs[1].grad, weights[:, 1:4])
        assert np.array_equal(xs[2].grad, weights[:, 4:])
        with pytest.raises(ValueError, match="dimension 0, the array at index 0 has size 2 "):
            concat_depth(*xs, Tensor([1, 1, 2, 3], 1.0))


class TestDense:
    def test_identity(self):
        x = Tensor([2, 3], np.arange(6, dtype=np.float32))
        w = Tensor([3, 3], np.eye(3, dtype=np.float32).reshape(-1))
        out = dense(x, w, Tensor([3], 0.0))
        assert np.array_equal(out.data, x.data)

    def test_hand_case(self):
        out = dense(Tensor([1, 2], [1, 2]), Tensor([2, 1], [1, 1]), Tensor([1], [3]))
        assert out.data.tolist() == [[6.0]]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match=r"dense: \(1, 3\) @ \(2, 1\) \+ \(1,\)"):
            dense(Tensor([1, 3], 1.0), Tensor([2, 1], 1.0), Tensor([1], 0.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(1500 + seed)
        xv = smooth_values(rng, (3, 4))
        wv = smooth_values(rng, (4, 2))
        bv = smooth_values(rng, (2,))

        def via_x(t):
            return dense(t, Tensor([4, 2], wv.copy()), Tensor([2], bv.copy())).sum()

        check_grad(via_x, Tensor([3, 4], xv.copy()), tol=1e-3)

        def via_w(t):
            return dense(Tensor([3, 4], xv.copy()), t, Tensor([2], bv.copy())).sum()

        check_grad(via_w, Tensor([4, 2], wv.copy()), tol=1e-3)


class TestFlatten:
    def test_shape(self):
        assert flatten(Tensor([2, 3, 2, 2], 0.0)).shape == (2, 12)

    def test_roundtrip(self):
        rng = np.random.default_rng(41)
        xv = smooth_values(rng, (2, 3, 2, 2))
        x = Tensor([2, 3, 2, 2], xv.copy())
        back = flatten(x).reshape([2, 3, 2, 2])
        assert np.array_equal(back.data, x.data)

    def test_row_major_index(self):
        h, w = 2, 2
        x = np.zeros((1, 3, h, w), np.float32)
        x[0, 1, 1, 0] = 9.0
        flat = flatten(Tensor([1, 3, h, w], x)).data
        assert flat[0, 1 * h * w + 1 * w + 0] == 9.0


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([1, 4], 0.0))
        assert np.allclose(out.data, 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(51)
        logits = smooth_values(rng, (3, 5))
        a = softmax(Tensor([3, 5], logits.copy())).data
        b = softmax(Tensor([3, 5], logits.copy() + np.float32(3.0))).data
        assert np.allclose(a, b, atol=1e-6)

    def test_direct_exponential_oracle(self):
        logits = np.array([1.0, 2.0, 3.0, 4.0], np.float32)
        out = softmax(Tensor([1, 4], logits)).data.reshape(-1)
        e = np.exp(logits.astype(np.float64))
        assert np.allclose(out, e / e.sum(), atol=1e-6)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(52)
        out = softmax(Tensor([6, 7], (rng.standard_normal((6, 7)) * 5).astype(np.float32)))
        assert np.all(out.data > 0)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_extreme_logits_stay_finite(self):
        x = Tensor([2, 4], [1e4, -1e4, 0.0, 5.0, -1e4, 1e4, 2.0, -3.0])
        out = softmax(x)
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(1600 + seed)
        xv = smooth_values(rng, (2, 4))
        cv = smooth_values(rng, (2, 4))

        def f(t):
            return (softmax(t) * Tensor([2, 4], cv.copy())).sum()

        check_grad(f, Tensor([2, 4], xv.copy()), tol=1e-3)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor([3, 3], 1.0)
        assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x

    def test_infer_identity(self):
        x = Tensor([3, 3], 1.0)
        assert dropout(x, 0.9, "infer", np.random.default_rng(0)) is x

    def test_statistics(self):
        rng = np.random.default_rng(61)
        x = Tensor([100, 100], 1.0)
        out = dropout(x, 0.5, "train", np.random.default_rng(7))
        survivors = np.count_nonzero(out.data) / out.size
        sigma = np.sqrt(0.25 / out.size)
        assert abs(survivors - 0.5) <= 3 * sigma
        assert abs(out.data.mean() - 1.0) <= 0.05

    def test_deterministic_under_seed(self):
        x = Tensor([4, 4], 1.0)
        a = dropout(x, 0.5, "train", np.random.default_rng(123)).data
        b = dropout(Tensor([4, 4], 1.0), 0.5, "train", np.random.default_rng(123)).data
        assert np.array_equal(a, b)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            dropout(Tensor([2], 1.0), 1.0, "train", np.random.default_rng(0))

    def test_train_needs_rng(self):
        with pytest.raises(ValueError):
            dropout(Tensor([2], 1.0), 0.5, "train", None)

    def test_gradient_with_fixed_mask(self):
        rng = np.random.default_rng(62)
        xv = smooth_values(rng, (4, 4))
        check_grad(lambda t: dropout(t, 0.5, "train", np.random.default_rng(99)).sum(),
                   Tensor([4, 4], xv.copy()), tol=1e-3)


class TestApiMisuse:
    """Each refusal that numpy would not make by itself: unchecked, these
    misuses run on to a result or fail some other way."""

    @pytest.mark.parametrize("misuse, error, message", [
        (lambda tmp: Conv2DParams(Tensor([2, 1, 3, 3], 1.0), Tensor([3], 0.0)),
         ValueError, "bias length must equal the output channel count"),
        (lambda tmp: Conv2DParams(Tensor([1, 1, 3, 3], 1.0), Tensor([1], 0.0), stride=0),
         ValueError, "stride and dilation must be >= 1"),
        (lambda tmp: Conv2DParams(Tensor([1, 1, 3, 3], 1.0), Tensor([1], 0.0), dilation=0),
         ValueError, "stride and dilation must be >= 1"),
        (lambda tmp: Conv2DParams.create(None, 1, 1, 0),
         ValueError, "kernel dims must be >= 1"),
        (lambda tmp: separable_conv2d(Tensor([1, 3, 4, 4], 1.0), Tensor([3, 1, 3, 3], 1.0),
                                      Tensor([2, 3, 3, 3], 1.0), Tensor([2], 0.0)),
         ValueError, "pointwise kernel (2, 3, 3, 3) does not match 3 input channels"),
        (lambda tmp: maxpool2d(Tensor([1, 1, 4, 4], 1.0), 2, 0),
         ValueError, "k and stride must be >= 1"),
        (lambda tmp: concat_depth(Tensor([1, 2, 3], 1.0), Tensor([1, 2, 3], 1.0)),
         ValueError, "concat_depth expects rank-4 tensors"),
        (lambda tmp: dense(Tensor([1, 3, 3], 1.0), Tensor([3, 2], 1.0), Tensor([2], 0.0)),
         ValueError, "dense expects rank-2 input and weights, got (1, 3, 3), (3, 2)"),
        (lambda tmp: softmax(Tensor([2, 3, 4], 1.0)),
         ValueError, "softmax expects [N, K], got (2, 3, 4)"),
        (lambda tmp: matmul(Tensor([2, 3, 4], 1.0), Tensor([4, 5], 1.0)),
         ValueError, "matmul needs rank-2 operands, got (2, 3, 4) and (4, 5)"),
        (lambda tmp: gen_synthetic(tmp / "data", 0, 8, 0),
         ValueError, "per_class must be >= 1"),
        (lambda tmp: Dataset(np.zeros((2, 1, 4, 4)), np.zeros(3)),
         DataError, "images and labels differ in length"),
        (lambda tmp: SpatialAttentionParams.create(None, 2, None, 3, ()),
         ValueError, "need at least one dilation rate"),
    ], ids=["conv-bias", "conv-stride", "conv-dilation", "conv-kernel", "pointwise",
            "pool-stride", "concat-rank", "dense-rank", "softmax-rank", "matmul-rank",
            "gen-per-class", "dataset-length", "spatial-no-dilation"])
    def test_refused_with_its_message(self, tmp_path, misuse, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            misuse(tmp_path)
