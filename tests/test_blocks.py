"""Composite blocks: inception, self-attention, spatial attention and
residual."""

import numpy as np
import pytest

from bfpcnn.blocks import (
    InceptionParams,
    ResidualBlockParams,
    SelfAttentionParams,
    SpatialAttentionParams,
    _attend,
    inception_block,
    inception_channels,
    residual_block,
    self_attention,
    spatial_attention,
)
from bfpcnn.layers import BatchNormParams, Conv2DParams, batchnorm, conv2d, maxpool2d, relu
from bfpcnn.tensor import Tensor, no_tape

from util import check_grad, reference_self_attention, smooth_values


def zero_conv(params: Conv2DParams) -> None:
    params.weights.data[:] = 0
    params.bias.data[:] = 0


class TestInceptionBlock:
    def test_output_depth(self):
        rng = np.random.default_rng(1)
        cfg = (64, 48, 64, 16, 32, 32)
        x = Tensor([1, 3, 8, 8], smooth_values(rng, (1, 3, 8, 8)))
        params = InceptionParams.create(rng, 3, cfg)
        out = inception_block(x, params)
        assert out.shape == (1, 192, 8, 8)
        assert inception_channels(cfg) == 192

    def test_zero_parameters_give_zero(self):
        rng = np.random.default_rng(2)
        cfg = (2, 2, 2, 2, 2, 2)
        params = InceptionParams.create(rng, 2, cfg)
        for p in (params.p1, params.p2a, params.p2b, params.p3a, params.p3b, params.p4):
            zero_conv(p)
        x = Tensor([1, 2, 5, 5], smooth_values(rng, (1, 2, 5, 5)))
        assert np.all(inception_block(x, params).data == 0.0)

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(3)
        cfg = (1, 1, 1, 1, 1, 1)
        params = InceptionParams.create(rng, 4, cfg)
        x = Tensor([2, 4, 8, 8], smooth_values(rng, (2, 4, 8, 8)))
        assert inception_block(x, params).shape == (2, 4, 8, 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_channels_match_standalone_paths_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = (2, 3, 2, 2, 3, 2)
        params = InceptionParams.create(rng, 3, cfg)
        xv = smooth_values(rng, (2, 3, 6, 6))
        out = inception_block(Tensor([2, 3, 6, 6], xv.copy()), params).data

        x = Tensor([2, 3, 6, 6], xv.copy())
        p1 = relu(conv2d(x, params.p1)).data
        p2 = relu(conv2d(relu(conv2d(x, params.p2a)), params.p2b)).data
        p3 = relu(conv2d(relu(conv2d(x, params.p3a)), params.p3b)).data
        p4 = relu(conv2d(maxpool2d(x, 2, 1, padding="same"), params.p4)).data

        assert np.array_equal(out[:, 0:2], p1)
        assert np.array_equal(out[:, 2:4], p2)
        assert np.array_equal(out[:, 4:7], p3)
        assert np.array_equal(out[:, 7:9], p4)

    def test_one_concat_node(self):
        # the four paths join in one concatenation, not a chain of pairs
        rng = np.random.default_rng(5)
        params = InceptionParams.create(rng, 2, (1, 1, 1, 1, 1, 1))
        out = inception_block(Tensor([1, 2, 4, 4], smooth_values(rng, (1, 2, 4, 4))), params)
        stack, seen, kinds = [out], set(), []
        while stack:
            t = stack.pop()
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            kinds.append(t.node.op_kind)
            stack.extend(t.node.inputs)
        assert kinds.count("concat_depth") == 1
        assert out.node.op_kind == "concat_depth" and len(out.node.inputs) == 4

    def test_gradients(self):
        rng = np.random.default_rng(4)
        cfg = (1, 1, 1, 1, 1, 1)
        params = InceptionParams.create(rng, 2, cfg)
        xv = smooth_values(rng, (1, 2, 4, 4))

        def f(t):
            return inception_block(t, params).sum()

        check_grad(f, Tensor([1, 2, 4, 4], xv.copy()), tol=1e-3)


def attention_params(rng, channels, dropout=0.0):
    return SelfAttentionParams.create(rng, channels, dropout)


class TestSelfAttention:
    def test_single_position(self):
        rng = np.random.default_rng(10)
        p = attention_params(rng, 3)
        xv = smooth_values(rng, (1, 3, 1, 1))
        out, attn = self_attention(Tensor([1, 3, 1, 1], xv.copy()), p, "infer",
                                   return_attn=True)
        assert attn.shape == (1, 1, 1)
        assert np.allclose(attn, 1.0, atol=1e-7)
        vec = xv.reshape(1, 3)
        expected = (vec @ p.wv.data) @ p.wo.data
        assert np.allclose(out.data.reshape(1, 3), expected, atol=1e-5)

    def test_scale_matches_dk(self):
        # scores are q.k / sqrt(C): the keys are C wide
        rng = np.random.default_rng(11)
        p = attention_params(rng, 4)
        xv = smooth_values(rng, (1, 4, 3, 1))
        _, attn = self_attention(Tensor([1, 4, 3, 1], xv.copy()), p, "infer",
                                 return_attn=True)
        seq = xv.reshape(4, 3).T
        canon = seq[np.lexsort(seq.T[::-1])]
        scores = (canon @ p.wq.data) @ (canon @ p.wk.data).T / np.sqrt(4.0)
        expected = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(attn[0], expected, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = attention_params(rng, 3)
        x = Tensor([2, 3, 3, 2], smooth_values(rng, (2, 3, 3, 2)))
        _, attn = self_attention(x, p, "infer", return_attn=True)
        assert np.allclose(attn.sum(axis=2), 1.0, atol=1e-6)

    def test_uniform_attention_averages_values(self):
        rng = np.random.default_rng(12)
        p = attention_params(rng, 2)
        p.wq.data[:] = 0.0  # scores vanish: softmax rows are uniform
        xv = smooth_values(rng, (1, 2, 2, 1))
        out, attn = self_attention(Tensor([1, 2, 2, 1], xv.copy()), p, "infer",
                                   return_attn=True)
        assert np.allclose(attn, 0.5, atol=1e-6)
        seq = xv.reshape(2, 2).T  # positions are the channel-slices: [T=2, C=2]
        mean_v = (seq @ p.wv.data).mean(axis=0)
        expected = mean_v @ p.wo.data
        for position in out.data.reshape(2, 2).T:
            assert np.allclose(position, expected, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_position_permutation_equivariance_bitwise(self, seed):
        rng = np.random.default_rng(300 + seed)
        c, h, w = 3, 2, 3
        t = h * w
        p = attention_params(rng, c)
        xv = smooth_values(rng, (1, c, h, w))
        base = self_attention(Tensor([1, c, h, w], xv.copy()), p, "infer").data

        perm = rng.permutation(t)
        permuted = xv.reshape(1, c, t)[:, :, perm].reshape(1, c, h, w)
        out_p = self_attention(Tensor([1, c, h, w], permuted.copy()), p, "infer").data
        assert np.array_equal(out_p.reshape(1, c, t),
                              base.reshape(1, c, t)[:, :, perm])

    # the model's infer forwards run attention untaped
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_untaped(self, seed):
        with no_tape():
            self.test_rows_sum_to_one(seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_position_permutation_equivariance_bitwise_untaped(self, seed):
        with no_tape():
            self.test_position_permutation_equivariance_bitwise(seed)

    def test_train_dropout_needs_rng(self):
        rng = np.random.default_rng(14)
        p = attention_params(rng, 2, dropout=0.1)
        with pytest.raises(ValueError):
            self_attention(Tensor([1, 2, 2, 2], 1.0), p, "train")

    def test_dropout_deterministic_under_rng(self):
        rng = np.random.default_rng(15)
        p = attention_params(rng, 2, dropout=0.3)
        xv = smooth_values(rng, (1, 2, 2, 2))
        a = self_attention(Tensor([1, 2, 2, 2], xv.copy()), p, "train",
                           rng=np.random.default_rng(5)).data
        b = self_attention(Tensor([1, 2, 2, 2], xv.copy()), p, "train",
                           rng=np.random.default_rng(5)).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients(self, seed):
        rng = np.random.default_rng(400 + seed)
        p = attention_params(rng, 2)
        xv = smooth_values(rng, (1, 2, 2, 2))

        def f(t):
            return (t + self_attention(t, p, "infer")).sum()

        check_grad(f, Tensor([1, 2, 2, 2], xv.copy()), tol=1e-3)

    def test_projection_gradients(self):
        rng = np.random.default_rng(16)
        p = attention_params(rng, 2)
        xv = smooth_values(rng, (1, 2, 2, 1))
        wq0 = p.wq.data.copy()

        def f(t):
            params = SelfAttentionParams(t, p.wk, p.wv, p.wo, 0.0)
            return self_attention(Tensor([1, 2, 2, 1], xv.copy()), params, "infer").sum()

        check_grad(f, Tensor([2, 2], wq0.reshape(-1)), tol=1e-3)


class TestFusedAttention:
    """The one-node attention op against the chain of separate tape ops."""

    @pytest.mark.parametrize("mode, rate", [
        ("infer", 0.1), ("train", 0.0), ("train", 0.1), ("train", 0.3)])
    def test_bitwise_equal_to_unfused_chain(self, mode, rate):
        shape = (3, 5, 7, 7)  # N >= 2, T = 49 not a power of two
        results = []
        for attend in (lambda x, p, rng: self_attention(x, p, mode, rng, return_attn=True),
                       lambda x, p, rng: reference_self_attention(x, p, mode, rng)):
            rng = np.random.default_rng(21)
            p = attention_params(rng, 5, dropout=rate)
            x = Tensor(shape, smooth_values(rng, shape), requires_grad=True)
            weight = Tensor(shape, smooth_values(rng, shape))
            draws = np.random.default_rng(8)
            out, attn = attend(x, p, draws)
            (out * weight).sum().backward()
            arrays = [out.data, attn, x.grad, p.wq.grad, p.wk.grad, p.wv.grad, p.wo.grad]
            results.append(([a.tobytes() for a in arrays], draws.bit_generator.state))
        (fused, fused_state), (chain, chain_state) = results
        assert fused == chain
        assert fused_state == chain_state

    @staticmethod
    def _normal_case(n: int, rate: float):
        # normal values: uniform ones give near-equal scores that can hide a
        # reordered sum
        rng = np.random.default_rng(31)
        p = attention_params(rng, 4, dropout=rate)
        shape = (n, 4, 5, 3)  # T = 15, odd
        x = Tensor(shape, rng.standard_normal(shape, dtype=np.float32), requires_grad=True)
        return p, x, Tensor(shape, rng.standard_normal(shape, dtype=np.float32))

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("mode, rate", [("infer", 0.1), ("train", 0.0), ("train", 0.3)])
    def test_loop_matches_chain_on_normal_values(self, n, mode, rate):
        def taped(attend):
            p, x, weight = self._normal_case(n, rate)
            draws = np.random.default_rng(9)
            out, attn = attend(x, p, draws)
            (out * weight).sum().backward()
            arrays = [out.data, attn, x.grad, p.wq.grad, p.wk.grad, p.wv.grad, p.wo.grad]
            return [a.tobytes() for a in arrays], draws.bit_generator.state

        loop = taped(lambda x, p, rng: self_attention(x, p, mode, rng, return_attn=True))
        assert loop == taped(lambda x, p, rng: reference_self_attention(x, p, mode, rng))

    @pytest.mark.parametrize("return_attn", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("mode, rate", [("infer", 0.1), ("train", 0.0), ("train", 0.3)])
    def test_untaped_loop_matches_chain(self, n, mode, rate, return_attn):
        p, x, _ = self._normal_case(n, rate)
        draws = np.random.default_rng(9)
        expected, expected_attn = reference_self_attention(x, p, mode, draws)
        expected_state = draws.bit_generator.state
        draws = np.random.default_rng(9)
        with no_tape():
            out = self_attention(x, p, mode, draws, return_attn=return_attn)
        if return_attn:
            out, attn = out
            assert attn.tobytes() == expected_attn.tobytes()
        assert out.node is None
        assert out.data.tobytes() == expected.data.tobytes()
        assert draws.bit_generator.state == expected_state

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("wrt", ["q", "k", "v"])
    def test_gradient(self, wrt, rate):
        rng = np.random.default_rng(500 + "qkv".index(wrt))
        shape = (2, 3, 4)
        operands = {name: smooth_values(rng, shape) for name in "qkv"}
        weight = smooth_values(rng, shape)

        def f(t):
            args = {name: Tensor(shape, vals.copy()) for name, vals in operands.items()}
            args[wrt] = t
            # a fresh generator per call: the same dropout mask every time
            out, _ = _attend(args["q"], args["k"], args["v"], 0.5, rate, "train",
                             np.random.default_rng(7))
            return (out * Tensor(shape, weight.copy())).sum()

        check_grad(f, Tensor(shape, operands[wrt].copy()), tol=1e-3)


class TestSpatialAttention:
    def test_single_branch_equals_conv_bn(self):
        rng = np.random.default_rng(20)
        params = SpatialAttentionParams.create(rng, 2, 3, 3, (1,))
        xv = smooth_values(rng, (2, 2, 4, 4))
        out = spatial_attention(Tensor([2, 2, 4, 4], xv.copy()), params, "infer").data
        conv_p, bn_p = params.branches[0]
        direct = batchnorm(conv2d(Tensor([2, 2, 4, 4], xv.copy()), conv_p), bn_p, "infer").data
        assert np.array_equal(out, direct)

    def test_constant_branches_sum(self):
        rng = np.random.default_rng(21)
        params = SpatialAttentionParams.create(rng, 2, 2, 3, (1, 2))
        for _, bn in params.branches:
            bn.gamma.data[:] = 0.0
            bn.beta.data[:] = 1.0
        x = Tensor([1, 2, 4, 4], smooth_values(rng, (1, 2, 4, 4)))
        out = spatial_attention(x, params, "train")
        assert np.all(out.data == 2.0)

    def test_dims_preserved(self):
        rng = np.random.default_rng(22)
        params = SpatialAttentionParams.create(rng, 3, None, 3, (1, 2))
        x = Tensor([2, 3, 5, 5], smooth_values(rng, (2, 3, 5, 5)))
        assert spatial_attention(x, params, "infer").shape == (2, 3, 5, 5)

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_sum_of_single_branches(self, d):
        rng = np.random.default_rng(23 + d)
        params = SpatialAttentionParams.create(rng, 2, 2, 3, tuple(range(1, d + 1)))
        xv = smooth_values(rng, (1, 2, 4, 4))
        combined = spatial_attention(Tensor([1, 2, 4, 4], xv.copy()), params, "infer").data
        total = None
        for branch in params.branches:
            single = spatial_attention(Tensor([1, 2, 4, 4], xv.copy()),
                                       SpatialAttentionParams([branch]), "infer").data
            total = single if total is None else total + single
        assert np.array_equal(combined, total)

    def test_gradients(self):
        rng = np.random.default_rng(25)
        params = SpatialAttentionParams.create(rng, 2, 2, 3, (1, 2))
        xv = smooth_values(rng, (1, 2, 4, 4))

        def f(t):
            return spatial_attention(t, params, "train").sum()

        check_grad(f, Tensor([1, 2, 4, 4], xv.copy()), tol=1e-3)


class TestResidualBlock:
    def test_zero_inner_path_is_relu(self):
        rng = np.random.default_rng(30)
        params = ResidualBlockParams.create(rng, 2)
        zero_conv(params.conv1)
        zero_conv(params.conv2)
        params.bn1.gamma.data[:] = 0.7  # arbitrary gamma, beta zero
        xv = smooth_values(rng, (2, 2, 4, 4))
        out = residual_block(Tensor([2, 2, 4, 4], xv.copy()), params, "train")
        assert np.array_equal(out.data, np.maximum(xv, 0))

    def test_identity_path_gradient(self):
        rng = np.random.default_rng(31)
        params = ResidualBlockParams.create(rng, 2)
        zero_conv(params.conv1)
        zero_conv(params.conv2)
        xv = np.abs(smooth_values(rng, (1, 2, 3, 3))) + 0.1  # relu mask all-on

        def f(t):
            return residual_block(t, params, "train").sum()

        x = Tensor([1, 2, 3, 3], xv.copy(), requires_grad=True)
        f_out = residual_block(x, params, "train").sum()
        f_out.backward()
        assert np.allclose(x.grad, 1.0, atol=1e-5)
        check_grad(f, Tensor([1, 2, 3, 3], xv.copy()), tol=1e-3)

    def test_shape_preserved(self):
        rng = np.random.default_rng(32)
        params = ResidualBlockParams.create(rng, 3)
        x = Tensor([2, 3, 5, 5], smooth_values(rng, (2, 3, 5, 5)))
        assert residual_block(x, params, "infer").shape == (2, 3, 5, 5)

    def test_shape_change_detected(self):
        rng = np.random.default_rng(33)
        params = ResidualBlockParams.create(rng, 2)
        params.conv2 = Conv2DParams.create(rng, 2, 3, 3)  # widens the path
        params.bn2 = BatchNormParams.create(3)
        with pytest.raises(ValueError, match="add: "):
            residual_block(Tensor([1, 2, 4, 4], 1.0), params, "infer")

    def test_gradients(self):
        rng = np.random.default_rng(34)
        params = ResidualBlockParams.create(rng, 2)
        xv = smooth_values(rng, (1, 2, 3, 3))

        def f(t):
            return residual_block(t, params, "train").sum()

        # composite budget: interior relu kinks make the FD oracle noisy
        check_grad(f, Tensor([1, 2, 3, 3], xv.copy()), tol=1e-2)

