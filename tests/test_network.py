import numpy as np
import pytest

from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.network import (Activation, Conv2D, Dense,
                           NetworkDescription, ThermometricEncoder,
                           conv_weight_matrix, encode_thermometric,
                           forward_ideal, im2col, lenet, maxpool,
                           predict_ideal, thermometric_trits)
from oxcim.quant import Precision, TernaryTensor
from oxcim.device import sigmoid_ideal
from oxcim.quant import popcount_oracle


def direct_conv2d(x, w, stride=1):
    """Independent nested-loop valid convolution oracle (no flipping)."""
    c, h, wd = x.shape
    o, ci, kh, kw = w.shape
    assert ci == c
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((o, oh, ow), dtype=np.int64)
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                acc = 0
                for cc in range(c):
                    for ki in range(kh):
                        for kj in range(kw):
                            acc += int(x[cc, i * stride + ki, j * stride + kj]) \
                                * int(w[oc, cc, ki, kj])
                out[oc, i, j] = acc
    return out


class TestThermometric:
    def test_bright_pixel_sets_all_channels(self):
        img = np.full((2, 2), 255, dtype=np.uint8)
        bits = encode_thermometric(img)
        assert bits.shape == (8, 2, 2)
        assert bits.all()

    def test_dark_pixel_sets_none(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        assert not encode_thermometric(img).any()

    def test_mid_gray_sets_four_channels(self):
        img = np.full((1, 1), 128, dtype=np.uint8)
        bits = encode_thermometric(img)
        assert bits[:, 0, 0].sum() == 4  # thresholds 32, 64, 96, 128

    def test_code_is_monotone_per_pixel(self):
        gen = np.random.default_rng(0)
        img = gen.integers(0, 256, size=(16, 16)).astype(np.uint8)
        bits = encode_thermometric(img)
        diffs = np.diff(bits.astype(np.int8), axis=0)
        assert np.all(diffs <= 0)  # once a channel is off, higher stay off

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            encode_thermometric(np.full((2, 2), 300))
        with pytest.raises(DomainError):
            encode_thermometric(np.full((2, 2), -1))

    def test_trits_map_zero_to_minus_one(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        trits = thermometric_trits(img)
        assert set(np.unique(trits)) <= {-1, 1}
        assert np.all(trits[:, 0, 0] == -1)
        assert np.all(trits[:, 0, 1] == 1)

    def test_encoder_validation(self):
        with pytest.raises(ConfigError):
            ThermometricEncoder(channels=3, thresholds=(1, 2))
        with pytest.raises(ConfigError):
            ThermometricEncoder(channels=2, thresholds=(5, 5))


class TestConvLowering:
    def test_lenet_first_conv_dims(self):
        conv1 = lenet(Precision.BINARY).plan[0]
        assert conv1.fan_in == 200 and conv1.weight_shape == (6, 8, 5, 5)
        assert conv1.out_shape == (6, 28, 28)
        assert conv1.gather.shape == (784, 200)
        # the gather rows are the im2col patches of the flat input offsets
        ids = np.arange(8 * 32 * 32).reshape(8, 32, 32)
        np.testing.assert_array_equal(conv1.gather, im2col(ids, 5)[0])

    def test_one_by_one_kernel_is_identity_reshape(self):
        x = np.arange(16, dtype=np.int8).reshape(1, 4, 4) % 3 - 1
        patches, (oh, ow) = im2col(x, 1)
        assert (oh, ow) == (4, 4)
        np.testing.assert_array_equal(patches.ravel(), x.ravel())

    def test_lowered_equals_direct_convolution(self):
        gen = np.random.default_rng(1)
        for trial in range(8):
            c = int(gen.integers(1, 3))
            h = int(gen.integers(4, 9))
            w = int(gen.integers(4, 9))
            k = int(gen.integers(1, 4))
            o = int(gen.integers(1, 4))
            stride = int(gen.integers(1, 3))
            if (h - k) < 0 or (w - k) < 0:
                continue
            x = gen.choice([-1, 0, 1], size=(c, h, w)).astype(np.int8)
            wt = gen.choice([-1, 0, 1], size=(o, c, k, k)).astype(np.int8)
            patches, (oh, ow) = im2col(x, k, stride)
            got = (patches.astype(np.int64) @
                   conv_weight_matrix(wt).astype(np.int64))
            got = got.reshape(oh, ow, o).transpose(2, 0, 1)
            np.testing.assert_array_equal(got, direct_conv2d(x, wt, stride))

    def test_stride_two_halves_even_output(self):
        x = np.ones((1, 8, 8), dtype=np.int8)
        wt = np.ones((1, 1, 2, 2), dtype=np.int8)
        patches, (oh, ow) = im2col(x, 2, 2)
        assert (oh, ow) == (4, 4)
        np.testing.assert_array_equal(
            direct_conv2d(x, wt, 2).shape, (1, 4, 4))


class TestMaxPool:
    def test_trit_ordering(self):
        x = np.array([[[-1, 0], [0, -1]]], dtype=np.int8)
        np.testing.assert_array_equal(maxpool(x, 2), [[[0]]])

    def test_plus_one_dominates(self):
        x = np.array([[[-1, 1], [0, -1]]], dtype=np.int8)
        np.testing.assert_array_equal(maxpool(x, 2), [[[1]]])

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            maxpool(np.zeros((1, 5, 4), dtype=np.int8), 2)


def tiny_net(precision=Precision.TERNARY, r=0.5, seed=0, n_out=10):
    """4x4 single-channel input, one conv, one dense; handy for unit tests."""
    gen = np.random.default_rng(seed)
    pool = np.array(precision.allowed_values, dtype=np.int8)
    layers = [
        Conv2D(3, 3), Activation("ternary" if precision is Precision.TERNARY
                                 else "binary", r),
        Dense(n_out), Activation("sigmoid_output"),
    ]
    weights = [
        TernaryTensor(pool[gen.integers(0, pool.size, size=(3, 1, 3, 3))],
                      precision),
        None,
        TernaryTensor(pool[gen.integers(0, pool.size, size=(12, n_out))],
                      precision),
        None,
    ]
    return NetworkDescription(precision, (1, 4, 4), layers, weights)


class TestNetworkDescription:
    def test_lenet_chains_to_ten_classes(self):
        net = lenet(Precision.BINARY)
        assert net.plan[-1].out_shape == (10,)
        assert [op.index for op in net.plan] == list(range(len(net.layers)))
        assert [type(l).__name__ for l in net.layers][:3] == \
            ["Conv2D", "Activation", "MaxPool2D"]

    def test_scales_are_sqrt_fan_in(self):
        net = lenet(Precision.BINARY)
        assert net.plan[1].scale == pytest.approx(np.sqrt(200), rel=1e-5)
        assert net.plan[11].scale == pytest.approx(np.sqrt(84), rel=1e-5)
        # the nudge keeps r * scale off the popcount lattice even for
        # perfectly square fan-ins (dense 400 -> scale just above 20)
        assert net.plan[7].scale > np.sqrt(400)
        # a conv/dense layer carries the scale of its activation
        assert net.plan[6].scale == net.plan[7].scale

    def test_wrong_weight_shape_rejected(self):
        net = tiny_net()
        bad = TernaryTensor(np.ones((2, 2), dtype=np.int8), Precision.TERNARY)
        with pytest.raises(ShapeError):
            NetworkDescription(net.precision, net.input_shape, net.layers,
                               [bad] + net.weights[1:])

    def test_precision_mismatch_rejected(self):
        net = tiny_net(Precision.TERNARY)
        with pytest.raises(ConfigError):
            NetworkDescription(Precision.BINARY, net.input_shape, net.layers,
                               net.weights)

    def test_missing_weights_gate(self):
        arch = lenet(Precision.BINARY)  # no weights attached
        with pytest.raises(ConfigError):
            arch.require_weights()
        with pytest.raises(ConfigError):
            forward_ideal(arch, np.ones(arch.input_shape, dtype=np.int8))


class TestForwardIdeal:
    def test_scores_shape_and_finiteness(self):
        net = tiny_net()
        gen = np.random.default_rng(3)
        x = gen.choice([-1, 0, 1], size=(1, 4, 4)).astype(np.int8)
        s = forward_ideal(net, x)
        assert s.shape == (10,)
        assert np.all(np.isfinite(s))
        assert np.all((s > 0) & (s < 1))

    def test_single_dense_reproduces_popcount(self):
        # identity-free check: a 1-layer net's scores are the sigmoid of the
        # scaled popcount of input against each weight column
        gen = np.random.default_rng(4)
        w = gen.choice([-1, 0, 1], size=(16, 10)).astype(np.int8)
        net = NetworkDescription(
            Precision.TERNARY, (1, 4, 4),
            [Dense(10), Activation("sigmoid_output")],
            [TernaryTensor(w, Precision.TERNARY), None])
        x = gen.choice([-1, 0, 1], size=(1, 4, 4)).astype(np.int8)
        s = forward_ideal(net, x)
        scale = net.plan[1].scale
        for c in range(10):
            pc = popcount_oracle(x.ravel(), w[:, c])
            assert s[c] == pytest.approx(sigmoid_ideal(pc / scale), abs=1e-15)

    def test_binary_net_rejects_ternary_input(self):
        net = tiny_net(Precision.BINARY)
        x = np.zeros((1, 4, 4), dtype=np.int8)
        with pytest.raises(DomainError):
            forward_ideal(net, x)

    def test_deterministic(self):
        net = tiny_net()
        x = np.ones((1, 4, 4), dtype=np.int8)
        np.testing.assert_array_equal(forward_ideal(net, x),
                                      forward_ideal(net, x))

    def test_shape_mismatch(self):
        net = tiny_net()
        with pytest.raises(ShapeError):
            forward_ideal(net, np.ones((1, 5, 5), dtype=np.int8))

    def test_lenet_runs_end_to_end(self):
        from oxcim.train import Trainer
        net = Trainer(lenet(Precision.TERNARY)).network()
        gen = np.random.default_rng(5)
        x = gen.choice([-1, 1], size=(8, 32, 32)).astype(np.int8)
        s = forward_ideal(net, x)
        assert s.shape == (10,)
        assert 0 <= predict_ideal(net, x) <= 9
