import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oxcim.bench import encode_images
from oxcim.data import pad_to_32
from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.network import (DEFAULT_THERMO_THRESHOLDS, Activation, Conv2D,
                           Dense, MaxPool2D, NetworkDescription,
                           conv_weight_matrix, exact_preact, forward_ideal,
                           im2col, lenet, maxpool, patches, predict_ideal,
                           thermometric_trits)
from oxcim.quant import Precision, TernaryTensor
from oxcim.device import sigmoid_ideal
from oxcim.quant import popcount_oracle
from oxcim.train import _encode_batch


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


def thermometric_bits(images):
    """The encoder's channel bits: a +1 trit reads as a set bit."""
    return thermometric_trits(images) == 1


class TestThermometric:
    def test_bright_pixel_sets_all_channels(self):
        img = np.full((2, 2), 255, dtype=np.uint8)
        bits = thermometric_bits(img)
        assert bits.shape == (8, 2, 2)
        assert bits.all()

    def test_dark_pixel_sets_none(self):
        img = np.zeros((2, 2), dtype=np.uint8)
        assert not thermometric_bits(img).any()

    def test_mid_gray_sets_four_channels(self):
        img = np.full((1, 1), 128, dtype=np.uint8)
        bits = thermometric_bits(img)
        assert bits[:, 0, 0].sum() == 4  # thresholds 32, 64, 96, 128

    def test_code_is_monotone_per_pixel(self):
        gen = np.random.default_rng(0)
        img = gen.integers(0, 256, size=(16, 16)).astype(np.uint8)
        bits = thermometric_bits(img)
        diffs = np.diff(bits.astype(np.int8), axis=0)
        assert np.all(diffs <= 0)  # once a channel is off, higher stay off

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            thermometric_trits(np.full((2, 2), 300))
        with pytest.raises(DomainError):
            thermometric_trits(np.full((2, 2), -1))

    @pytest.mark.parametrize("bad", [np.full((2, 2), "9"), np.full((2, 2), 9j),
                                     np.full((2, 2), True)])
    def test_non_real_pixels_rejected(self, bad):
        # a string array used to end in a TypeError; complex and bool pixels
        # were encoded
        with pytest.raises(DomainError, match="pixel values must be real"):
            thermometric_trits(bad)

    def test_trits_map_zero_to_minus_one(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        trits = thermometric_trits(img)
        assert set(np.unique(trits)) <= {-1, 1}
        assert np.all(trits[:, 0, 0] == -1)
        assert np.all(trits[:, 0, 1] == 1)


class TestBatchEncoder:
    @pytest.mark.parametrize("n", [1, 3, 17])
    def test_batch_equals_per_image_loop(self, n):
        gen = np.random.default_rng(n)
        images = gen.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        trits = thermometric_trits(images)
        padded = [encode(images) for encode in (encode_images, _encode_batch)]
        assert trits.shape == (n, 8, 28, 28)
        assert trits.dtype == np.int8
        thr = np.reshape(DEFAULT_THERMO_THRESHOLDS, (-1, 1, 1))
        for i, img in enumerate(images):
            np.testing.assert_array_equal(trits[i], thermometric_trits(img))
            np.testing.assert_array_equal(trits[i], (img >= thr) * 2 - 1)
            for enc in padded:
                np.testing.assert_array_equal(
                    enc[i], thermometric_trits(pad_to_32(img)))

    def test_single_image_keeps_its_shape(self):
        img = np.arange(35, dtype=np.uint8).reshape(5, 7) * 7
        assert thermometric_trits(img).shape == (8, 5, 7)

    @pytest.mark.parametrize("value", [256, -1, np.nan])
    def test_out_of_range_pixel_anywhere_in_batch_rejected(self, value):
        images = np.zeros((4, 6, 6))
        images[2, 5, 3] = value
        with pytest.raises(DomainError):
            thermometric_trits(images)

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            thermometric_trits(np.zeros(4))

    @pytest.mark.parametrize("encode", [encode_images, _encode_batch])
    def test_allocates_little_beyond_the_output(self, encode):
        n = 64
        images = np.random.default_rng(0).integers(
            0, 256, size=(n, 28, 28), dtype=np.uint8)
        tracemalloc.start()
        try:
            out = encode(images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, 8, 32, 32) and out.dtype == np.int8
        # the int8 output, the padded images and one N x 32 x 32 bool check
        assert peak <= out.nbytes + 2 * n * 32 * 32 + 64 * 2**10


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

    def test_zero_kernel_rejected(self):
        # used to return an empty patch matrix
        with pytest.raises(ConfigError, match="kernel"):
            im2col(np.zeros((1, 4, 4), dtype=np.int8), 0)

    def test_zero_stride_rejected(self):
        # used to end in numpy's ValueError from a zero slice step
        with pytest.raises(ConfigError, match="stride"):
            im2col(np.zeros((1, 4, 4), dtype=np.int8), 2, 0)

    def test_map_without_channels_rejected(self):
        # used to end in a ValueError from unpacking the shape
        with pytest.raises(ShapeError, match="im2col needs"):
            im2col(np.zeros((4, 4), dtype=np.int8), 2)

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


@st.composite
def conv_cases(draw):
    """(conv op, dense op after it, layer input, conv weights): random
    shapes with trits that hold zeros, weights as int8 or float64."""
    c, h, w = (draw(st.integers(1, 3)), draw(st.integers(1, 9)),
               draw(st.integers(1, 9)))
    k = draw(st.integers(1, min(h, w)))
    layers = [Conv2D(draw(st.integers(1, 4)), k, draw(st.integers(1, 3))),
              Activation("ternary"), Dense(2), Activation("sigmoid_output")]
    net = NetworkDescription(Precision.TERNARY, (c, h, w), layers,
                             [None] * len(layers))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = gen.integers(-1, 2, size=(draw(st.integers(1, 4)), c, h, w),
                     dtype=np.int8)
    wt = gen.integers(-1, 2, size=net.plan[0].weight_shape) \
        .astype(draw(st.sampled_from([np.int8, np.float64])))
    return net.plan[0], net.plan[2], x, wt


class TestExactPreact:
    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(conv_cases())
    def test_equals_the_integer_patch_product(self, case):
        conv, dense, x, wt = case
        pc = patches(conv, x).astype(np.int64) \
            @ conv_weight_matrix(wt).astype(np.int64)
        u = exact_preact(conv, x, wt)
        o, oh, ow = conv.out_shape
        assert u.dtype == np.float64 and u.shape == (len(x), oh, ow, o)
        np.testing.assert_array_equal(u.reshape(pc.shape).view(np.uint64),
                                      (pc / conv.scale).view(np.uint64))
        # the dense layer after it reads the conv's trits, flattened
        a = np.sign(pc).astype(np.int8).reshape(len(x), -1)
        wd = np.resize(wt.ravel(), dense.weight_shape)
        np.testing.assert_array_equal(
            exact_preact(dense, a, wd).view(np.uint64),
            (a.astype(np.int64) @ wd.astype(np.int64) / dense.scale)
            .view(np.uint64))


class TestMaxPool:
    def test_zero_size_rejected(self):
        # used to end in a ZeroDivisionError
        with pytest.raises(ConfigError, match="pool size"):
            maxpool(np.zeros((1, 4, 4), dtype=np.int8), 0)

    def test_map_without_channels_rejected(self):
        # a 2-D map used to be pooled as if it were one channel's rows
        with pytest.raises(ShapeError, match="maxpool needs"):
            maxpool(np.zeros((4, 4), dtype=np.int8), 2)

    def test_trit_ordering(self):
        x = np.array([[[-1, 0], [0, -1]]], dtype=np.int8)
        np.testing.assert_array_equal(maxpool(x, 2), [[[0]]])

    def test_plus_one_dominates(self):
        x = np.array([[[-1, 1], [0, -1]]], dtype=np.int8)
        np.testing.assert_array_equal(maxpool(x, 2), [[[1]]])

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            maxpool(np.zeros((1, 5, 4), dtype=np.int8), 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_equals_window_reduction(self, dtype, size):
        x = np.random.default_rng(size).integers(
            -1, 2, size=(3, 4, 6, 12)).astype(dtype)
        ref = x.reshape(3, 4, 6 // size, size, 12 // size, size) \
            .max(axis=(3, 5))
        got = maxpool(x, size)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, ref)


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

    @pytest.mark.parametrize("at, layer", [(1, Activation("ternary")),
                                           (2, MaxPool2D(1))])
    def test_weights_on_a_layer_without_weights_rejected(self, at, layer):
        net = tiny_net(Precision.TERNARY)
        with pytest.raises(ConfigError, match="carries no weights"):
            NetworkDescription(net.precision, net.input_shape,
                               net.layers[:at] + [layer] + net.layers[at:],
                               net.weights[:at] + net.weights[:1]
                               + net.weights[at:])

    @pytest.mark.parametrize("make", [
        lambda: Conv2D(2.5, 5), lambda: Dense(10.5),
        lambda: Conv2D(2, 5, stride=1.5), lambda: MaxPool2D(2.0),
        lambda: Dense(True)],
        ids=["conv_channels", "dense", "stride", "pool", "bool"])
    def test_non_integer_sizes_rejected(self, make):
        # Conv2D(2.5, 5) and Dense(10.5) used to build a plan whose training
        # ended in a TypeError, and stride 1.5 a TypeError inside im2col
        with pytest.raises(ConfigError, match="must be an integer"):
            make()

    @pytest.mark.parametrize("dims", [(1.5, 8, 8), (1, True, 4), (1, 4, 4.0)])
    def test_non_integer_input_dims_rejected(self, dims):
        # (1.5, 8, 8) used to pass
        with pytest.raises(ConfigError, match="input dimension must be an "
                                              "integer"):
            NetworkDescription(Precision.BINARY, dims, [Dense(10),
                               Activation("sigmoid_output")], [None, None])

    @pytest.mark.parametrize("r", [float("inf"), float("nan"), 0.0, -0.5])
    def test_ternary_dead_band_checked_at_construction(self, r):
        # r = inf used to build, and raise only at the first forward pass
        with pytest.raises(DomainError, match="finite and > 0"):
            Activation("ternary", r)

    @pytest.mark.parametrize("r", ["0.5", None, True])
    def test_ternary_dead_band_must_be_a_real(self, r):
        # "0.5" and None used to end in a TypeError, and True built as r = 1
        with pytest.raises(DomainError, match="ternary threshold must be a "
                                              "real number"):
            Activation("ternary", r)

    def test_oversized_conv_input_fails_before_allocating(self):
        # the second conv's gather is 2 offsets, but its input holds 8 Mi
        # values, whose offsets the plan used to allocate (64 MiB)
        layers = [Conv2D(2, 1), Activation("binary"),
                  Conv2D(1, 1, stride=2048), Activation("binary"),
                  Dense(10), Activation("sigmoid_output")]
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="of 8388608 inputs"):
                NetworkDescription(Precision.BINARY, (1, 2048, 2048), layers,
                                   [None] * len(layers))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20  # the first conv's 32 MiB of offsets

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
