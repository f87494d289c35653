"""Property tests of the layer walk on random small networks.

Each example builds a random conv/pool/dense chain at binary or ternary
precision, with random trit weights and inputs.  The seeds are fixed before
the run (derandomize=True), so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oxcim.device import DeviceConfig, MlcStateModel, sigmoid_ideal
from oxcim.hardware import forward_hardware, map_network_to_tiles
from oxcim.network import (SCALE_NUDGE, Activation, Conv2D, Dense, MaxPool2D,
                           NetworkDescription, forward_ideal)
from oxcim.quant import Precision, TernaryTensor
from test_network import direct_conv2d

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def small_nets(draw):
    """(net, seed): a random valid chain with its trit weights attached."""
    precision = draw(st.sampled_from([Precision.BINARY, Precision.TERNARY]))
    hid = "binary" if precision is Precision.BINARY else "ternary"
    r = draw(st.sampled_from([0.25, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    trits = np.asarray(precision.allowed_values, dtype=np.int8)

    def weights(shape):
        return TernaryTensor(trits[gen.integers(0, trits.size, size=shape)],
                             precision)

    input_shape = (draw(st.integers(1, 3)), draw(st.integers(3, 9)),
                   draw(st.integers(3, 9)))
    c, h, w = input_shape
    layers, ws = [], []
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, min(3, h, w)))
        stride = draw(st.integers(1, 2))
        out = draw(st.integers(1, 4))
        layers += [Conv2D(out, k, stride), Activation(hid, r)]
        ws += [weights((out, c, k, k)), None]
        c, h, w = out, (h - k) // stride + 1, (w - k) // stride + 1
        sizes = [s for s in (2, 3) if h % s == 0 and w % s == 0]
        if sizes and draw(st.booleans()):
            size = draw(st.sampled_from(sizes))
            layers.append(MaxPool2D(size))
            ws.append(None)
            h, w = h // size, w // size
    fan_in = c * h * w
    for out in [draw(st.integers(1, 8)) for _ in range(draw(st.integers(0, 2)))]:
        layers += [Dense(out), Activation(hid, r)]
        ws += [weights((fan_in, out)), None]
        fan_in = out
    out = draw(st.integers(1, 5))
    layers += [Dense(out), Activation("sigmoid_output")]
    ws += [weights((fan_in, out)), None]
    return NetworkDescription(precision, input_shape, layers, ws), seed


def random_inputs(net, seed, n):
    gen = np.random.default_rng(seed + 1)
    trits = np.asarray(net.precision.allowed_values, dtype=np.int8)
    return trits[gen.integers(0, trits.size, size=(n, *net.input_shape))]


def loop_maxpool(x, size):
    c, h, w = x.shape
    out = np.empty((c, h // size, w // size), dtype=x.dtype)
    for cc in range(c):
        for i in range(h // size):
            for j in range(w // size):
                out[cc, i, j] = max(int(v) for v in x[cc, i * size:(i + 1) * size,
                                                      j * size:(j + 1) * size].ravel())
    return out


def oracle_scores(net, x):
    """Nested-loop popcounts, loop pooling and scaled sign/dead-band decisions."""
    val = x.astype(np.int64)
    for layer, w in zip(net.layers, net.weights):
        if isinstance(layer, Conv2D):
            fan_in = val.shape[0] * layer.kernel ** 2
            pre = direct_conv2d(val, w.data, layer.stride)
        elif isinstance(layer, Dense):
            flat = val.ravel()
            fan_in = flat.size
            pre = np.array([sum(int(a) * int(b) for a, b in zip(flat, w.data[:, o]))
                            for o in range(layer.out_units)], dtype=np.int64)
        elif isinstance(layer, MaxPool2D):
            val = loop_maxpool(val, layer.size)
        else:
            u = pre / (np.sqrt(fan_in) * SCALE_NUDGE)
            if layer.kind == "sigmoid_output":
                return sigmoid_ideal(u)
            if layer.kind == "binary":
                val = np.where(u >= 0, 1, -1)
            else:
                val = (u > layer.r).astype(np.int64) - (u < -layer.r)
    raise AssertionError("no output layer")


@PROPERTY
@given(small_nets())
def test_exact_pass_equals_nested_loop_oracle(net_seed):
    net, seed = net_seed
    for x in random_inputs(net, seed, 2):
        np.testing.assert_array_equal(forward_ideal(net, x),
                                      oracle_scores(net, x))


# D2D and C2C spread on every state, so every READ draws keyed noise
NOISY = DeviceConfig("HRS", {t: MlcStateModel(f"s{t:+d}", 11e-6 + 9e-6 * t,
                                              0.3e-6, 0.3e-6)
                             for t in (-1, 0, 1)}, v_read=0.2, seed=3)


@PROPERTY
@given(small_nets(), st.integers(1, 4), st.integers(0, 1000))
def test_a_batch_gives_the_bits_of_one_run_per_image(net_seed, n, ordinal):
    net, seed = net_seed
    xs = random_inputs(net, seed, n)
    np.testing.assert_array_equal(
        forward_ideal(net, xs), np.stack([forward_ideal(net, x) for x in xs]))
    # small tiles split rows and columns; image i of the batch reads with
    # ordinal + i, exactly like its own call
    tiled = map_network_to_tiles(net, NOISY, max_tile=(5, 4))
    np.testing.assert_array_equal(
        forward_hardware(tiled, xs, image_ordinal=ordinal),
        np.stack([forward_hardware(tiled, x, image_ordinal=ordinal + i)
                  for i, x in enumerate(xs)]))
