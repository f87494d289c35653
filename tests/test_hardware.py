import dataclasses

import numpy as np
import pytest

from oxcim.device import MlcStateModel, DeviceConfig
from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.hardware import (forward_hardware, map_network_to_tiles,
                            predict_hardware)
from oxcim.network import forward_ideal, lenet
from oxcim.quant import Precision
from test_network import tiny_net


def affine_config(a=9e-6, b=11e-6, d2d=0.0, c2c=0.0, seed=1):
    states = {t: MlcStateModel(f"s{t:+d}", b + a * t, d2d, c2c)
              for t in (-1, 0, 1)}
    return DeviceConfig("HRS", states, v_read=0.2, seed=seed)


class TestMapping:
    def test_lenet_tile_partition(self):
        from oxcim.train import Trainer
        net = Trainer(lenet(Precision.BINARY)).network()
        tiled = map_network_to_tiles(net, affine_config(), max_tile=(64, 64))
        m = tiled.mappings[0]           # conv1: 200 x 6 lowered matrix
        assert m.rows == 200 and m.cols == 6
        assert len(m.placements) == 4   # ceil(200 / 64) row blocks, 1 col block
        assert [p.row_start for p in m.placements] == [0, 64, 128, 192]
        d1 = tiled.mappings[6]          # dense 400 -> 120
        assert d1.rows == 400 and d1.cols == 120
        assert len(d1.placements) == 7 * 2

    def test_small_matrix_single_tile(self):
        net = tiny_net()
        tiled = map_network_to_tiles(net, affine_config())
        assert all(len(m.placements) == 1 for m in tiled.mappings.values())

    def test_same_config_same_cells(self):
        net = tiny_net()
        cfg = dataclasses.replace(affine_config(), states={
            t: MlcStateModel(f"s{t}", 11e-6 + 9e-6 * t, 1e-6, 0.0)
            for t in (-1, 0, 1)})
        t1 = map_network_to_tiles(net, cfg)
        t2 = map_network_to_tiles(net, cfg)
        for a, b in zip(t1.all_cells(), t2.all_cells()):
            np.testing.assert_array_equal(a[1], b[1])

    def test_seed_changes_cells(self):
        net = tiny_net()
        noisy = {t: MlcStateModel(f"s{t}", 11e-6 + 9e-6 * t, 1e-6, 0.0)
                 for t in (-1, 0, 1)}
        c1 = dataclasses.replace(affine_config(), states=noisy, seed=1)
        c2 = dataclasses.replace(affine_config(), states=noisy, seed=2)
        g1 = next(iter(map_network_to_tiles(net, c1).all_cells()))[1]
        g2 = next(iter(map_network_to_tiles(net, c2).all_cells()))[1]
        assert not np.array_equal(g1, g2)

    def test_missing_weights_config_error(self):
        arch = lenet(Precision.BINARY)
        with pytest.raises(ConfigError):
            map_network_to_tiles(arch, affine_config())

    def test_binary_net_on_two_state_config(self):
        cfg = DeviceConfig("HRS", {-1: MlcStateModel("lo", 2e-6),
                                   1: MlcStateModel("hi", 20e-6)})
        net = tiny_net(Precision.BINARY)
        tiled = map_network_to_tiles(net, cfg)
        x = np.random.default_rng(0).choice([-1, 1], size=(1, 4, 4)).astype(np.int8)
        assert 0 <= predict_hardware(tiled, x) <= 9

    def test_ternary_net_needs_zero_state(self):
        cfg = DeviceConfig("HRS", {-1: MlcStateModel("lo", 2e-6),
                                   1: MlcStateModel("hi", 20e-6)})
        with pytest.raises(ConfigError):
            map_network_to_tiles(tiny_net(Precision.TERNARY), cfg)

    @pytest.mark.parametrize("max_tile", [(64.5, 64), (64, 64.0), (2, 2),
                                          (0, 64), (64,), 64])
    def test_bad_max_tile_rejected(self, max_tile):
        # (64.5, 64) used to end in a TypeError from range()
        with pytest.raises(ConfigError, match="max tile"):
            map_network_to_tiles(tiny_net(), affine_config(), max_tile)


class TestForwardHardware:
    def test_deterministic_given_seed_and_ordinal(self):
        net = tiny_net()
        tiled = map_network_to_tiles(net, dataclasses.replace(
            affine_config(), states={
                t: MlcStateModel(f"s{t}", 11e-6 + 9e-6 * t, 0.5e-6, 0.5e-6)
                for t in (-1, 0, 1)}))
        x = np.random.default_rng(1).choice([-1, 0, 1], size=(1, 4, 4)) \
            .astype(np.int8)
        a = forward_hardware(tiled, x, image_ordinal=3)
        b = forward_hardware(tiled, x, image_ordinal=3)
        np.testing.assert_array_equal(a, b)
        c = forward_hardware(tiled, x, image_ordinal=4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("ordinal, n", [
        (-1, 1), (1.5, 1), (2 ** 64, 1), (2 ** 61, 1), (2 ** 61 - 1, 2),
        (np.uint64(2 ** 63), 1), ("3", 1)])
    def test_image_ordinal_checked(self, ordinal, n):
        # tiny_net's conv reads 4 patches per image, so the READ-pair ids of
        # n images from ordinal a stay below 2**63 iff (a + n) * 4 <= 2**63.
        # -1 and 2**64 used to end in an OverflowError, 1.5 drew image 1's
        # noise, and larger ordinals wrapped their READ ids in uint64
        tiled = map_network_to_tiles(tiny_net(), affine_config(c2c=1e-6))
        x = np.ones((n, 1, 4, 4), dtype=np.int8)
        with pytest.raises(ConfigError, match="image ordinal"):
            forward_hardware(tiled, x, image_ordinal=ordinal)

    def test_largest_image_ordinal_reads(self):
        tiled = map_network_to_tiles(tiny_net(), affine_config(c2c=1e-6))
        x = np.ones((2, 1, 4, 4), dtype=np.int8)
        last = forward_hardware(tiled, x, image_ordinal=2 ** 61 - 2)
        np.testing.assert_array_equal(
            last[1], forward_hardware(tiled, x[1], image_ordinal=2 ** 61 - 1))
        assert not np.array_equal(last[1], forward_hardware(tiled, x[1]))

    def test_non_numeric_input_rejected(self):
        # an object array used to end in a TypeError inside the trit check
        net = tiny_net()
        x = np.full((1, 4, 4), None)
        with pytest.raises(DomainError, match="must be numbers"):
            forward_hardware(map_network_to_tiles(net, affine_config()), x)
        with pytest.raises(DomainError, match="must be numbers"):
            forward_ideal(net, x)

    def test_zero_input_all_neuron_voltages_equal(self):
        net = tiny_net(Precision.TERNARY)
        tiled = map_network_to_tiles(net, affine_config())
        v = forward_hardware(tiled, np.zeros((1, 4, 4), dtype=np.int8))
        # all deltas zero -> every class sees the same neuron voltage,
        # and the argmax tie resolves to class 0
        assert np.all(v == v[0])
        assert predict_hardware(tiled, np.zeros((1, 4, 4), dtype=np.int8)) == 0

    def test_zero_variability_balanced_input_matches_ideal_exactly(self):
        # a dense layer sees the whole input as one patch; balancing the
        # +1/-1 counts cancels the conductance-offset imbalance term, so the
        # zero-noise hardware scores must rank exactly like the ideal ones
        from oxcim.network import Activation, Dense, NetworkDescription
        from oxcim.quant import TernaryTensor
        from oxcim.device import sigmoid_neuron_voltage

        gen = np.random.default_rng(7)
        w = gen.choice([-1, 0, 1], size=(16, 10)).astype(np.int8)
        net = NetworkDescription(
            Precision.TERNARY, (1, 4, 4),
            [Dense(10), Activation("sigmoid_output")],
            [TernaryTensor(w, Precision.TERNARY), None])
        tiled = map_network_to_tiles(net, affine_config())
        from oxcim.quant import popcount_oracle
        scale = net.plan[1].scale
        for k in range(20):
            x = np.array([1] * 6 + [-1] * 6 + [0] * 4, dtype=np.int8)
            gen.shuffle(x)
            x = x.reshape(1, 4, 4)
            v = forward_hardware(tiled, x, k)
            scores = forward_ideal(net, x)
            pcs = np.array([popcount_oracle(x.ravel(), w[:, c])
                            for c in range(10)])
            best = np.flatnonzero(pcs == pcs.max())
            assert int(np.argmax(v)) in best
            assert int(np.argmax(scores)) in best
            # per class, the neuron sits at the ideal scaled popcount
            for c in range(10):
                expect = sigmoid_neuron_voltage(pcs[c] / scale)
                assert v[c] == pytest.approx(expect, rel=1e-12)

    def test_tiling_invariance_zero_noise(self):
        # splitting into tiny tiles must not change the digital partial sum
        net = tiny_net(Precision.TERNARY, seed=8)
        cfg = affine_config()
        x = np.random.default_rng(9).choice([-1, 0, 1], size=(1, 4, 4)) \
            .astype(np.int8)
        whole = forward_hardware(map_network_to_tiles(net, cfg, (64, 64)), x)
        # smallest legal tile: one data column plus the two reference columns
        split = forward_hardware(map_network_to_tiles(net, cfg, (2, 3)), x)
        np.testing.assert_allclose(whole, split, rtol=0, atol=1e-12)

    def test_voltage_range_is_neuron_range(self):
        net = tiny_net()
        tiled = map_network_to_tiles(net, affine_config())
        gen = np.random.default_rng(11)
        for k in range(5):
            x = gen.choice([-1, 0, 1], size=(1, 4, 4)).astype(np.int8)
            v = forward_hardware(tiled, x, k)
            assert np.all(v >= 0.1) and np.all(v <= 0.1 + 1.5156)


@pytest.mark.parametrize("precision", [Precision.BINARY, Precision.TERNARY])
def test_both_passes_refuse_values_outside_the_precision(precision):
    # 257 and -255 wrap to +1 in int8 and 0.5 truncates to 0: the values
    # must be checked before the cast, and on the analog pass as well
    net = tiny_net(precision, seed=12)
    tiled = map_network_to_tiles(net, affine_config())
    bad = [5, 257, -255, 0.5] + ([0] if precision is Precision.BINARY else [])
    for value in bad:
        x = np.full((1, 4, 4), value)
        with pytest.raises(DomainError):
            forward_ideal(net, x)
        with pytest.raises(DomainError):
            forward_hardware(tiled, x)


@pytest.mark.parametrize("precision", [Precision.BINARY, Precision.TERNARY])
def test_both_passes_refuse_an_empty_batch(precision):
    net = tiny_net(precision, seed=13)
    tiled = map_network_to_tiles(net, affine_config())
    x = np.zeros((0, 1, 4, 4), dtype=np.int8)
    with pytest.raises(ShapeError, match="no images"):
        forward_ideal(net, x)
    with pytest.raises(ShapeError, match="no images"):
        forward_hardware(tiled, x)
