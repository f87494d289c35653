import dataclasses
import tracemalloc

import numpy as np
import pytest

from oxcim import hardware
from oxcim.crossbar import A_TO_UA, READ_BLOCK_CELLS, CrossbarTile
from oxcim.device import MlcStateModel, DeviceConfig, default_device_config
from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.hardware import (forward_hardware, map_network_to_tiles,
                            predict_hardware)
from oxcim.network import forward_ideal, lenet
from oxcim.quant import Precision
from oxcim.train import TrainConfig, Trainer
from conftest import patches
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
                                          (0, 64), (64,), 64, ((64, 64), 64)])
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
        (np.uint64(2 ** 63), 1), ("3", 1), (True, 1),
        pytest.param(10 ** 5000, 1, id="10**5000")])
    def test_image_ordinal_checked(self, ordinal, n):
        # tiny_net's conv reads 4 patches per image, so the READ-pair ids of
        # n images from ordinal a stay below 2**63 iff (a + n) * 4 <= 2**63.
        # -1 and 2**64 used to end in an OverflowError, 1.5 drew image 1's
        # noise, larger ordinals wrapped their READ ids in uint64, and the
        # message of one too long for str() ended in Python's ValueError
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


def lenet_case(precision, region, batch):
    """(tiled LeNet, trit batch): region "hrs0" is HRS at zero variability;
    a binary batch holds no 0 input, a ternary one about a third."""
    cfg = default_device_config(region.rstrip("0"))
    if region == "hrs0":
        cfg = cfg.with_zero_variability()
    net = Trainer(lenet(precision), TrainConfig(seed=batch)).network()
    gen = np.random.default_rng(batch)
    x = gen.choice(precision.allowed_values, size=(batch, *net.input_shape))
    return map_network_to_tiles(net, cfg), x.astype(np.int8)


def input_major_read(tile, x, pairs):
    """The input-major tile READ, the reference: the (vector, col) sums of
    gates @ [hi | lo] per 128-vector block, -1 sums as totals minus +1
    sums when no input is 0, C2C noise, then the v_read scale."""
    gates = np.stack([x > 0, x < 0])
    out = np.empty((2, len(x), tile.cols))
    for a in range(0, len(x), 128):
        g = gates[:, a:a + 128]
        pos = g[0].astype(np.float64) @ tile._split
        neg = (tile._totals - pos if x.all()
               else g[1].astype(np.float64) @ tile._split)
        for phase, sums in enumerate((pos, neg)):
            out[phase, a:a + 128] = sums[:, :tile.cols] + sums[:, tile.cols:]
        if tile._has_c2c:
            tile._add_c2c(out[:, a:a + 128].transpose(0, 2, 1), x[a:a + 128],
                          np.asarray(pairs[a:a + 128], np.uint64))
    out *= tile.config.v_read * A_TO_UA
    return out[0], out[1]


def input_major_layer_delta(tiled):
    """_layer_delta as it was, for the layers of tiled: (vector, col) deltas
    of column slices of the layer's patch matrix, references averaged by a
    two-column gemv."""
    ops = {id(m): tiled.net.plan[li] for li, m in tiled.mappings.items()}

    def layer_delta(mapping, x, read_pairs):
        p = patches(ops[id(mapping)], x)
        delta = np.zeros((p.shape[0], mapping.cols))
        for pl in mapping.placements:
            t = pl.tile
            xs = p[:, pl.row_start:pl.row_start + t.rows]
            d = np.subtract(*input_major_read(t, xs, read_pairs))
            n = t.cols - 2
            ref = d[:, n:] @ np.full(2, 0.5)
            delta[:, pl.col_start:pl.col_start + n] += d[:, :n] - ref[:, None]
        return delta

    return layer_delta


class TestOutputMajorRead:
    """Tile READs sum columns output-major, split.T @ gates.T, and keep the
    bits of the input-major gates @ split they replaced."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("region", ["hrs0", "hrs", "lrs"])
    @pytest.mark.parametrize("precision", [Precision.BINARY,
                                           Precision.TERNARY])
    def test_forward_keeps_the_input_major_bits(self, monkeypatch, precision,
                                                region, batch):
        tiled, x = lenet_case(precision, region, batch)
        got = forward_hardware(tiled, x, image_ordinal=batch)
        monkeypatch.setattr(hardware, "_layer_delta",
                            input_major_layer_delta(tiled))
        expect = forward_hardware(tiled, x, image_ordinal=batch)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      expect.view(np.uint64))

    @pytest.mark.parametrize("precision", [Precision.BINARY,
                                           Precision.TERNARY])
    def test_one_read_per_tile_per_layer(self, monkeypatch, precision):
        # benchmarks/tracing.py times and counts every vmm_batch call, so a
        # layer must read each of its tiles once, with the whole batch
        tiled, x = lenet_case(precision, "hrs0", 3)
        calls = []
        inner = CrossbarTile.vmm_batch

        def counted(tile, x_batch, read_pairs):
            calls.append((tile.array_id, np.shape(x_batch)))
            return inner(tile, x_batch, read_pairs)

        monkeypatch.setattr(CrossbarTile, "vmm_batch", counted)
        forward_hardware(tiled, x)
        expect = []
        for li, m in tiled.mappings.items():
            gather = tiled.net.plan[li].gather
            P = len(x) * (1 if gather is None else gather.shape[0])
            expect += [(p.tile.array_id, (P, p.tile.rows))
                       for p in m.placements]
        assert calls == expect

    @pytest.mark.parametrize("region, input_major_mib", [("hrs0", 3.61),
                                                         ("hrs", 5.28)])
    def test_forward_working_set(self, region, input_major_mib):
        # An 8-image LeNet-BNN forward peaked at 3.61 MiB at zero
        # variability and 5.28 MiB on HRS with input-major READs.  The
        # output-major READ adds a float64 cast block of READ_BLOCK_CELLS / 2
        # gates (256 KiB) and its (hi and lo, col, vector) sums, 512 KiB at
        # most, on conv1's 8 x 8 tile; the noise pass makes its bool gates
        # block by block, not for the whole batch.
        tiled, x = lenet_case(Precision.BINARY, region, 8)
        forward_hardware(tiled, x)
        tracemalloc.start()
        try:
            forward_hardware(tiled, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        added = 4 * READ_BLOCK_CELLS + 8 * READ_BLOCK_CELLS
        assert peak <= input_major_mib * 2**20 + added


class TestTileMajorInputs:
    """A conv layer's tiles read contiguous slabs of one tile-major buffer,
    a slab per row block; a dense layer's tiles read column slices of its
    input.  Column-split tiles of a row block share its slab."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_each_row_block_reads_one_slab(self, monkeypatch, batch):
        # 48 x 5 tiles: uneven row blocks and 3 data columns, so every
        # layer of LeNet is split both ways
        tiled, x = lenet_case(Precision.TERNARY, "hrs0", batch)
        cfg = default_device_config("hrs").with_zero_variability()
        tiled = map_network_to_tiles(tiled.net, cfg, max_tile=(48, 5))
        inputs, reads = {}, {}
        layer_delta, vmm = hardware._layer_delta, CrossbarTile.vmm_batch

        def spy_layer(mapping, x_layer, read_pairs):
            inputs[id(mapping)] = x_layer
            return layer_delta(mapping, x_layer, read_pairs)

        def spy_read(tile, x_batch, read_pairs):
            reads[tile.array_id] = x_batch
            return vmm(tile, x_batch, read_pairs)

        monkeypatch.setattr(hardware, "_layer_delta", spy_layer)
        monkeypatch.setattr(CrossbarTile, "vmm_batch", spy_read)
        forward_hardware(tiled, x)
        for li, m in tiled.mappings.items():
            op = tiled.net.plan[li]
            expect = patches(op, inputs[id(m)])
            first = reads[m.placements[0].tile.array_id]
            starts = sorted({pl.row_start for pl in m.placements})
            assert len(starts) > 1 and len(m.placements) > len(starts)
            for pl in m.placements:
                slab = reads[pl.tile.array_id]
                r0 = pl.row_start
                np.testing.assert_array_equal(
                    slab, expect[:, r0:r0 + pl.tile.rows])
                lead = next(q for q in m.placements if q.row_start == r0)
                shared = reads[lead.tile.array_id]
                assert (slab.__array_interface__ == shared.__array_interface__
                        and np.shares_memory(slab, shared))
                if op.gather is not None:
                    # back to back in one buffer of the patch matrix's size
                    assert slab.flags.c_contiguous
                    assert slab.base is first.base
                    assert slab.base.size == expect.size
                    assert slab.ctypes.data - first.ctypes.data \
                        == len(expect) * r0
