import dataclasses
import hashlib
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oxcim import crossbar, rng
from oxcim.crossbar import (A_TO_UA, READ_BLOCK_CELLS, CrossbarTile,
                            sense_to_activation)
from oxcim.device import DeviceConfig, MlcStateModel, default_device_config
from oxcim.errors import ConfigError, DomainError, ShapeError
from oxcim.network import Activation
from oxcim.quant import popcount_oracle

TRITS = (-1, 0, 1)


def affine_config(a=9e-6, b=11e-6, v_read=0.2, d2d=0.0, c2c=0.0, seed=0):
    """States G(w) = a*w + b, the affine trit -> conductance map."""
    states = {t: MlcStateModel(f"s{t:+d}", b + a * t, d2d, c2c)
              for t in (-1, 0, 1)}
    return DeviceConfig("HRS", states, v_read=v_read, seed=seed)


def read_one(tile, x, read_pair=0):
    """(i_pos, i_neg) of one input vector, read as a batch of one."""
    i_pos, i_neg = tile.vmm_batch(np.asarray(x, dtype=np.int8)[None],
                                  [read_pair])
    return i_pos[0], i_neg[0]


def delta_one(tile, x, read_pair=0):
    i_pos, i_neg = read_one(tile, x, read_pair)
    return i_pos - i_neg


class TestReadPhase:
    # a t0 READ with gates g is the input g as 0/+1 trits, seen on i_pos
    def test_all_gates_off(self):
        tile = CrossbarTile(affine_config(), np.ones((4, 3), dtype=np.int8))
        i, _ = read_one(tile, np.zeros(4))
        np.testing.assert_array_equal(i, np.zeros(3))

    def test_single_gate_ohms_law(self):
        # one row on, cell at 100 uS, v_read 0.2 V -> 20 uA
        cfg = DeviceConfig("LRS", {-1: MlcStateModel("lo", 10e-6),
                                   1: MlcStateModel("hi", 100e-6)}, v_read=0.2)
        tile = CrossbarTile(cfg, np.array([[1], [1]], dtype=np.int8))
        gates = np.array([True, False])
        np.testing.assert_allclose(read_one(tile, gates)[0], [20.0])

    def test_two_gates_superpose(self):
        cfg = affine_config()
        tile = CrossbarTile(cfg, np.ones((2, 2), dtype=np.int8))
        one, _ = read_one(tile, [1, 0])
        two, _ = read_one(tile, [1, 1])
        np.testing.assert_allclose(two, 2 * one)

    def test_gate_length_checked(self):
        tile = CrossbarTile(affine_config(), np.ones((4, 2), dtype=np.int8))
        with pytest.raises(ShapeError):
            tile.vmm_batch(np.zeros((1, 3), dtype=np.int8), [0])


def without_c2c(cfg):
    """cfg with its C2C sigmas zeroed; D2D spread and seed kept."""
    states = {t: dataclasses.replace(s, c2c_sigma_S=0.0)
              for t, s in cfg.states.items()}
    return dataclasses.replace(cfg, states=states)


class TestExactColumnSums:
    """The mean term of a READ is the correctly rounded sum of cell_g."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 4),
           span=st.integers(0, 30), d2d=st.sampled_from([0.0, 0.05, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_c2c_currents_equal_fsum(self, rows, cols, span, d2d, seed):
        # -1 and +1 means 2**(span + 1) apart, plus D2D spread, so the lo
        # halves carry bits
        m = 50e-6
        means = {-1: m * 2.0**-(span + 1), 0: m * 2.0**-((span + 1) / 2),
                 1: m}
        cfg = DeviceConfig("HRS", {t: MlcStateModel(f"s{t:+d}", g, d2d * g)
                                   for t, g in means.items()}, seed=seed)
        gen = np.random.default_rng(seed)
        tile = CrossbarTile(cfg, gen.integers(-1, 2, size=(rows, cols)),
                            array_id=3)
        x = gen.integers(-1, 2, size=(40, rows))
        x[gen.random((40, rows)) < gen.random()] = 1  # denser t0 gates
        i_pos, i_neg = tile.vmm_batch(x, np.arange(40))
        scale = cfg.v_read * A_TO_UA
        for p in range(40):
            for c in range(cols):
                assert i_pos[p, c] == \
                    math.fsum(tile.cell_g[x[p] > 0, c]) * scale
                assert i_neg[p, c] == \
                    math.fsum(tile.cell_g[x[p] < 0, c]) * scale

    @pytest.mark.parametrize("rows", [1, 5, 63, 64])
    @pytest.mark.parametrize("c2c", [True, False], ids=["c2c", "no_c2c"])
    def test_lone_read_equals_every_batch(self, rows, c2c):
        cfg = default_device_config("hrs")
        if not c2c:
            cfg = without_c2c(cfg)
        gen = np.random.default_rng(rows)
        tile = CrossbarTile(cfg, gen.integers(-1, 2, size=(rows, 6)),
                            array_id=9)
        x = gen.integers(-1, 2, size=(333, rows))
        pairs = np.arange(1000, 1333)
        k = 200
        lone_pos, lone_neg = read_one(tile, x[k], pairs[k])
        for n in (1, 2, 7, 50, 333):
            s = min(k - n // 2, 333 - n)
            i_pos, i_neg = tile.vmm_batch(x[s:s + n], pairs[s:s + n])
            np.testing.assert_array_equal(i_pos[k - s], lone_pos)
            np.testing.assert_array_equal(i_neg[k - s], lone_neg)

    @pytest.mark.parametrize("rows, span, fits", [
        (64, 42, True), (64, 43, False), (8, 48, True), (8, 49, False)])
    def test_column_span_bound(self, rows, span, fits):
        # exponents of the two means differ by span; an exact sum of rows
        # entries allows a difference of 54 - 2 * ceil(log2(rows))
        hi = np.nextafter(2.0**-10, 0.0)  # full mantissa, so lo != 0
        lo = np.nextafter(2.0**-(10 + span), 0.0)
        cfg = DeviceConfig("HRS", {-1: MlcStateModel("lo", lo),
                                   1: MlcStateModel("hi", hi)})
        w = np.ones((rows, 2), dtype=np.int8)
        w[0, 0] = -1  # column 0 holds both states, column 1 only one
        if not fits:
            with pytest.raises(ConfigError, match="column 0"):
                CrossbarTile(cfg, w)
            return
        tile = CrossbarTile(cfg, w)
        x = np.ones((1, rows), dtype=np.int8)
        i_pos, _ = tile.vmm_batch(x, [0])
        for c in range(2):
            assert i_pos[0, c] == \
                math.fsum(tile.cell_g[:, c]) * (cfg.v_read * A_TO_UA)


class TestBlockedRead:
    """A READ walks its patterns in READ_BLOCK_CELLS-sized blocks."""

    def test_blocked_batch_equals_one_call_per_pattern(self):
        # 37 x 5 cells: blocks of 354 vectors, the last one partial
        gen = np.random.default_rng(12)
        tile = CrossbarTile(default_device_config("hrs"),
                            gen.integers(-1, 2, size=(37, 5)), array_id=5)
        P = 3 * READ_BLOCK_CELLS // (37 * 5) + 100
        x = gen.integers(-1, 2, size=(P, 37)).astype(np.int8)
        pairs = np.arange(P) + 77
        i_pos, i_neg = tile.vmm_batch(x, pairs)
        for p in range(P):
            lone_pos, lone_neg = read_one(tile, x[p], pairs[p])
            np.testing.assert_array_equal(i_pos[p], lone_pos)
            np.testing.assert_array_equal(i_neg[p], lone_neg)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(block=st.integers(0, 15).flatmap(  # log-uniform in 1..2**16
               lambda k: st.integers(2**k, 2**(k + 1))),
           rows=st.integers(1, 70),
           cols=st.integers(1, 9), P=st.integers(1, 40),
           region=st.sampled_from(["hrs0", "hrs", "lrs"]),
           zeros=st.booleans(), seed=st.integers(0, 2**16))
    def test_any_block_size_reads_each_vector_alone(self, block, rows, cols,
                                                    P, region, zeros, seed):
        # cast blocks of block // (2 * rows) vectors and noise blocks of
        # block // (rows * cols) cut the batch at varied offsets
        cfg = default_device_config(region.rstrip("0"))
        if region == "hrs0":
            cfg = cfg.with_zero_variability()
        gen = np.random.default_rng(seed)
        tile = CrossbarTile(cfg, gen.integers(-1, 2, size=(rows, cols)),
                            array_id=seed)
        x = gen.integers(-1 if zeros else 0, 2, size=(P, rows)).astype(np.int8)
        if not zeros:
            x[x == 0] = -1
        pairs = gen.integers(0, 2**40, size=P)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crossbar, "READ_BLOCK_CELLS", block)
            i_pos, i_neg = tile.vmm_batch(x, pairs)
        for p in range(P):
            lone_pos, lone_neg = read_one(tile, x[p], pairs[p])
            np.testing.assert_array_equal(i_pos[p].view(np.uint64),
                                          lone_pos.view(np.uint64))
            np.testing.assert_array_equal(i_neg[p].view(np.uint64),
                                          lone_neg.view(np.uint64))

    def test_working_memory_is_bounded(self):
        # an 8-image conv1 chunk on a 64 x 8 HRS tile, every row gated in
        # the first READ: without blocks each noise array takes 25 MB
        gen = np.random.default_rng(13)
        tile = CrossbarTile(default_device_config("hrs"),
                            gen.integers(-1, 2, size=(64, 8)), array_id=6)
        x = np.ones((6272, 64), dtype=np.int8)
        tracemalloc.start()
        try:
            i_pos, i_neg = tile.vmm_batch(x, np.arange(6272))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= i_pos.nbytes + i_neg.nbytes + 4 * 2**20


# sha256 of i_pos and i_neg bytes for pinned_read(region, rows, zeros),
# recorded before the two READs of a pair shared one pass; "hrs0" is the
# HRS config at zero variability
READ_PINS = {
    ("hrs", 1, True): "c57b6eeaf899bc91392bf20a296512ad11cfa898348967eda2827b5e8f18c828",
    ("hrs", 1, False): "8df77c91afa091fad8bf1f52ae16aa8a4cfb82225b888a040f4fd401f7b85885",
    ("hrs", 8, True): "31bb23b5921d58f172c6359b23dd31390ff59aba087d6827539f86a830e7d3d3",
    ("hrs", 8, False): "3b14ae1501835ac6efa1c32fc015c03b9512f0e0e86bc6e87907a7b299251b98",
    ("hrs", 37, True): "b5cd54d4873120e7125082c3bf90df7ec57b449dc549145f26c740be09f0a848",
    ("hrs", 37, False): "3d60e1e6ce3a96afbe025c6e048d56551c69fb954b1cd99a2b9686c98e183ee6",
    ("hrs", 64, True): "a04a74ba489fc995d09b0f9dadc75dcab3dc611f8f313b6c6c93582c1a806bba",
    ("hrs", 64, False): "42314afef3ca3742961c72a6279829b327ed9f2d95bda1c8c4e7506bd994ff58",
    ("lrs", 1, True): "780c9634ad9af5e5e1cb74c9e905abbb53ad716ddee57e50de4e02c4430c01e4",
    ("lrs", 1, False): "11735fad5fb68444c6e0a5d3adcadd32187b3a18fba414d7a66505df0958cd34",
    ("lrs", 8, True): "8530c95bd0f3d8c2b09aa42a94a53e12335413a4bb6b528ef8d023bb51c05146",
    ("lrs", 8, False): "c27d82ca620e5455ada99e145ebabbd234c61a315df98487b0c24c14037b7a42",
    ("lrs", 37, True): "b55db1f72d4367742deb7897459133d6ee0767f864d8e42fa8ebc45c96509a2e",
    ("lrs", 37, False): "b185e51580ab5488d53250d015028ce649812e8120a4210e279983942770ae73",
    ("lrs", 64, True): "7138167934a82b17268c69b04f3123888ab7939c2fba77407bbed97a8385a834",
    ("lrs", 64, False): "cec21515bd818c31baf3e56c401678359f67e2c39510ad5d212372f24d63c899",
    ("hrs0", 1, True): "01d1c5f519e6d31147f95ef46812ea9cfdbb5e7af0076573cbdb6db4223e3a2f",
    ("hrs0", 1, False): "c8ad9b81a82264c3207987064ca964ba8a4c4fb38f3aed01820390a290bebb5c",
    ("hrs0", 8, True): "f3ed5af10903386c81f1d4702da4938c053492dc04cb86fbf377f13a8db9253a",
    ("hrs0", 8, False): "fd44709fdd2d53e7e067e7c46d8f05280c39b04e8f46c6962e60df4a49097fa7",
    ("hrs0", 37, True): "c17f431b328a038f0ed8e204e6595ffc9cc33345948b495d0c3d4d0c0d179d46",
    ("hrs0", 37, False): "b080d57e58acc456b8b12d9b85fd9a317503f08e9e374961ec89a96825a7149a",
    ("hrs0", 64, True): "f4582f1d9512ba12964ad1475feb12a917df241344364b095207a053b6d430e4",
    ("hrs0", 64, False): "c777ea8d388bc714db8d7e34385b20b69928ed03e86c9b352f832a2c073b8aba",
}


def pinned_read(region, rows, zeros):
    """One read of a batch that spans at least three 2**16-cell blocks."""
    cfg = default_device_config(region.rstrip("0"))
    if region == "hrs0":
        cfg = cfg.with_zero_variability()
    gen = np.random.default_rng(1000 * rows + 2 * zeros + len(region))
    tile = CrossbarTile(cfg, gen.integers(-1, 2, size=(rows, 8)),
                        array_id=rows + 3)
    P = 3 * 2**16 // (rows * 8) + 17
    x = gen.integers(-1 if zeros else 0, 2, size=(P, rows)).astype(np.int8)
    if not zeros:
        x[x == 0] = -1
    return tile.vmm_batch(x, np.arange(P) + 5 * rows)


class TestPinnedReads:
    @pytest.mark.parametrize("region, rows, zeros", list(READ_PINS))
    def test_currents_keep_their_bits(self, region, rows, zeros):
        i_pos, i_neg = pinned_read(region, rows, zeros)
        digest = hashlib.sha256(i_pos.tobytes() + i_neg.tobytes())
        assert digest.hexdigest() == READ_PINS[region, rows, zeros]

    def test_empty_batch_reads_empty_currents(self):
        tile = CrossbarTile(default_device_config("hrs"),
                            np.ones((4, 3), dtype=np.int8))
        i_pos, i_neg = tile.vmm_batch(np.zeros((0, 4), dtype=np.int8), [])
        assert i_pos.shape == i_neg.shape == (0, 3)


class TestDrawCount:
    """One keyed normal per (READ, gated cell); 0 rows draw none."""

    @pytest.fixture
    def draws(self, monkeypatch):
        sizes = []
        inner = rng.normals_consuming_keys
        monkeypatch.setattr(rng, "normals_consuming_keys",
                            lambda keys: sizes.append(keys.size) or
                            inner(keys))
        return sizes

    @pytest.mark.parametrize("rows, cols", [(1, 3), (37, 5), (64, 8)])
    def test_one_normal_per_gated_cell_per_read(self, draws, rows, cols):
        gen = np.random.default_rng(rows)
        tile = CrossbarTile(default_device_config("hrs"),
                            gen.integers(-1, 2, size=(rows, cols)))
        P = 2 * READ_BLOCK_CELLS // (rows * cols) + 9
        x = gen.integers(-1, 2, size=(P, rows)).astype(np.int8)
        x[: P // 2, : rows // 2] = 0  # some vectors with many 0 rows
        tile.vmm_batch(x, np.arange(P))
        assert sum(draws) == np.count_nonzero(x) * cols
        assert max(draws) <= READ_BLOCK_CELLS

    def test_zero_inputs_draw_nothing(self, draws):
        tile = CrossbarTile(default_device_config("hrs"),
                            np.ones((8, 4), dtype=np.int8))
        i_pos, i_neg = tile.vmm_batch(np.zeros((5, 8), dtype=np.int8),
                                      np.arange(5))
        assert sum(draws) == 0
        assert not i_pos.any() and not i_neg.any()

    def test_c2c_free_tiles_derive_no_noise_keys(self, monkeypatch):
        monkeypatch.setattr(rng, "cell_key_grid", None)
        cfg = default_device_config("hrs").with_zero_variability()
        tile = CrossbarTile(cfg, np.ones((8, 4), dtype=np.int8))
        tile.vmm_batch(np.ones((3, 8), dtype=np.int8), np.arange(3))


class TestVmmTwoPhase:
    def test_worked_example(self):
        cfg = DeviceConfig("LRS", {-1: MlcStateModel("lo", 10e-6),
                                   1: MlcStateModel("hi", 100e-6)}, v_read=0.2)
        w = np.array([[1, 1, -1, -1]], dtype=np.int8).T.reshape(4, 1)
        tile = CrossbarTile(cfg, w)
        i_pos, i_neg = read_one(tile, [-1, 0, 0, 1])
        np.testing.assert_allclose(i_pos, [2.0])
        np.testing.assert_allclose(i_neg, [20.0])
        np.testing.assert_allclose(i_pos - i_neg, [-18.0])
        assert np.sign(i_pos[0] - i_neg[0]) == np.sign(
            popcount_oracle([-1, 0, 0, 1], [1, 1, -1, -1]))

    def test_zero_input_zero_delta(self):
        tile = CrossbarTile(affine_config(), np.ones((6, 4), dtype=np.int8))
        np.testing.assert_array_equal(delta_one(tile, np.zeros(6)),
                                      np.zeros(4))

    def test_balanced_identical_weights_cancel(self):
        # n_pos == n_neg over identical cells -> exact cancellation
        cfg = affine_config()
        for n in (2, 4, 6):
            tile = CrossbarTile(cfg, np.ones((n, 3), dtype=np.int8))
            x = np.array([1, -1] * (n // 2), dtype=np.int8)
            np.testing.assert_allclose(delta_one(tile, x), np.zeros(3),
                                       atol=1e-18)

    def test_batch_equals_single_calls(self):
        cfg = default_device_config("hrs")
        gen = np.random.default_rng(1)
        w = gen.choice([-1, 0, 1], size=(8, 5)).astype(np.int8)
        tile = CrossbarTile(cfg, w, array_id=4)
        xb = gen.choice([-1, 0, 1], size=(10, 8)).astype(np.int8)
        ip, ineg = tile.vmm_batch(xb, np.arange(10))
        for p in range(10):
            i_pos, i_neg = read_one(tile, xb[p], read_pair=p)
            np.testing.assert_array_equal(ip[p], i_pos)
            np.testing.assert_array_equal(ineg[p], i_neg)

    def test_read_pair_changes_noise(self):
        cfg = default_device_config("hrs")
        tile = CrossbarTile(cfg, np.ones((4, 2), dtype=np.int8))
        a, _ = read_one(tile, np.ones(4), read_pair=0)
        b, _ = read_one(tile, np.ones(4), read_pair=1)
        assert not np.array_equal(a, b)

    def test_affine_consistency(self):
        # zero variability, affine states: delta = v_read*(a*pc + b*(np-nn))
        a, b, v_read = 9e-6, 11e-6, 0.2
        cfg = affine_config(a, b, v_read)
        gen = np.random.default_rng(2)
        w = gen.choice([-1, 0, 1], size=(4, 4)).astype(np.int8)
        tile = CrossbarTile(cfg, w)
        for bits in itertools.product(TRITS, repeat=4):
            x = np.array(bits, dtype=np.int8)
            delta = delta_one(tile, x)
            n_pos = int(np.sum(x > 0))
            n_neg = int(np.sum(x < 0))
            for c in range(4):
                pc = popcount_oracle(x, w[:, c])
                expect = v_read * (a * pc + b * (n_pos - n_neg)) * 1e6
                assert delta[c] == pytest.approx(expect, rel=1e-12,
                                                 abs=1e-15)

    def test_balanced_ternary_sign_fidelity_random(self):
        # 1e5 random balanced ternary inputs (n_pos == n_neg): at zero
        # variability the imbalance term vanishes and the hardware sign
        # must equal the popcount sign whenever the popcount is nonzero
        cfg = affine_config()
        gen = np.random.default_rng(5)
        n_checked = 0
        for tile_draw in range(10):
            w = gen.choice(TRITS, size=(4, 4)).astype(np.int8)
            tile = CrossbarTile(cfg, w, array_id=tile_draw + 1)
            xs = np.zeros((10_000, 4), dtype=np.int8)
            for row in xs:
                k = int(gen.integers(1, 3))  # n_pos = n_neg = 1 or 2
                pos = gen.choice(4, size=2 * k, replace=False)
                row[pos[:k]] = 1
                row[pos[k:]] = -1
            ip, ineg = tile.vmm_batch(xs, np.arange(xs.shape[0]))
            delta = ip - ineg
            pcs = xs.astype(np.int64) @ w.astype(np.int64)
            nz = pcs != 0
            assert np.array_equal(np.sign(delta[nz]), np.sign(pcs[nz]))
            n_checked += int(nz.sum())
        assert n_checked >= 100_000

    def test_monotone_in_popcount_at_fixed_composition(self):
        # fixed (n_pos, n_neg): expected delta strictly increases with pc
        cfg = affine_config()
        inputs = [np.array(p, dtype=np.int8)
                  for p in itertools.product(TRITS, repeat=4)]
        by_comp = {}
        for x in inputs:
            comp = (int(np.sum(x > 0)), int(np.sum(x < 0)))
            by_comp.setdefault(comp, []).append(x)
        gen = np.random.default_rng(3)
        w = gen.choice([-1, 0, 1], size=(4, 1)).astype(np.int8)
        tile = CrossbarTile(cfg, w)
        for comp, xs in by_comp.items():
            seen = {}
            for x in xs:
                pc = popcount_oracle(x, w[:, 0])
                d = delta_one(tile, x)[0]
                seen.setdefault(pc, set()).add(round(d, 15))
            # same pc -> same delta; larger pc -> strictly larger delta
            assert all(len(v) == 1 for v in seen.values())
            pcs = sorted(seen)
            deltas = [next(iter(seen[p])) for p in pcs]
            assert all(d1 < d2 for d1, d2 in zip(deltas, deltas[1:]))

    def test_binary_level_count(self):
        # at fixed input composition and no noise, a length-n binary column
        # shows at most n+1 distinct delta levels (popcount multiples of 2)
        cfg = affine_config()
        n = 4
        all_cols = [np.array(c, dtype=np.int8)
                    for c in itertools.product((-1, 1), repeat=n)]
        tile = CrossbarTile(cfg, np.stack(all_cols, axis=1))
        x = np.array([1, 1, -1, -1], dtype=np.int8)
        assert len(set(np.round(delta_one(tile, x), 12))) <= n + 1

    def test_tnn_levels_are_half_the_bnn_spacing(self):
        # adjacent expected-delta levels: ternary popcounts step by 1,
        # binary by 2, so the minimum gap ratio is exactly 1/2
        a, b, v_read = 9e-6, 11e-6, 0.2
        unit = v_read * a * 1e6  # uA per popcount unit
        cfg = affine_config(a, b, v_read)
        x = np.array([1, 1, -1, -1], dtype=np.int8)  # fixed composition

        def levels(cols):
            tile = CrossbarTile(cfg, np.stack(cols, axis=1))
            return sorted(set(np.round(delta_one(tile, x), 12)))

        bnn = levels([np.array(c, dtype=np.int8)
                      for c in itertools.product((-1, 1), repeat=4)])
        tnn = levels([np.array(c, dtype=np.int8)
                      for c in itertools.product(TRITS, repeat=4)])
        gap_b = min(np.diff(bnn))
        gap_t = min(np.diff(tnn))
        assert gap_t == pytest.approx(gap_b / 2, rel=1e-9)
        assert gap_b == pytest.approx(2 * unit, rel=1e-9)


class TestSenseToActivation:
    @pytest.mark.parametrize("kind", ["binary", "ternary", "sigmoid_output"])
    @pytest.mark.parametrize("bad", [np.array(["1"]), np.array([1 + 1j])])
    def test_non_real_currents_rejected(self, bad, kind):
        # a string array used to end in a TypeError, a complex one to lose
        # its imaginary part with only a ComplexWarning
        with pytest.raises(DomainError, match="current must be real numbers"):
            sense_to_activation(bad, Activation(kind))

    @pytest.mark.parametrize("activation", ["binary", None, 1])
    def test_activation_that_is_not_an_activation_rejected(self, activation):
        with pytest.raises(ConfigError, match="not an Activation"):
            sense_to_activation(np.array([1.0]), activation)

    # inputs are differential currents i_pos - i_neg in uA
    def test_hidden_binary_sign(self):
        out = sense_to_activation(np.array([0.0 - 18.0]),
                                  Activation("binary"))
        np.testing.assert_array_equal(out, [-1])

    def test_hidden_binary_zero_is_plus(self):
        out = sense_to_activation(np.array([5.0 - 5.0]),
                                  Activation("binary"))
        np.testing.assert_array_equal(out, [1])

    def test_hidden_ternary_dead_band(self):
        out = sense_to_activation(np.array([3.0]),
                                  Activation("ternary", r=0.5), gain_uA=10.0)
        np.testing.assert_array_equal(out, [0])  # 0.3 inside the band

    def test_output_sigmoid_records_voltages(self):
        v = sense_to_activation(np.array([2.0, 3.0]),
                                Activation("sigmoid_output"), gain_uA=1.0)
        assert v[1] > v[0]  # neuron is monotone

    def test_gain_must_be_positive(self):
        with pytest.raises(ConfigError):
            sense_to_activation(np.array([1.0]),
                                Activation("ternary"), gain_uA=0.0)

    @pytest.mark.parametrize("gain", [float("inf"), None, True, "1"])
    def test_gain_must_be_a_finite_real(self, gain):
        # None used to end in a TypeError, and inf and True were accepted
        with pytest.raises(ConfigError, match="gain must be"):
            sense_to_activation(np.array([1.0]),
                                Activation("ternary"), gain_uA=gain)


class TestStatelessReads:
    def test_vmm_batch_leaves_the_tile_unchanged(self):
        # reads run on pool threads, so they must not write to the tile
        gen = np.random.default_rng(6)
        tile = CrossbarTile(default_device_config("hrs"),
                            gen.choice(TRITS, size=(8, 5)).astype(np.int8))
        before = dict(vars(tile))
        copies = {k: v.copy() for k, v in before.items()
                  if isinstance(v, np.ndarray)}
        tile.vmm_batch(gen.choice(TRITS, size=(20, 8)).astype(np.int8),
                       np.arange(20))
        assert vars(tile).keys() == before.keys()
        assert all(vars(tile)[k] is v for k, v in before.items())
        assert all(np.array_equal(before[k], v) for k, v in copies.items())

    def test_heavy_clamping_warns(self, caplog):
        # C2C sigma equal to the +1 mean: about a quarter of draws clamp
        tile = CrossbarTile(affine_config(c2c=20e-6),
                            np.ones((64, 4), dtype=np.int8))
        with caplog.at_level(logging.WARNING, logger="oxcim.crossbar"):
            tile.vmm_batch(np.ones((8, 64), dtype=np.int8), np.arange(8))
        assert any(r.name == "oxcim.crossbar"
                   and "variability overflow" in r.getMessage()
                   for r in caplog.records)


class TestTileValidation:
    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            CrossbarTile(affine_config(), np.zeros((0, 3), dtype=np.int8))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            CrossbarTile(affine_config(), np.ones(4, dtype=np.int8))

    def test_values_checked_before_the_int8_cast(self):
        # 257 and -255 share their low byte with +1; 0.5 truncates to 0
        cfg = affine_config()
        with pytest.raises(DomainError):
            CrossbarTile(cfg, [[257], [-255]])
        tile = CrossbarTile(cfg, np.ones((2, 1), dtype=np.int8))
        for bad in ([0.5, 1], [257, 0], [np.nan, 1]):
            with pytest.raises(DomainError):
                tile.vmm_batch([bad], [0])

    @pytest.mark.parametrize("bad", [np.full((1, 2), None), [["a", "b"]]])
    def test_non_numeric_trits_rejected(self, bad):
        # an object array used to end in a TypeError inside the trit check
        tile = CrossbarTile(affine_config(), np.ones((2, 1), dtype=np.int8))
        with pytest.raises(DomainError, match="must be numbers"):
            tile.vmm_batch(bad, [0])
        with pytest.raises(DomainError, match="must be numbers"):
            CrossbarTile(affine_config(), np.transpose(bad))

    @pytest.mark.parametrize("pair", [-1, 2 ** 63, 2 ** 64, 1.5,
                                      float("nan"), "a", None])
    def test_read_pair_ids_checked(self, pair):
        # -1 and 2**64 used to end in an OverflowError and nan or "a" in a
        # ValueError; 1.5 read as pair 1, and 2**63 as pair 0 (READ id 2p
        # wrapped in uint64)
        tile = CrossbarTile(default_device_config("hrs"),
                            np.ones((2, 3), dtype=np.int8))
        with pytest.raises(DomainError, match="read pair ids"):
            tile.vmm_batch([[1, -1], [1, 1]], [0, pair])

    def test_largest_read_pair_id_reads_its_own_noise(self):
        tile = CrossbarTile(default_device_config("hrs"),
                            np.ones((2, 3), dtype=np.int8))
        top = np.array([2 ** 63 - 1], dtype=np.uint64)
        assert not np.array_equal(read_one(tile, [1, 1], top[0]),
                                  read_one(tile, [1, 1], 0))
        np.testing.assert_array_equal(tile.vmm_batch([[1, 1]], top),
                                      tile.vmm_batch([[1, 1]], [2 ** 63 - 1]))

    @pytest.mark.parametrize("array_id", [-1, 2 ** 64, 1.5, "1", None, True])
    def test_array_id_checked(self, array_id):
        # -1 and 2**64 used to end in an OverflowError, and 1.5 programmed
        # array 1's cells
        with pytest.raises(ConfigError, match="array id"):
            CrossbarTile(default_device_config("hrs"),
                         np.ones((2, 1), dtype=np.int8), array_id=array_id)

    def test_array_ids_span_64_bits(self):
        cfg = default_device_config("hrs")
        grid = np.ones((2, 1), dtype=np.int8)
        top = CrossbarTile(cfg, grid, array_id=np.uint64(2 ** 64 - 1))
        assert top.array_id == 2 ** 64 - 1
        assert not np.array_equal(top.cell_g,
                                  CrossbarTile(cfg, grid, array_id=0).cell_g)

    def test_cell_conductance_tracks_state(self):
        cfg = affine_config(d2d=0.0)
        w = np.array([[1, 0], [-1, 1]], dtype=np.int8)
        tile = CrossbarTile(cfg, w)
        for r in range(2):
            for c in range(2):
                assert tile.cell_g[r, c] == cfg.states[int(w[r, c])].mean_S
