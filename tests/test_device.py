import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

from oxcim.device import (CLAMP_FLOOR_FRACTION, MEASURED_AMPLITUDE_V,
                          MEASURED_MIDPOINT_UA, DeviceConfig, MlcStateModel,
                          default_config_file, default_device_config,
                          parse_device_config,
                          sample_device_conductance_grid, sigmoid_ideal,
                          sigmoid_neuron_voltage)
from oxcim import rng
from oxcim.crossbar import A_TO_UA, CrossbarTile
from oxcim.errors import ConfigError, DomainError, ParseError
from oxcim.quant import Precision



def _state(mean, d2d=0.0, c2c=0.0):
    return MlcStateModel("s", mean, d2d, c2c)


class TestStateAndConfigValidation:
    def test_mean_must_be_positive(self):
        with pytest.raises(ConfigError):
            MlcStateModel("x", 0.0)

    def test_sigmas_nonnegative(self):
        with pytest.raises(ConfigError):
            MlcStateModel("x", 1e-6, d2d_sigma_S=-1e-9)

    @pytest.mark.parametrize("key, value", [
        *itertools.product(["state.+1.mean_S", "state.+1.d2d_sigma_S",
                            "state.+1.c2c_sigma_S"], ["nan", "inf"]),
        ("v_read_V", "inf")])
    def test_nonfinite_constants_rejected(self, key, value):
        # a NaN sigma would compare False against 0 and drop its noise
        lines = default_config_file("hrs").read_text().splitlines()
        text = "\n".join(f"{key} = {value}" if line.startswith(key + " ")
                         else line for line in lines)
        assert f"{key} = {value}" in text
        with pytest.raises(ParseError, match="finite"):
            parse_device_config(text)

    @pytest.mark.parametrize("seed", [2 ** 64, -2 ** 63 - 1])
    def test_seed_outside_64_bits_fails_at_its_line(self, seed):
        # 2**64 used to parse and then overflow in rng.stream_key
        text = default_config_file("hrs").read_text()
        text = "\n".join(f"seed = {seed}" if line.startswith("seed ")
                         else line for line in text.splitlines())
        with pytest.raises(ParseError, match=r"seed must lie in") as err:
            parse_device_config(text)
        assert err.value.line is not None

    @pytest.mark.parametrize("seed", [2 ** 64 - 1, -2 ** 63])
    def test_seed_at_either_end_of_64_bits_draws(self, seed):
        cfg = dataclasses.replace(default_device_config("hrs"), seed=seed)
        tile = CrossbarTile(cfg, np.array([[1, -1], [0, 1]]), array_id=1)
        assert np.all(np.isfinite(tile.cell_g))

    @pytest.mark.parametrize("seed", [10 ** 5000, -10 ** 5000],
                             ids=["10**5000", "-10**5000"])
    def test_seed_too_long_to_print_rejected(self, seed):
        # str() refuses an int of 4,300 digits: the message used to end in
        # Python's ValueError
        with pytest.raises(ConfigError, match="integer of 16610 bits"):
            dataclasses.replace(default_device_config("hrs"), seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", True])
    def test_non_integer_seed_rejected(self, seed):
        # 1.5 used to draw exactly seed 1's streams
        with pytest.raises(ConfigError, match="seed must be an integer"):
            dataclasses.replace(default_device_config("hrs"), seed=seed)

    def test_monotone_state_ordering(self):
        with pytest.raises(ConfigError):
            DeviceConfig("HRS", {-1: _state(5e-6), 1: _state(2e-6)})

    @pytest.mark.parametrize("field, value", [
        ("mean_S", "1e-6"), ("mean_S", True), ("mean_S", None),
        ("d2d_sigma_S", None), ("c2c_sigma_S", "0"), ("d2d_sigma_S", 10 ** 400)])
    def test_non_real_state_constants_rejected(self, field, value):
        # "1e-6" and None used to end in a TypeError; True was read as 1 S
        with pytest.raises(ConfigError, match="state x: "):
            MlcStateModel("x", **dict({"mean_S": 1e-6}, **{field: value}))

    @pytest.mark.parametrize("v_read", ["0.2", True, None])
    def test_v_read_must_be_a_positive_real(self, v_read):
        # "0.2" used to end in a TypeError, and True was read as 1 V
        with pytest.raises(ConfigError, match="v_read must be"):
            dataclasses.replace(default_device_config("hrs"), v_read=v_read)

    @pytest.mark.parametrize("states", [{-1: 1.0, 1: 2.0}, [1, 2], None,
                                        {-1: _state(1e-6), 1: 2e-6}])
    def test_states_must_be_state_models(self, states):
        # {-1: 1.0, 1: 2.0} used to end in an AttributeError
        with pytest.raises(ConfigError, match="states must map -1, \\+1"):
            DeviceConfig("HRS", states)

    def test_binary_vs_ternary_state_requirements(self):
        cfg = DeviceConfig("HRS", {-1: _state(1e-6), 1: _state(2e-6)})
        cfg.require_states(Precision.BINARY)
        with pytest.raises(ConfigError):
            cfg.require_states(Precision.TERNARY)


def sample_device_conductance(state, seed, array_id, row, col):
    """Scalar reference of the D2D draw: one keyed cell, clamped to the floor."""
    z = rng.normals_consuming_keys(
        rng.fold(rng.stream_key(seed, rng.TAG_D2D, array_id),
                 (np.uint64(row) << np.uint64(32)) | np.uint64(col)))
    return max(state.mean_S + state.d2d_sigma_S * float(z),
               state.mean_S * CLAMP_FLOOR_FRACTION)


class TestDeviceSampling:
    def test_zero_sigma_is_exact(self):
        cfg = DeviceConfig("HRS", {-1: _state(50e-6), 1: _state(100e-6)})
        g = sample_device_conductance_grid(cfg, np.ones((4, 5), dtype=np.int8),
                                           array_id=0)
        assert np.all(g == 100e-6)

    def test_same_cell_same_value(self):
        # a cell's draw does not depend on the grid it is sampled in
        cfg = DeviceConfig("HRS", {-1: _state(50e-6),
                                   1: _state(100e-6, d2d=5e-6)}, seed=7)
        a = sample_device_conductance_grid(cfg, np.ones((3, 4), dtype=np.int8),
                                           array_id=1)
        b = sample_device_conductance_grid(cfg, np.ones((5, 6), dtype=np.int8),
                                           array_id=1)
        assert a[2, 3] == b[2, 3]
        assert np.array_equal(a, b[:3, :4])

    def test_grid_matches_scalar_path(self):
        cfg = DeviceConfig("HRS", {-1: _state(1e-6, 0.1e-6),
                                   1: _state(2e-6, 0.2e-6)}, seed=5)
        trits = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        grid = sample_device_conductance_grid(cfg, trits, array_id=3)
        for r in range(2):
            for c in range(2):
                st = cfg.states[trits[r, c]]
                assert grid[r, c] == sample_device_conductance(st, 5, 3, r, c)

    @pytest.mark.parametrize("trit", [-2, 2, 1.5, np.nan])
    def test_value_without_a_state_rejected(self, trit):
        # np.take alone would wrap -2 onto the +1 state
        cfg = default_device_config("hrs")
        with pytest.raises(ConfigError, match="no state for a weight"):
            cfg.grids_for(np.array([[1, trit], [0, -1]]))

    def test_zero_on_a_binary_config_rejected(self):
        cfg = DeviceConfig("HRS", {-1: _state(1e-6), 1: _state(2e-6)})
        with pytest.raises(ConfigError, match=r"no state .* \[0\]"):
            cfg.grids_for(np.array([[1, 0], [-1, 1]], dtype=np.int8))

    def test_float_trit_grids_look_up_their_states(self):
        cfg = default_device_config("hrs")
        trits = np.array([[1, 0], [-1, 1]], dtype=np.int8)
        for got, want in zip(cfg.grids_for(trits.astype(np.float64)),
                             cfg.grids_for(trits)):
            np.testing.assert_array_equal(got, want)
        mean, d2d, c2c, floor = cfg.grids_for(trits)
        for (r, c), t in np.ndenumerate(trits):
            st = cfg.states[t]
            assert (mean[r, c], d2d[r, c], c2c[r, c], floor[r, c]) == (
                st.mean_S, st.d2d_sigma_S, st.c2c_sigma_S,
                st.mean_S * CLAMP_FLOOR_FRACTION)

    def test_law_of_large_numbers(self):
        # 1e5 keyed draws: sample mean within 0.1 uS, sample sigma within 0.2 uS
        cfg = DeviceConfig("LRS", {-1: _state(1e-6), 1: _state(100e-6, 5e-6)},
                           seed=9)
        trits = np.ones((400, 250), dtype=np.int8)
        g = sample_device_conductance_grid(cfg, trits, array_id=1)
        assert abs(g.mean() - 100e-6) < 0.1e-6
        assert abs(g.std() - 5e-6) < 0.2e-6

    def test_all_positive(self):
        st = _state(1e-6, d2d=2e-6)  # sigma far above mean: clamps a lot
        cfg = DeviceConfig("HRS", {-1: _state(0.5e-6), 1: st}, seed=2)
        trits = np.ones((100, 100), dtype=np.int8)
        g = sample_device_conductance_grid(cfg, trits, array_id=1)
        assert np.all(g > 0)
        assert np.all(g >= 1e-6 * CLAMP_FLOOR_FRACTION)

    def test_clamp_logs_warning(self, caplog):
        st = _state(1e-6, d2d=2e-6)
        cfg = DeviceConfig("HRS", {-1: _state(0.5e-6), 1: st}, seed=2)
        trits = np.ones((100, 100), dtype=np.int8)
        with caplog.at_level(logging.WARNING, logger="oxcim.device"):
            sample_device_conductance_grid(cfg, trits, array_id=1)
        assert any("variability overflow" in r.message for r in caplog.records)


def _one_cell_tile(d2d=0.0, c2c=0.0):
    cfg = DeviceConfig("HRS", {-1: _state(1e-6), 1: _state(50e-6, d2d, c2c)},
                       seed=0)
    return CrossbarTile(cfg, [[1]], array_id=1)


class TestReadSampling:
    def test_zero_c2c_returns_device_g(self):
        tile = _one_cell_tile(d2d=2e-6)
        i_pos, _ = tile.vmm_batch([[1]], [0])
        current = i_pos[0, 0]
        assert current == tile.cell_g[0, 0] * (tile.config.v_read * A_TO_UA)

    def test_successive_reads_differ(self):
        tile = _one_cell_tile(c2c=1e-6)
        a, _ = tile.vmm_batch([[1]], [0])   # READ id 0
        _, b = tile.vmm_batch([[-1]], [0])  # READ id 1
        assert a[0, 0] != b[0, 0]

    def test_clamped_reads_sit_on_the_floor(self):
        # C2C sigma equal to the mean clamps about 16% of reads.  Reference:
        # each read as max(cell_g + sigma * z, floor) from the same keyed z.
        # The clamp offset floor - cell_g is rounded up at the scale of
        # cell_g, so a clamped read may sit one ulp of cell_g above the
        # floor, never below it.
        tile = _one_cell_tile(c2c=50e-6)
        n = 20_000
        i_pos, _ = tile.vmm_batch(np.ones((n, 1), dtype=np.int8), np.arange(n))
        z = rng.normals_consuming_keys(
            rng.cell_key_grid(0, rng.TAG_C2C, 1, 1, 1)[0, 0]
            ^ rng.read_event_words(2 * np.arange(n)))
        g, floor = tile.cell_g[0, 0], 50e-6 * CLAMP_FLOOR_FRACTION
        scale = tile.config.v_read * A_TO_UA
        ref = np.maximum(g + 50e-6 * z, floor)
        clamped = ref == floor
        assert clamped.mean() > 0.1
        assert np.all(i_pos[:, 0] >= floor * scale)
        np.testing.assert_array_equal(i_pos[~clamped, 0],
                                      ref[~clamped] * scale)
        assert np.all(np.abs(i_pos[clamped, 0] - floor * scale)
                      <= np.spacing(g * scale))

    def test_read_variance_matches_c2c(self):
        # the tile's own READ path; config seed, array id and the read
        # pairs 0..99,999 fix every draw before the run
        tile = _one_cell_tile(c2c=4e-6)
        n = 100_000
        i_pos, _ = tile.vmm_batch(np.ones((n, 1), dtype=np.int8), np.arange(n))
        g = i_pos[:, 0] / (tile.config.v_read * A_TO_UA)
        assert abs(g.var() - (4e-6) ** 2) / (4e-6) ** 2 < 0.05
        assert abs(g.mean() - tile.cell_g[0, 0]) < 5 * 4e-6 / np.sqrt(n)


class TestSigmoid:
    def test_ideal_values(self):
        assert sigmoid_ideal(0.0) == 0.5
        assert abs(sigmoid_ideal(1.0) - 0.7310585786300049) < 1e-12
        assert sigmoid_ideal(60.0) > 1 - 1e-12
        assert 0.0 < sigmoid_ideal(-60.0) < 1e-12

    def test_ideal_strictly_bounded(self):
        xs = np.linspace(-30, 30, 1001)
        s = sigmoid_ideal(xs)
        assert np.all(s > 0) and np.all(s < 1)
        assert np.all(np.diff(s) > 0)

    def test_neuron_midpoint(self):
        # midpoint current gives offset + amplitude/2
        assert abs(sigmoid_neuron_voltage(1.56) - 0.8578) < 1e-9

    def test_neuron_at_zero_current(self):
        # independent evaluation of the transfer formula
        expect = 0.1 + 1.5156 / (1.0 + math.exp(1.56))
        assert abs(sigmoid_neuron_voltage(0.0) - expect) < 1e-12
        assert abs(expect - 0.36317) < 1e-5

    def test_neuron_asymptotes_monotone(self):
        lo, hi = 0.1, 0.1 + 1.5156
        i = np.linspace(-40, 40, 2001)
        v = sigmoid_neuron_voltage(i)
        assert np.all(np.diff(v) >= 0)
        # bounds approached to better than 1e-9 but never crossed
        assert v[0] >= lo and v[0] - lo < 1e-9
        assert v[-1] <= hi and hi - v[-1] < 1e-9
        # strictly inside the bounds wherever float64 can resolve the gap
        i = np.linspace(-25, 25, 1001)
        v = sigmoid_neuron_voltage(i)
        assert np.all(v > lo) and np.all(v < hi)
        assert np.all(np.diff(v) > 0)

    def test_neuron_derivative_at_midpoint(self):
        h = 1e-6
        fd = (sigmoid_neuron_voltage(MEASURED_MIDPOINT_UA + h)
              - sigmoid_neuron_voltage(MEASURED_MIDPOINT_UA - h)) / (2 * h)
        expect = MEASURED_AMPLITUDE_V / 4.0
        assert abs(fd - expect) / expect < 1e-6

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            sigmoid_neuron_voltage(float("nan"))

    @pytest.mark.parametrize("bad", [np.array(["1"]), np.array([1 + 1j])])
    def test_non_real_arrays_rejected(self, bad):
        # a string array used to end in a ValueError, a complex one to lose
        # its imaginary part with only a ComplexWarning
        for sigmoid in (sigmoid_ideal, sigmoid_neuron_voltage):
            with pytest.raises(DomainError, match="must be real numbers"):
                sigmoid(bad)


class TestPrecisionAndName:
    def test_precision_that_is_not_a_precision_rejected(self):
        # used to end in an AttributeError on .allowed_values
        with pytest.raises(ConfigError, match="must be a Precision"):
            default_device_config("hrs").require_states("binary")

    def test_name_that_is_not_a_string_rejected(self):
        # used to construct, then end in a TypeError in with_zero_variability
        states = default_device_config("hrs").states
        with pytest.raises(ConfigError, match="name must be a string"):
            DeviceConfig("HRS", states, name=None)

    @pytest.mark.parametrize("data", [None, 3, ["region = HRS"]])
    def test_config_that_is_not_text_rejected(self, data):
        # used to end in an AttributeError on .splitlines
        with pytest.raises(ParseError, match="expected bytes or text"):
            parse_device_config(data)


class TestDefaults:
    @pytest.mark.parametrize("which", [None, 3])
    def test_name_that_is_not_a_string_rejected(self, which):
        # .lower() used to end in an AttributeError
        for load in (default_config_file, default_device_config):
            with pytest.raises(ConfigError, match="no default config"):
                load(which)

    def test_default_read_conditions(self):
        for name in ("hrs", "lrs"):
            cfg = default_device_config(name)
            assert cfg.v_read == 0.2

    def test_hrs_separates_at_three_sigma(self):
        cfg = default_device_config("hrs")
        trits = sorted(cfg.states)
        for a, b in zip(trits, trits[1:]):
            sa, sb = cfg.states[a], cfg.states[b]
            gap = sb.mean_S - sa.mean_S
            assert gap > 3.0 * (sa.d2d_sigma_S + sb.d2d_sigma_S)

    def test_lrs_separates_at_two_but_not_three_sigma(self):
        cfg = default_device_config("lrs")
        trits = sorted(cfg.states)
        ratios = []
        for a, b in zip(trits, trits[1:]):
            sa, sb = cfg.states[a], cfg.states[b]
            ratios.append((sb.mean_S - sa.mean_S) /
                          (sa.d2d_sigma_S + sb.d2d_sigma_S))
        assert min(ratios) > 2.0
        assert min(ratios) < 3.0

    def test_hrs_more_separable_than_lrs(self):
        def stat(cfg):
            trits = sorted(cfg.states)
            return min((cfg.states[b].mean_S - cfg.states[a].mean_S) /
                       (cfg.states[a].d2d_sigma_S + cfg.states[b].d2d_sigma_S)
                       for a, b in zip(trits, trits[1:]))
        assert stat(default_device_config("hrs")) > stat(default_device_config("lrs"))


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = default_device_config("hrs")
        path = tmp_path / "dev.cfg"
        path.write_bytes(default_config_file("hrs").read_bytes())
        again = parse_device_config(path.read_bytes(), name=str(path))
        assert again.states == cfg.states
        assert again.v_read == cfg.v_read
        assert again.seed == cfg.seed
        assert again == dataclasses.replace(cfg, name=str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_device_config("region = HRS\nbogus = 3\n")

    def test_missing_state_field_rejected(self):
        text = ("region = HRS\n"
                "state.-1.mean_S = 1e-6\n"
                "state.-1.d2d_sigma_S = 0\n"
                # c2c missing
                "state.+1.mean_S = 2e-6\n"
                "state.+1.d2d_sigma_S = 0\n"
                "state.+1.c2c_sigma_S = 0\n")
        with pytest.raises(ParseError):
            parse_device_config(text)

    def test_bad_number_names_line(self):
        text = "region = HRS\nv_read_V = zap\n"
        with pytest.raises(ParseError) as err:
            parse_device_config(text)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line", [
        "seed = 4", "state.+1.mean_S = 30e-6"])
    def test_repeated_key_names_line(self, line):
        lines = default_config_file("hrs").read_text().splitlines()
        text = "\n".join(lines + [line]) + "\n"
        with pytest.raises(ParseError, match="duplicate key") as err:
            parse_device_config(text)
        assert err.value.line == len(lines) + 1

    @pytest.mark.parametrize("line", [
        "state.1.mean_S = 20e-6", "v_gate_on_V = 1.2", "v_gate_off_V = 0.0"])
    def test_retired_keys_rejected(self, line):
        text = default_config_file("hrs").read_text() + line + "\n"
        with pytest.raises(ParseError, match="unknown key"):
            parse_device_config(text)

    def test_non_utf8_byte_names_offset(self, tmp_path):
        data = default_config_file("hrs").read_bytes()
        at = data.index(b"HRS\n")
        path = tmp_path / "dev.cfg"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        with pytest.raises(ParseError) as err:
            parse_device_config(path.read_bytes(), name=str(path))
        assert err.value.offset == at

    def test_comments_and_blanks_ok(self):
        text = ("# hello\n\nregion = HRS\n"
                "state.-1.mean_S = 1e-6  # low state\n"
                "state.-1.d2d_sigma_S = 0\nstate.-1.c2c_sigma_S = 0\n"
                "state.+1.mean_S = 2e-6\n"
                "state.+1.d2d_sigma_S = 0\nstate.+1.c2c_sigma_S = 0\n")
        cfg = parse_device_config(text)
        assert cfg.states[1].mean_S == 2e-6
