import logging
import math

import numpy as np
import pytest

from oxcim.device import (CLAMP_FLOOR_FRACTION, DeviceConfig, MlcStateModel,
                          SigmoidNeuronModel, default_device_config,
                          load_device_config, parse_device_config,
                          sample_device_conductance,
                          sample_device_conductance_grid, save_device_config,
                          sigmoid_ideal, sigmoid_neuron_voltage)
from oxcim.crossbar import A_TO_UA, CrossbarTile
from oxcim.errors import ConfigError, DomainError, ParseError
from oxcim.quant import Precision
from oxcim import rng


def _state(mean, d2d=0.0, c2c=0.0):
    return MlcStateModel("s", mean, d2d, c2c)


class TestStateAndConfigValidation:
    def test_mean_must_be_positive(self):
        with pytest.raises(ConfigError):
            MlcStateModel("x", 0.0)

    def test_sigmas_nonnegative(self):
        with pytest.raises(ConfigError):
            MlcStateModel("x", 1e-6, d2d_sigma_S=-1e-9)

    def test_monotone_state_ordering(self):
        with pytest.raises(ConfigError):
            DeviceConfig("HRS", {-1: _state(5e-6), 1: _state(2e-6)})

    def test_binary_vs_ternary_state_requirements(self):
        cfg = DeviceConfig("HRS", {-1: _state(1e-6), 1: _state(2e-6)})
        cfg.require_states(Precision.BINARY)
        with pytest.raises(ConfigError):
            cfg.require_states(Precision.TERNARY)


class TestDeviceSampling:
    def test_zero_sigma_is_exact(self):
        st = _state(100e-6)
        assert sample_device_conductance(st, 0, 0, 3, 4) == 100e-6

    def test_same_cell_same_value(self):
        st = _state(100e-6, d2d=5e-6)
        a = sample_device_conductance(st, 7, 1, 2, 3)
        b = sample_device_conductance(st, 7, 1, 2, 3)
        assert a == b

    def test_grid_matches_scalar_path(self):
        cfg = DeviceConfig("HRS", {-1: _state(1e-6, 0.1e-6),
                                   1: _state(2e-6, 0.2e-6)}, seed=5)
        trits = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        grid = sample_device_conductance_grid(cfg, trits, array_id=3)
        for r in range(2):
            for c in range(2):
                st = cfg.state_for(trits[r, c])
                assert grid[r, c] == sample_device_conductance(st, 5, 3, r, c)

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
        current = tile.read_phase([True], read_id=0)[0]
        assert current == tile.cell_g[0, 0] * (tile.config.v_read * A_TO_UA)

    def test_successive_reads_differ(self):
        tile = _one_cell_tile(c2c=1e-6)
        a = tile.read_phase([True], read_id=0)
        b = tile.read_phase([True], read_id=1)
        assert a[0] != b[0]

    def test_read_variance_matches_c2c(self):
        st = _state(100e-6, c2c=4e-6)
        keys = rng.c2c_cell_key_grid(3, 1, 1, 1)
        z = rng.read_noise_normals(keys, np.arange(100_000))
        g = 100e-6 + st.c2c_sigma_S * z.ravel()
        assert abs(g.var() - (4e-6) ** 2) / (4e-6) ** 2 < 0.05


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
        m = SigmoidNeuronModel.measured()
        h = 1e-6
        fd = (sigmoid_neuron_voltage(m.midpoint_uA + h)
              - sigmoid_neuron_voltage(m.midpoint_uA - h)) / (2 * h)
        expect = m.amplitude_V / 4.0
        assert abs(fd - expect) / expect < 1e-6

    def test_ideal_mode_equals_sigmoid(self):
        xs = np.linspace(-20, 20, 401)
        v = sigmoid_neuron_voltage(xs, SigmoidNeuronModel.ideal())
        np.testing.assert_allclose(v, sigmoid_ideal(xs), atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            sigmoid_neuron_voltage(float("nan"))


class TestDefaults:
    def test_default_read_conditions(self):
        for name in ("hrs", "lrs"):
            cfg = default_device_config(name)
            assert cfg.v_read == 0.2
            assert cfg.v_gate_on == 1.2
            assert cfg.v_gate_off == 0.0

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
        save_device_config(cfg, path)
        again = load_device_config(path)
        assert again.states == cfg.states
        assert again.v_read == cfg.v_read
        assert again.seed == cfg.seed
        assert again.digest() == cfg.digest()

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

    def test_comments_and_blanks_ok(self):
        text = ("# hello\n\nregion = HRS\n"
                "state.-1.mean_S = 1e-6  # low state\n"
                "state.-1.d2d_sigma_S = 0\nstate.-1.c2c_sigma_S = 0\n"
                "state.+1.mean_S = 2e-6\n"
                "state.+1.d2d_sigma_S = 0\nstate.+1.c2c_sigma_S = 0\n")
        cfg = parse_device_config(text)
        assert cfg.states[1].mean_S == 2e-6
