"""Acceptance suite: one test per shipping criterion.

Each test name carries its criterion number (test_c1_* .. test_c9_*); the
conftest terminal hook prints a PASS/FAIL line per criterion at the end of
the run.  Hardware-accuracy criteria run on the session-trained fixture
nets and the 2000-image evaluation corpus (real benchmark data when
OXCIM_FMNIST_DIR points at it, the synthetic corpus otherwise).
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oxcim.bench import ExperimentSpec, run_accuracy, sweep_sense_distribution
from oxcim.crossbar import CrossbarTile
from oxcim.device import (MEASURED_AMPLITUDE_V, MEASURED_MIDPOINT_UA,
                          default_device_config, sigmoid_neuron_voltage)
from oxcim.hardware import map_network_to_tiles, predict_hardware
from oxcim.network import forward_ideal, lenet
from oxcim.quant import Precision, popcount_oracle
from oxcim.train import TrainConfig, train
from oxcim.weightfile import dumps
from conftest import real_dataset_dir
from test_weightfile import weight_count

TRITS = (-1, 0, 1)
EVAL_IMAGES = 2000


# ---------------------------------------------------------------------------
# 1. Oracle equivalence on a 4x1 tile: delta = v_read*(a*pc + b*(np-nn))
# ---------------------------------------------------------------------------


def test_c1_oracle_equivalence_exhaustive():
    t0 = time.perf_counter()
    cfg = default_device_config("hrs").with_zero_variability()
    a = cfg.conductance_slope()
    b = 0.5 * (cfg.states[1].mean_S + cfg.states[-1].mean_S)
    assert cfg.states[0].mean_S == pytest.approx(b)  # affine map
    columns = [np.array(c, dtype=np.int8)
               for c in itertools.product(TRITS, repeat=4)]
    inputs = columns  # same 81 vectors
    # zero variability decouples columns, so one 4x81 tile enumerates every
    # (input, weight-column) pair of the 4x1 case
    tile = CrossbarTile(cfg, np.stack(columns, axis=1))
    ipos, ineg = tile.vmm_batch(np.stack(inputs), np.arange(81))
    delta = ipos - ineg
    for i, x in enumerate(inputs):
        comp = int(np.sum(x > 0)) - int(np.sum(x < 0))
        for c, w in enumerate(columns):
            pc = popcount_oracle(x, w)
            expect = cfg.v_read * (a * pc + b * comp) * 1e6
            assert delta[i, c] == pytest.approx(expect, rel=1e-12, abs=1e-15)
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. Balanced-sign fidelity, exhaustive 4x4 binary
# ---------------------------------------------------------------------------


def test_c2_balanced_sign_fidelity_exhaustive():
    t0 = time.perf_counter()
    cfg = default_device_config("hrs").with_zero_variability()
    # all 2^16 binary 4x4 grids factor into their 16 possible columns at
    # zero variability, so checking every (balanced input, column) pair
    # covers every 4x4 case
    columns = [np.array(c, dtype=np.int8)
               for c in itertools.product((-1, 1), repeat=4)]
    tile = CrossbarTile(cfg, np.stack(columns, axis=1))
    balanced = [np.array(x, dtype=np.int8)
                for x in itertools.product((-1, 1), repeat=4)
                if sum(x) == 0]
    assert len(balanced) == 6
    checked = 0
    for k, x in enumerate(balanced):
        i_pos, i_neg = tile.vmm_batch(x[None], [k])
        delta = i_pos[0] - i_neg[0]
        for c, w in enumerate(columns):
            pc = popcount_oracle(x, w)
            if pc != 0:
                assert np.sign(delta[c]) == np.sign(pc)
                checked += 1
    assert checked > 0
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. Popcount discretization of the sense sweep
# ---------------------------------------------------------------------------


def test_c3_popcount_discretization():
    cfg = default_device_config("hrs")
    rows_b = sweep_sense_distribution((4, 4), Precision.BINARY, cfg,
                                      samples=2000, seed=0)
    assert {pc for pc, *_ in rows_b} == {-4, -2, 0, 2, 4}
    rows_t = sweep_sense_distribution((4, 4), Precision.TERNARY, cfg,
                                      samples=6000, seed=0)
    assert {pc for pc, *_ in rows_t} == set(range(-4, 5))


# ---------------------------------------------------------------------------
# 4. Sigmoid neuron transfer curve
# ---------------------------------------------------------------------------


def test_c4_sigmoid_neuron():
    assert abs(sigmoid_neuron_voltage(1.56) - 0.8578) < 1e-9
    lo, hi = 0.1, 0.1 + 1.5156
    i = np.linspace(-60, 60, 4001)
    v = sigmoid_neuron_voltage(i)
    assert np.all(np.diff(v) >= 0)
    assert v[0] >= lo and v[0] - lo < 1e-12
    assert v[-1] <= hi and hi - v[-1] < 1e-12
    for point in (-2.0, 0.0, 1.56, 4.0):
        h = 1e-6
        fd = (sigmoid_neuron_voltage(point + h)
              - sigmoid_neuron_voltage(point - h)) / (2 * h)
        s = 1.0 / (1.0 + np.exp(-(point - MEASURED_MIDPOINT_UA)))
        analytic = MEASURED_AMPLITUDE_V * s * (1.0 - s)
        assert fd == pytest.approx(analytic, rel=1e-6)


# ---------------------------------------------------------------------------
# 5. Bounded hardware degradation on the evaluation corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def degradation_runs(trained_bnn, trained_tnn, dataset):
    hrs = default_device_config("hrs")
    lrs = default_device_config("lrs")
    images, labels = dataset.test_images, dataset.test_labels
    assert images.shape[0] >= EVAL_IMAGES

    def run(net, config, mode):
        spec = ExperimentSpec(net=net, config=config, mode=mode,
                              limit=EVAL_IMAGES, threads=2)
        return run_accuracy(spec, images, labels).mean

    t0 = time.perf_counter()
    acc = {
        "bnn_ideal": run(trained_bnn, hrs, "ideal"),
        "bnn_hw_hrs": run(trained_bnn, hrs, "hardware"),
        "tnn_ideal": run(trained_tnn, hrs, "ideal"),
        "tnn_hw_hrs": run(trained_tnn, hrs, "hardware"),
        "tnn_hw_lrs": run(trained_tnn, lrs, "hardware"),
    }
    acc["elapsed_s"] = time.perf_counter() - t0
    return acc


def test_c5_bounded_hardware_degradation(degradation_runs):
    acc = degradation_runs
    assert abs(acc["bnn_hw_hrs"] - acc["bnn_ideal"]) <= 5.0
    assert abs(acc["tnn_hw_hrs"] - acc["tnn_ideal"]) <= 5.0
    deg_hrs = acc["tnn_ideal"] - acc["tnn_hw_hrs"]
    deg_lrs = acc["tnn_ideal"] - acc["tnn_hw_lrs"]
    assert deg_hrs <= deg_lrs
    assert acc["elapsed_s"] < 600.0


def test_c5a_zero_variability_tracks_ideal(trained_tnn, dataset):
    # supporting check: no-noise hardware within one accuracy point of the
    # digital oracle on >= 1000 images
    cfg = default_device_config("hrs").with_zero_variability()
    images, labels = dataset.test_images, dataset.test_labels
    ideal = run_accuracy(ExperimentSpec(net=trained_tnn,
                                        config=cfg, mode="ideal", limit=1000),
                         images, labels).mean
    hw = run_accuracy(ExperimentSpec(net=trained_tnn, config=cfg,
                                     mode="hardware", limit=1000),
                      images, labels).mean
    assert abs(hw - ideal) <= 1.0


@pytest.mark.parametrize("net_name", ["trained_bnn", "trained_tnn"])
def test_c5b_zero_variability_class_agreement(net_name, request, dataset):
    # at zero noise every decision that differs from ideal is an argmax tie
    # between equal popcounts resolved on 1-ulp differences; the ternary
    # net agrees on >= 99% of images
    from oxcim.bench import encode_images
    net = request.getfixturevalue(net_name)
    cfg = default_device_config("hrs").with_zero_variability()
    tiled = map_network_to_tiles(net, cfg)
    encoded = encode_images(dataset.test_images[:1000])
    agree = 0
    for i, x in enumerate(encoded):
        scores = forward_ideal(net, x)
        hw = predict_hardware(tiled, x, i)
        assert scores[hw] == scores.max(), f"image {i}: not a tie"
        agree += hw == int(np.argmax(scores))
    if net_name == "trained_tnn":
        assert agree >= 990


# ---------------------------------------------------------------------------
# 6. Training reproduction
# ---------------------------------------------------------------------------


def test_c6_training_sanity_run(dataset):
    # the quick stand-in for the hours-scale check: one epoch on a
    # 1000-image subset must beat the untrained validation loss
    cfg = TrainConfig(epochs=1, batch_size=64, lr=2e-3, seed=13,
                      val_fraction=0.2)
    result = train(lenet(Precision.TERNARY), dataset.train_images[:1000],
                   dataset.train_labels[:1000], cfg)
    assert result.loss_curve[-1][2] < result.initial_val_loss


@pytest.mark.extended
def test_c6x_full_training_reproduction():
    path = real_dataset_dir()
    if path is None:
        pytest.skip("real FMNIST not available (set OXCIM_FMNIST_DIR); "
                    "cannot score the published-benchmark targets offline")
    from oxcim.data import load_dataset_dir
    store = load_dataset_dir(path)
    targets = {"binary": 78.0, "ternary": 80.0}
    for name, floor in targets.items():
        cfg = TrainConfig(epochs=20, batch_size=64, lr=1e-3, seed=1,
                          val_fraction=0.1)
        result = train(lenet(Precision(name)), store.train_images,
                       store.train_labels, cfg)
        spec = ExperimentSpec(net=result.net,
                              config=default_device_config("hrs"),
                              mode="ideal")
        rep = run_accuracy(spec, store.test_images, store.test_labels)
        assert rep.mean >= floor, f"{name} ideal accuracy {rep.mean:.2f}%"
        # loss saturates: late improvement is a small fraction of the total
        val = [row[2] for row in result.loss_curve]
        total = result.initial_val_loss - min(val)
        late = val[9] - min(val[9:])
        assert late < 0.10 * total


# ---------------------------------------------------------------------------
# 7. Distribution separability and histogram conservation
# ---------------------------------------------------------------------------


def test_c7_separability_and_conservation(trained_tnn):
    from oxcim.bench import weight_conductance_histogram
    hrs = default_device_config("hrs")
    trits = sorted(hrs.states)
    for a, b in zip(trits, trits[1:]):
        sa, sb = hrs.states[a], hrs.states[b]
        assert sb.mean_S - sa.mean_S > 3.0 * (sa.d2d_sigma_S + sb.d2d_sigma_S)
    tiled = map_network_to_tiles(trained_tnn, hrs)
    rows, stats = weight_conductance_histogram(tiled)
    want = {t: 0 for t in TRITS}
    for i in trained_tnn.parametric_indices():
        vals, counts = np.unique(trained_tnn.weights[i].data,
                                 return_counts=True)
        for v, c in zip(vals, counts):
            want[int(v)] += int(c)
    for t in TRITS:
        assert sum(c for trit, _lo, _hi, c in rows if trit == t) == want[t]
        assert stats["count"][t] == want[t]


# ---------------------------------------------------------------------------
# 8. Determinism of CLI outputs at any thread count
# ---------------------------------------------------------------------------


def test_c8_bit_identical_outputs(tmp_path, dataset):
    from oxcim.data import write_dataset_dir
    from oxcim.data import DatasetStore
    data_dir = tmp_path / "data"
    small = DatasetStore(dataset.train_images[:10], dataset.train_labels[:10],
                         dataset.test_images[:30], dataset.test_labels[:30])
    write_dataset_dir(small, data_dir)
    weights = os.path.join(os.path.dirname(__file__), "data",
                           "golden_net.qnn")
    blobs = []
    for threads in ("1", "2", "3"):
        out_dir = tmp_path / f"t{threads}"
        cmd = [sys.executable, "-m", "oxcim.cli", "eval", "--mode",
               "hardware", "--weights", weights, "--data", str(data_dir),
               "--limit", "30", "--seed", "17", "--threads", threads,
               "--out-dir", str(out_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out_dir / "accuracy.csv").read_bytes()
                     + (out_dir / "confusion.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# ---------------------------------------------------------------------------
# 9. Weight-file memory accounting
# ---------------------------------------------------------------------------


def test_c9_weight_file_size(trained_bnn, trained_tnn):
    for net, factor in ((trained_bnn, 16.0), (trained_tnn, 8.0)):
        text = dumps(net)
        float_bytes = 4 * weight_count(net)
        assert len(text.encode()) <= float_bytes / factor
    # the binary LeNet carries 62520 weights; spell the bound out once
    assert weight_count(trained_bnn) == 62520
