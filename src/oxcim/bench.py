"""Monte-Carlo experiment runner and report emission.

Reports are CSV files plus a compact text summary; plotting stays outside
the package.  Column schemas:

    accuracy.csv   seed, mode, accuracy          (accuracy in percent)
    confusion.csv  true, pred, count             (first seed / single run)
    sense.csv      popcount, n_pos, n_neg, delta_uA, v_neuron
    hist.csv       trit, bin_lo_S, bin_hi_S, count

Trials are independent Monte-Carlo draws: each seed re-programs the tiles
(fresh device-to-device offsets) and re-keys the read noise.  Ideal-mode
runs have no randomness, so every trial reports the same number.
"""

import csv
import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .crossbar import CrossbarTile
from .data import pad_to_32
from .device import sigmoid_neuron_voltage
from .errors import ConfigError, ShapeError
from .hardware import map_network_to_tiles, predict_hardware
from .network import predict_ideal, thermometric_trits
from .quant import popcount_oracle

N_CLASSES = 10


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (true, pred) integer counts

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ShapeError("confusion matrix must be 10x10")

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def overall_accuracy(self):
        return 100.0 * np.trace(self.counts) / max(self.total, 1)

    def per_class_accuracy(self):
        row = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            acc = np.diag(self.counts) / np.where(row > 0, row, 1)
        return 100.0 * acc

    @classmethod
    def from_predictions(cls, truth, pred):
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        np.add.at(counts, (np.asarray(truth), np.asarray(pred)), 1)
        return cls(counts)


@dataclass
class ExperimentSpec:
    net: object
    config: object
    mode: str                     # 'ideal' | 'hardware'
    trials: int = 1
    seeds: list = None
    limit: int = None             # test-set slice: first N images
    max_tile: tuple = (64, 64)
    threads: int = 1

    def __post_init__(self):
        if self.mode not in ("ideal", "hardware"):
            raise ConfigError(f"mode must be ideal or hardware, got {self.mode!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.seeds is None:
            self.seeds = [self.config.seed + i for i in range(self.trials)]
        if len(self.seeds) != self.trials:
            raise ConfigError(f"{self.trials} trials but {len(self.seeds)} seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")


@dataclass
class AccuracyReport:
    mode: str
    seeds: list
    accuracies: list
    confusion: ConfusionMatrix
    n_images: int

    @property
    def mean(self):
        return float(np.mean(self.accuracies))

    @property
    def std(self):
        return float(np.std(self.accuracies))

    def summary(self):
        per_seed = ", ".join(f"{s}:{a:.2f}%" for s, a in
                             zip(self.seeds, self.accuracies))
        return (f"mode={self.mode} images={self.n_images} "
                f"accuracy={self.mean:.2f}% (std {self.std:.2f}) [{per_seed}]")


def encode_images(images):
    """uint8 test images -> list of (C, 32, 32) trit arrays."""
    padded = pad_to_32(np.asarray(images))
    return [thermometric_trits(img) for img in padded]


def _predict_many(fn, n, threads):
    if threads <= 1:
        return [fn(i) for i in range(n)]
    out = [None] * n
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, p in enumerate(pool.map(fn, range(n))):
            out[i] = p
    return out


def run_accuracy(spec, images, labels):
    """Accuracy over trials; confusion matrix comes from the first seed."""
    spec.net.require_weights()
    n = images.shape[0] if spec.limit is None else min(spec.limit, images.shape[0])
    truth = np.asarray(labels[:n], dtype=np.int64)
    encoded = encode_images(images[:n])
    accuracies = []
    confusion = None
    ideal = None
    for seed in spec.seeds:
        if spec.mode == "ideal":
            # no randomness: the first trial's predictions serve every trial
            if ideal is None:
                ideal = _predict_many(
                    lambda i: predict_ideal(spec.net, encoded[i]), n,
                    spec.threads)
            preds = ideal
        else:
            cfg = dataclasses.replace(spec.config, seed=seed)
            tiled = map_network_to_tiles(spec.net, cfg, max_tile=spec.max_tile)
            preds = _predict_many(
                lambda i: predict_hardware(tiled, encoded[i], image_ordinal=i),
                n, spec.threads)
        preds = np.asarray(preds, dtype=np.int64)
        accuracies.append(100.0 * float(np.mean(preds == truth)))
        if confusion is None:
            confusion = ConfusionMatrix.from_predictions(truth, preds)
    return AccuracyReport(spec.mode, list(spec.seeds), accuracies, confusion, n)


def sweep_sense_distribution(tile_dims, precision, config, samples=5000, seed=0,
                             neuron=None):
    """Record (popcount, sense output) pairs for random small-tile VMMs.

    Each sample draws a fresh weight grid and input vector; every column of
    the tile contributes one row, with the exact digital popcount alongside
    the simulated differential current and neuron voltage.  The neuron gain
    maps one popcount unit of differential current to 1 uA.
    """
    rows_n, cols_n = tile_dims
    if rows_n > 8 or cols_n > 8 or rows_n < 1 or cols_n < 1:
        raise ConfigError(f"sweep tiles must be between 1x1 and 8x8, got {tile_dims}")
    config.require_states(precision)
    trit_pool = np.asarray(precision.allowed_values, dtype=np.int8)
    gen = np.random.default_rng(seed)
    gain_uA = config.v_read * config.conductance_slope() * 1e6
    rows = []
    for s in range(samples):
        w = trit_pool[gen.integers(0, trit_pool.size, size=(rows_n, cols_n))]
        x = trit_pool[gen.integers(0, trit_pool.size, size=rows_n)]
        tile = CrossbarTile(config, w, array_id=s + 1)
        res = tile.vmm_two_phase(x, read_pair=0)
        delta = res.delta_uA
        v = sigmoid_neuron_voltage(delta / gain_uA, neuron)
        n_pos = int(np.count_nonzero(x > 0))
        n_neg = int(np.count_nonzero(x < 0))
        for c in range(cols_n):
            pc = popcount_oracle(x, w[:, c])
            rows.append((pc, n_pos, n_neg, float(delta[c]), float(v[c])))
    return rows


def weight_conductance_histogram(tiled, bins=40):
    """Sampled cell conductances grouped by programmed trit.

    Returns (rows, stats): rows follow the hist.csv schema; stats holds the
    per-trit sample counts/means/stds and the separability statistic, the
    minimum over adjacent state pairs of |mean gap| / (sigma_lo + sigma_hi)
    (infinite when both spreads are zero).
    """
    by_trit = {}
    for state_grid, g_grid in tiled.all_cells():
        for t in np.unique(state_grid):
            sel = state_grid == t
            by_trit.setdefault(int(t), []).append(g_grid[sel])
    rows = []
    stats = {"count": {}, "mean_S": {}, "std_S": {}}
    for t in sorted(by_trit):
        g = np.concatenate(by_trit[t])
        stats["count"][t] = int(g.size)
        stats["mean_S"][t] = float(g.mean())
        stats["std_S"][t] = float(g.std())
        lo, hi = float(g.min()), float(g.max())
        if lo == hi:
            hi = lo + max(abs(lo), 1e-12) * 1e-9  # delta spike: one thin bin
        edges = np.linspace(lo, hi, bins + 1)
        counts, _ = np.histogram(g, bins=edges)
        for k in range(bins):
            rows.append((t, float(edges[k]), float(edges[k + 1]), int(counts[k])))
    trits = sorted(by_trit)
    gaps = []
    for a, b in zip(trits, trits[1:]):
        spread = stats["std_S"][a] + stats["std_S"][b]
        gap = abs(stats["mean_S"][b] - stats["mean_S"][a])
        gaps.append(gap / spread if spread > 0 else float("inf"))
    stats["separability"] = min(gaps) if gaps else float("inf")
    return rows, stats


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    os.replace(tmp, path)  # atomic: no partially written outputs


def write_accuracy_csv(path, report):
    _write_csv(path, ["seed", "mode", "accuracy"],
               [(s, report.mode, repr(a))
                for s, a in zip(report.seeds, report.accuracies)])


def write_confusion_csv(path, confusion):
    rows = [(t, p, int(confusion.counts[t, p]))
            for t in range(N_CLASSES) for p in range(N_CLASSES)]
    _write_csv(path, ["true", "pred", "count"], rows)


def write_sense_csv(path, rows):
    _write_csv(path, ["popcount", "n_pos", "n_neg", "delta_uA", "v_neuron"],
               [(pc, npos, nneg, repr(d), repr(v))
                for pc, npos, nneg, d, v in rows])


def write_hist_csv(path, rows):
    _write_csv(path, ["trit", "bin_lo_S", "bin_hi_S", "count"],
               [(t, repr(lo), repr(hi), c) for t, lo, hi, c in rows])
