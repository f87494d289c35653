"""Monte-Carlo experiment runner: accuracy trials, the sense sweep and the
conductance histogram.  The rows it returns are written out by the cli,
which holds the file schemas; plotting stays outside the package.

Trials are independent Monte-Carlo draws: each seed re-programs the tiles
(fresh device-to-device offsets) and re-keys the read noise.  Ideal-mode
runs have no randomness, so every trial reports the same number.

Evaluation sends the images through the forward passes in fixed chunks of
CHUNK (8) images, and the worker threads map over chunks.  The chunk
starting at image a reads with image_ordinal a, so its READ ids are those
of one pass per image; with exact column sums, neither CHUNK nor the
thread count moves a bit.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .crossbar import A_TO_UA, CrossbarTile, sense_to_activation
from .data import N_CLASSES, check_images, check_labels, pad_to_32
from .device import DeviceConfig, check_seed
from .errors import ConfigError, ShapeError, check_integer, check_integers, \
    check_type, shown
from .hardware import DEFAULT_MAX_TILE, TiledNetwork, check_max_tile, \
    map_network_to_tiles, predict_hardware
from .network import Activation, NetworkDescription, predict_ideal, \
    thermometric_trits
from .quant import popcount_oracle

CHUNK = 8  # images per forward pass (module docstring)
HIST_BINS = 40  # hist.csv bins per trit


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (true, pred) integer counts

    def __post_init__(self):
        self.counts = check_integers(self.counts, "counts", 0).astype(np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ShapeError("confusion matrix must be 10x10")

    @classmethod
    def from_predictions(cls, truth, pred):
        truth = check_integers(truth, "true classes", 0, N_CLASSES)
        truth = check_labels(truth, truth.size, what="true classes")
        pred = check_labels(pred, truth.size, what="predicted classes")
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        np.add.at(counts, (truth, pred), 1)
        return cls(counts)


@dataclass
class ExperimentSpec:
    net: object
    config: object
    mode: str                     # 'ideal' | 'hardware'
    seeds: list = None            # one trial per seed; default [config.seed]
    limit: int = None             # test-set slice: first N images
    max_tile: tuple = DEFAULT_MAX_TILE
    threads: int = 1

    def __post_init__(self):
        if self.mode not in ("ideal", "hardware"):
            raise ConfigError(f"mode must be ideal or hardware, got {shown(self.mode)}")
        check_integer(self.threads, "threads", lo=1)
        if self.limit is not None:
            check_integer(self.limit, "limit", lo=1)
        check_max_tile(self.max_tile)
        check_type(self.net, NetworkDescription)
        check_type(self.config, DeviceConfig)
        if self.seeds is None:
            self.seeds = [self.config.seed]
        seeds = np.asarray(self.seeds, dtype=object)  # ragged: no ValueError
        if seeds.ndim != 1 or not seeds.size:
            raise ConfigError(f"seeds must be a non-empty sequence, got "
                              f"{shown(self.seeds)}")
        for seed in self.seeds:
            check_seed(seed)
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
    """uint8 test images -> (N, C, 32, 32) int8 trit array."""
    return thermometric_trits(pad_to_32(images))


def _predict_many(fn, n, threads):
    """fn(a) for the chunk of images starting at a, joined in image order."""
    starts = range(0, n, CHUNK)
    if threads <= 1:
        parts = [fn(a) for a in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, starts))
    return np.concatenate(parts)


def run_accuracy(spec, images, labels):
    """Accuracy over trials; confusion matrix comes from the first seed."""
    check_type(spec, ExperimentSpec)
    spec = dataclasses.replace(spec)  # checks a spec changed since it was built
    spec.net.require_weights()
    images = check_images(images)
    n = images.shape[0] if spec.limit is None else min(spec.limit, images.shape[0])
    if n == 0:
        raise ShapeError("no images to evaluate")
    truth = check_labels(labels, images.shape[0])[:n]
    encoded = encode_images(images[:n])
    accuracies = []
    confusion = None
    ideal = None
    for seed in spec.seeds:
        if spec.mode == "ideal":
            # no randomness: the first trial's predictions serve every trial
            if ideal is None:
                ideal = _predict_many(
                    lambda a: predict_ideal(spec.net, encoded[a:a + CHUNK]),
                    n, spec.threads)
            preds = ideal
        else:
            cfg = dataclasses.replace(spec.config, seed=seed)
            tiled = map_network_to_tiles(spec.net, cfg, max_tile=spec.max_tile)
            preds = _predict_many(
                lambda a: predict_hardware(tiled, encoded[a:a + CHUNK],
                                           image_ordinal=a),
                n, spec.threads)
        accuracies.append(100.0 * float(np.mean(preds == truth)))
        if confusion is None:
            confusion = ConfusionMatrix.from_predictions(truth, preds)
    return AccuracyReport(spec.mode, list(spec.seeds), accuracies, confusion, n)


def sweep_sense_distribution(tile_dims, precision, config, samples=5000, seed=0):
    """Record (popcount, sense output) pairs for random small-tile VMMs.

    Each sample draws a fresh weight grid and input vector; every column of
    the tile contributes one row, with the exact digital popcount alongside
    the simulated differential current and neuron voltage.  The neuron gain
    maps one popcount unit of differential current to 1 uA.
    """
    if np.asarray(tile_dims, dtype=object).shape != (2,):
        raise ConfigError(f"sweep tile must be (rows, cols), got {shown(tile_dims)}")
    rows_n, cols_n = (check_integer(n, "sweep tile size", 1, 9)
                      for n in tile_dims)
    check_integer(samples, "samples", lo=1)
    check_integer(seed, "sweep seed", lo=0)  # numpy takes no seed < 0
    check_type(config, DeviceConfig).require_states(precision)
    trit_pool = np.asarray(precision.allowed_values, dtype=np.int8)
    gen = np.random.default_rng(seed)
    gain_uA = config.v_read * config.conductance_slope() * A_TO_UA
    rows = []
    for s in range(samples):
        w = trit_pool[gen.integers(0, trit_pool.size, size=(rows_n, cols_n))]
        x = trit_pool[gen.integers(0, trit_pool.size, size=rows_n)]
        tile = CrossbarTile(config, w, array_id=s + 1)
        i_pos, i_neg = tile.vmm_batch(x[None], [0])
        delta = i_pos[0] - i_neg[0]
        v = sense_to_activation(delta, Activation("sigmoid_output"), gain_uA)
        n_pos = int(np.count_nonzero(x > 0))
        n_neg = int(np.count_nonzero(x < 0))
        for c in range(cols_n):
            pc = popcount_oracle(x, w[:, c])
            rows.append((pc, n_pos, n_neg, float(delta[c]), float(v[c])))
    return rows


def weight_conductance_histogram(tiled):
    """Sampled cell conductances grouped by programmed trit.

    Returns (rows, stats): rows follow the hist.csv schema; stats holds the
    per-trit sample counts/means/stds and the separability statistic, the
    minimum over adjacent state pairs of |mean gap| / (sigma_lo + sigma_hi)
    (infinite when both spreads are zero).
    """
    by_trit = {}
    for state_grid, g_grid in check_type(tiled, TiledNetwork).all_cells():
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
        edges = np.linspace(lo, hi, HIST_BINS + 1)
        counts, _ = np.histogram(g, bins=edges)
        for k in range(HIST_BINS):
            rows.append((t, float(edges[k]), float(edges[k + 1]), int(counts[k])))
    trits = sorted(by_trit)
    gaps = []
    for a, b in zip(trits, trits[1:]):
        spread = stats["std_S"][a] + stats["std_S"][b]
        gap = abs(stats["mean_S"][b] - stats["mean_S"][a])
        gaps.append(gap / spread if spread > 0 else float("inf"))
    stats["separability"] = min(gaps) if gaps else float("inf")
    return rows, stats
