"""Fuzz the public entry points: each call returns or raises an OxcimError,
and each CLI run exits 0, 1 or 2.

Derandomized, with a fixed example count per target, so a run is
repeatable and its time bounded.
"""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oxcim import weightfile
from oxcim.bench import (ConfusionMatrix, ExperimentSpec, run_accuracy,
                         sweep_sense_distribution,
                         weight_conductance_histogram)
from oxcim.cli import main
from oxcim.crossbar import CrossbarTile, sense_to_activation
from oxcim.data import DatasetStore, synthetic_dataset
from oxcim.device import (DeviceConfig, MlcStateModel, default_config_file,
                          default_device_config, parse_device_config,
                          sigmoid_ideal, sigmoid_neuron_voltage)
from oxcim.errors import ConfigError, OxcimError
from oxcim.hardware import (forward_hardware, map_network_to_tiles,
                            predict_hardware)
from oxcim.network import (Activation, Conv2D, Dense, MaxPool2D,
                           NetworkDescription, forward_ideal,
                           thermometric_trits)
from oxcim.quant import (Precision, TernaryTensor, act_binary, act_ternary,
                         popcount_oracle, quantize_weights)
from oxcim.train import TrainConfig, Trainer, train
from oxcim.weightfile import dumps, loads
from conftest import write_dataset_dir
from test_cli import COMMAND_FLAGS
from test_network import tiny_net
from test_train import small_arch

# Mutations of a valid file: drop, repeat or swap up to two lines, then put
# one of these values in place of up to two tokens (a key, a value or a
# field of a record); every example makes at least one change.
FUZZ_VALUES = [b"0", b"-1", b"nan", b"inf", b"", "\u00e9".encode(), b"\xff"]
FUZZ = settings(derandomize=True, max_examples=1500, deadline=None,
                database=None)


@st.composite
def mutated(draw, text):
    lines = text.encode().splitlines()
    n_ops = draw(st.integers(0, 2))
    for _ in range(n_ops):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap"]))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    for _ in range(draw(st.integers(0 if n_ops else 1, 2))):
        tokens = [(i, t.span()) for i, line in enumerate(lines)
                  for t in re.finditer(rb"[^\s=]+", line)]
        i, (start, stop) = draw(st.sampled_from(tokens))
        value = draw(st.sampled_from(FUZZ_VALUES))
        lines[i] = lines[i][:start] + value + lines[i][stop:]
    return b"\n".join(lines) + b"\n"


def parses_or_raises_oxcim_error(parse, data):
    try:
        parse(data)
    except OxcimError:
        pass


class TestTextFormats:
    @FUZZ
    @given(mutated(dumps(tiny_net(Precision.TERNARY, seed=5))))
    def test_weight_file(self, data):
        parses_or_raises_oxcim_error(loads, data)

    @FUZZ
    @given(mutated(default_config_file("hrs").read_text()))
    def test_device_config(self, data):
        parses_or_raises_oxcim_error(parse_device_config, data)



# Layer chains: input dimensions and up to four conv / pool / dense layers
# before a dense layer of 10, each size a small valid one or, one time in
# eight, one from a pool of odd values; compiled without weights.  Each conv
# or dense layer is followed by the activation its place needs, except in
# one chain in two, where one time in four it has none and one time in four
# two, and each one's kind is, three times in five, the kind its place
# needs, else one of the other two.
SIZES = [1, 2, 3, 4, 8]
ODD_SIZES = [0, -1, 2.5, 2.0, True, float("nan"), 2 ** 22, 2 ** 64, "3",
             None]
DEAD_BANDS = [0.5, 0.25, 1e-9, 0.5, 0.25, 0.0, -0.5, float("inf"),
              float("nan")]
LAYERS = {"conv": (Conv2D, 3), "pool": (MaxPool2D, 1), "dense": (Dense, 1)}
KINDS = ["binary", "ternary", "sigmoid_output"]
CHAIN_FUZZ = settings(derandomize=True, max_examples=1000, deadline=None,
                      database=None)


@st.composite
def layer_size(draw):
    return draw(st.sampled_from(ODD_SIZES if draw(st.integers(0, 7)) == 0
                                else SIZES))


@st.composite
def activation_kinds(draw, kind, odd):
    """The kinds of the activations after one conv or dense layer: [kind],
    or in an odd chain none, one or two, each mostly kind."""
    if not odd:
        return [kind]
    return [draw(st.sampled_from([kind, kind] + KINDS))
            for _ in range(draw(st.sampled_from([1, 1, 0, 2])))]


@st.composite
def layer_chain(draw):
    dims = [draw(layer_size())
            for _ in range(draw(st.sampled_from([3, 3, 3, 1, 0])))]
    precision = draw(st.sampled_from(list(Precision)))
    hidden = "binary" if precision is Precision.BINARY else "ternary"
    odd = draw(st.booleans())
    specs = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(sorted(LAYERS)))
        specs.append((kind, [draw(layer_size())
                             for _ in range(LAYERS[kind][1])],
                      [] if kind == "pool"
                      else draw(activation_kinds(hidden, odd))))
    specs.append(("dense", [10], draw(activation_kinds("sigmoid_output", odd))))
    return dims, specs, precision, draw(st.sampled_from(DEAD_BANDS))


class TestLayerChains:
    @CHAIN_FUZZ
    @given(layer_chain())
    def test_network_description(self, chain):
        dims, specs, precision, r = chain
        try:
            layers = []
            for kind, sizes, kinds in specs:
                layers.append(LAYERS[kind][0](*sizes))
                layers += [Activation(k, r) for k in kinds]
            net = NetworkDescription(precision, dims, layers,
                                     [None] * len(layers))
        except OxcimError:
            return
        hidden = "binary" if precision is Precision.BINARY else "ternary"
        kinds = [l.kind for l in layers if isinstance(l, Activation)]
        assert kinds == [hidden] * (len(kinds) - 1) + ["sigmoid_output"]
        assert isinstance(layers[-1], Activation)
        assert net.plan[-1].out_shape == (10,)


# The sense sweep: tile dimensions (usually two), sample counts and seeds
# from pools of valid and invalid values, on configs with and without a
# state 0.  Valid sample counts stay small so that every call is short.
SWEEP_DIMS = [1, 2, 8, 9, 0, -1, 2.5, 2.0, True, 2 ** 64, None, "2",
              np.int64(3), (2, 2)]
SWEEP_SAMPLES = [1, 2, 0, -1, 2.5, 2.0, True, None, "2"]
SWEEP_SEEDS = [0, 1, 2 ** 64, np.uint64(5), -1, 1.5, True, None, "1",
               -10 ** 5000]
SWEEP_FUZZ = settings(derandomize=True, max_examples=400, deadline=None,
                      database=None)


@st.composite
def sweep_call(draw):
    n_dims = draw(st.sampled_from([2, 2, 2, 2, 1, 3]))
    return (tuple(draw(st.sampled_from(SWEEP_DIMS)) for _ in range(n_dims)),
            draw(st.sampled_from(SWEEP_SAMPLES)),
            draw(st.sampled_from(SWEEP_SEEDS)),
            draw(st.sampled_from(list(Precision))),
            draw(st.sampled_from(["hrs", "lrs", "binary"])))


@pytest.fixture(scope="module")
def sweep_configs():
    hrs = default_device_config("hrs")
    return {"hrs": hrs, "lrs": default_device_config("lrs"),
            "binary": DeviceConfig("HRS", {t: hrs.states[t] for t in (-1, 1)})}


class TestSenseSweep:
    @SWEEP_FUZZ
    @given(sweep_call())
    # a seed too long for str(): its range error used to end in a ValueError
    @example(((2, 2), 1, -10 ** 5000, Precision.TERNARY, "hrs"))
    def test_sweep_sense_distribution(self, sweep_configs, call):
        dims, samples, seed, precision, config = call
        try:
            rows = sweep_sense_distribution(dims, precision,
                                            sweep_configs[config],
                                            samples=samples, seed=seed)
        except OxcimError:
            return
        assert len(rows) == samples * dims[1]


# Tiles and forward passes: trit arrays of a fuzzed shape and dtype with up
# to two entries replaced by a bad value (numpy then picks the dtype), and
# key words (array ids, READ-pair ids, image ordinals) drawn from one pool
# of valid and invalid values.  tiny_net reads 4 patches per image, so its
# largest ordinal for one image is 2**61 - 1.
BAD_ENTRIES = [2, -2, 0.5, 257, float("nan"), None, "a"]
TRIT_DTYPES = [np.int8, np.int64, np.float64, object]
KEY_WORDS = [0, 1, 7, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61, 2 ** 63 - 1,
             2 ** 63, 2 ** 64 - 1, 2 ** 64, -1, 1.5, float("nan"), "x", None,
             np.int64(5), np.uint64(2 ** 63)]
TILE_SHAPES = [(1, 1), (2, 3), (4, 2), (3,), (0, 2), (2, 0)]
FORWARD_SHAPES = [(1, 4, 4), (2, 1, 4, 4), (3, 1, 4, 4), (0, 1, 4, 4),
                  (4, 4), (1, 4, 5), (1, 1, 1, 4, 4)]
KEY_FUZZ = settings(derandomize=True, max_examples=400, deadline=None,
                    database=None)


@st.composite
def trits_like(draw, shape):
    n = math.prod(shape)
    values = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n,
                           max_size=n))
    bad = draw(st.integers(0, 2)) if n else 0
    for _ in range(bad):
        values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            BAD_ENTRIES))
    dtype = None if bad else draw(st.sampled_from(TRIT_DTYPES))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def tile_read(draw):
    grid = draw(trits_like(draw(st.sampled_from(TILE_SHAPES))))
    rows = max(0, grid.shape[0] + draw(st.sampled_from([0, 0, 0, 1, -1])))
    p = draw(st.integers(0, 3))
    x = draw(trits_like((p, rows) if draw(st.integers(0, 5)) else (rows,)))
    pairs = [draw(st.sampled_from(KEY_WORDS))
             for _ in range(p + draw(st.sampled_from([0, 0, 0, 1])))]
    return grid, draw(st.sampled_from(KEY_WORDS)), x, pairs


@pytest.fixture(scope="module")
def tiled_nets():
    nets = {p: tiny_net(p) for p in Precision}
    return {p: (net, map_network_to_tiles(net, default_device_config("hrs")))
            for p, net in nets.items()}


class TestTilesAndForwardPasses:
    @KEY_FUZZ
    @given(tile_read(), st.sampled_from(["hrs", "lrs"]))
    def test_tile_read(self, read, region):
        grid, array_id, x, pairs = read
        try:
            tile = CrossbarTile(default_device_config(region), grid, array_id)
            i_pos, i_neg = tile.vmm_batch(x, pairs)
        except OxcimError:
            return
        assert i_pos.shape == i_neg.shape == (len(pairs), grid.shape[1])
        assert np.all(np.isfinite(i_pos)) and np.all(np.isfinite(i_neg))

    @KEY_FUZZ
    @given(st.sampled_from(FORWARD_SHAPES).flatmap(trits_like),
           st.sampled_from(KEY_WORDS), st.sampled_from(list(Precision)))
    def test_forward_passes(self, tiled_nets, x, ordinal, precision):
        net, tiled = tiled_nets[precision]
        for forward in (lambda: forward_ideal(net, x),
                        lambda: forward_hardware(tiled, x, ordinal)):
            try:
                out = forward()
            except OxcimError:
                continue
            assert out.shape == x.shape[:-3] + (10,)
            assert np.all(np.isfinite(out))


# Real constants: the state means and sigmas, v_read, the ternary dead band
# (through Activation and quantize_weights) and the sense gain, each drawn
# from one pool of valid and invalid values.
REALS = [0.5, 1e-6, 2.0, np.float32(0.25), 3, 0.0, -1e-6, float("nan"),
         float("inf"), -float("inf"), 10 ** 400, 10 ** 5000, True, False,
         np.bool_(True), None, "0.5", 1j]
REAL_FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                     database=None)
DELTAS_UA = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])


class TestRealConstants:
    @REAL_FUZZ
    @given(st.tuples(*[st.sampled_from(REALS)] * 4))
    def test_device_config(self, values):
        mean, d2d, c2c, v_read = values
        try:
            low = MlcStateModel("-1", mean, d2d, c2c)
            DeviceConfig("HRS", {-1: low, 1: MlcStateModel("+1", 4.0)},
                         v_read=v_read)
        except OxcimError:
            pass

    @REAL_FUZZ
    @given(st.sampled_from(REALS), st.sampled_from(REALS),
           st.sampled_from(KINDS))
    def test_dead_band_and_gain(self, r, gain, kind):
        for call in (lambda: Activation("ternary", r),
                     lambda: quantize_weights(DELTAS_UA, Precision.TERNARY,
                                              r=r),
                     lambda: sense_to_activation(DELTAS_UA, Activation(kind, r),
                                                 gain_uA=gain)):
            try:
                call()
            except OxcimError:
                pass


# Training: labels of a fuzzed dtype, up to three of them replaced by values
# in -1..11, the count often one off the image count, and up to three
# TrainConfig fields drawn from pools of valid and invalid values.
TRAIN_IMAGES = 12
LABEL_DTYPES = [np.int64, np.uint8, np.int8, np.float64, np.bool_]
TRAIN_CONFIG_VALUES = {
    "epochs": [1, 2, 0, -1, 1.0, 0.5, float("nan")],
    "batch_size": [1, 5, 11, 12, 64, 0, -1, 2.0, float("inf")],
    "lr": [0, 1e-3, 2e-2, 1e300, -1.0, float("nan"), float("inf"), True,
           None, "0.1", 10 ** 5000],
    "weight_r": [0.5, 0.999, 1e-9, 0.0, 1.0, -0.5, float("nan"), True, None,
                 "0.1"],
    "val_fraction": [0.0, 0.1, 0.5, 0.95, 0.99, 1.0, -0.1, float("nan"),
                     True, None, "0.1"],
    "seed": [0, 1, 2 ** 64, -1, 1.5, float("nan")],
}
TRAIN_FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                      database=None)


@pytest.fixture(scope="module")
def train_corpus():
    store = synthetic_dataset(n_train=TRAIN_IMAGES, n_test=1, seed=4)
    return store.train_images, store.train_labels


@st.composite
def train_call(draw):
    length = TRAIN_IMAGES + draw(st.sampled_from([0, 0, -1, 1]))
    labels = [i % 10 for i in range(length)]
    for _ in range(draw(st.integers(0, 3))):
        labels[draw(st.integers(0, length - 1))] = draw(st.integers(-1, 11))
    dtype = draw(st.sampled_from(LABEL_DTYPES))
    fields = {}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(TRAIN_CONFIG_VALUES)))
        fields[name] = draw(st.sampled_from(TRAIN_CONFIG_VALUES[name]))
    return np.array(labels).astype(dtype), fields


class TestTraining:
    @TRAIN_FUZZ
    @given(train_call())
    @example((np.arange(TRAIN_IMAGES) % 10, {"lr": 10 ** 5000}))
    def test_train(self, train_corpus, call):
        images, _ = train_corpus
        labels, fields = call
        try:
            train(small_arch(), images, labels, TrainConfig(**fields))
        except OxcimError:
            pass


# ExperimentSpec: up to four fields drawn from pools of valid and invalid
# values, then one accuracy run over a 4-image corpus.  A config is drawn
# by its key in spec_corpus's configs: "none" stands for None and "name"
# for the config name "hrs", neither of them a DeviceConfig.
SPEC_VALUES = {
    "mode": ["ideal", "hardware", "x"],
    "config": ["hrs", "lrs", "binary", "none", "name"],
    "seeds": [None, [0], [1, 2], [], [1, 1], [1, 1.5], [2 ** 64], [-1], 3,
              (1, 2), np.array([1, 2]), [10 ** 5000]],
    "limit": [None, 1, 4, 5, 0, -1, 2.5, 2.0],
    "max_tile": [(64, 64), (16, 8), (2, 3), (64.5, 64), (0, 64), (8, 2),
                 (64,)],
    "threads": [1, 2, 0, -1, 1.5, 2.0],
}
SPEC_FUZZ = settings(derandomize=True, max_examples=200, deadline=None,
                     database=None)


@pytest.fixture(scope="module")
def spec_corpus():
    store = synthetic_dataset(n_train=1, n_test=4, seed=3)
    binary = DeviceConfig("HRS", {t: default_device_config("hrs").states[t]
                                  for t in (-1, 1)})
    configs = {"hrs": default_device_config("hrs"),
               "lrs": default_device_config("lrs"), "binary": binary,
               "none": None, "name": "hrs"}
    return (Trainer(small_arch()).network(), configs, store.test_images,
            store.test_labels)


@st.composite
def spec_fields(draw):
    fields = {"mode": "hardware", "config": "hrs"}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(SPEC_VALUES)))
        fields[name] = draw(st.sampled_from(SPEC_VALUES[name]))
    return fields


class TestExperimentSpec:
    @SPEC_FUZZ
    @given(spec_fields())
    def test_run_accuracy(self, spec_corpus, fields):
        net, configs, images, labels = spec_corpus
        fields = dict(fields, config=configs[fields["config"]])
        try:
            report = run_accuracy(ExperimentSpec(net=net, **fields), images,
                                  labels)
        except OxcimError:
            return
        assert len(report.accuracies) == len(report.seeds)


def mutated_spec(net, cfg):
    """A valid hardware spec whose config became a config name after it was
    built."""
    spec = ExperimentSpec(net, cfg, "hardware", seeds=[0])
    spec.config = "hrs"
    return spec


def not_a(kind):
    """The start of the ConfigError that refuses an object that is not a
    kind."""
    return f"not an? {kind}: "


# Each entry point that takes a net, a device config, a tiled net, a spec,
# a train config or an activation, given another kind of object (net,
# config, images and labels from spec_corpus): the start of its
# ConfigError, and the call.  The -tiled and -net cases pass a mapped net
# or a net, whose repr runs to thousands of characters, also where a
# number, a sequence or a function is expected; each message names its
# type instead.
WRONG_KINDS = {
    "spec-config-none": (not_a("DeviceConfig"),
                         lambda net, cfg, images, labels:
                         ExperimentSpec(net, config=None, mode="ideal")),
    "run-net-name": (not_a("NetworkDescription"),
                     lambda net, cfg, images, labels:
                     run_accuracy(ExperimentSpec("x", cfg, "ideal"), images,
                                  labels)),
    "run-config-name": (not_a("DeviceConfig"),
                        lambda net, cfg, images, labels:
                        run_accuracy(ExperimentSpec(net, "hrs", "hardware",
                                                    seeds=[0]),
                                     images, labels)),
    "run-spec-name": (not_a("ExperimentSpec"),
                      lambda net, cfg, images, labels:
                      run_accuracy("x", images, labels)),
    "run-spec-mutated": (not_a("DeviceConfig"),
                         lambda net, cfg, images, labels:
                         run_accuracy(mutated_spec(net, cfg), images,
                                      labels)),
    "map-net": (not_a("NetworkDescription"),
                lambda net, cfg, images, labels:
                map_network_to_tiles("x", cfg)),
    "map-config": (not_a("DeviceConfig"),
                   lambda net, cfg, images, labels:
                   map_network_to_tiles(net, "hrs")),
    "tile-config": (not_a("DeviceConfig"),
                    lambda net, cfg, images, labels:
                    CrossbarTile("hrs", np.ones((2, 2), np.int8))),
    "forward-ideal-net": (not_a("NetworkDescription"),
                          lambda net, cfg, images, labels: forward_ideal(
                              "x", np.ones((8, 32, 32), np.int8))),
    "forward-hardware-net": (not_a("TiledNetwork"),
                             lambda net, cfg, images, labels:
                             forward_hardware(net, np.ones(net.input_shape,
                                                           np.int8))),
    "forward-hardware-name": (not_a("TiledNetwork"),
                              lambda net, cfg, images, labels:
                              forward_hardware("x", np.ones((8, 32, 32),
                                                            np.int8))),
    "predict-hardware-net": (not_a("TiledNetwork"),
                             lambda net, cfg, images, labels:
                             predict_hardware(net, np.ones(net.input_shape,
                                                           np.int8))),
    "histogram-net": (not_a("TiledNetwork"),
                      lambda net, cfg, images, labels:
                      weight_conductance_histogram(net)),
    "histogram-name": (not_a("TiledNetwork"),
                       lambda net, cfg, images, labels:
                       weight_conductance_histogram("x")),
    "sweep-config": (not_a("DeviceConfig"),
                     lambda net, cfg, images, labels:
                     sweep_sense_distribution((2, 2), Precision.TERNARY,
                                              "hrs")),
    "map-net-tiled": (not_a("NetworkDescription"),
                      lambda net, cfg, images, labels: map_network_to_tiles(
                          map_network_to_tiles(net, cfg), cfg)),
    "forward-ideal-tiled": (not_a("NetworkDescription"),
                            lambda net, cfg, images, labels: forward_ideal(
                                map_network_to_tiles(net, cfg),
                                np.ones(net.input_shape, np.int8))),
    "spec-net-tiled": (not_a("NetworkDescription"),
                       lambda net, cfg, images, labels: ExperimentSpec(
                           map_network_to_tiles(net, cfg), cfg, "ideal")),
    "trainer-net-tiled": (not_a("NetworkDescription"),
                          lambda net, cfg, images, labels:
                          Trainer(map_network_to_tiles(net, cfg))),
    "map-config-net": (not_a("DeviceConfig"),
                       lambda net, cfg, images, labels:
                       map_network_to_tiles(net, net)),
    "spec-config-tiled": (not_a("DeviceConfig"),
                          lambda net, cfg, images, labels: ExperimentSpec(
                              net, map_network_to_tiles(net, cfg),
                              "hardware")),
    "tile-config-tiled": (not_a("DeviceConfig"),
                          lambda net, cfg, images, labels: CrossbarTile(
                              map_network_to_tiles(net, cfg),
                              np.ones((2, 2), np.int8))),
    "trainer-config-tiled": (not_a("TrainConfig"),
                             lambda net, cfg, images, labels:
                             Trainer(net, map_network_to_tiles(net, cfg))),
    "train-config-net": (not_a("TrainConfig"),
                         lambda net, cfg, images, labels:
                         train(net, images, labels, net)),
    "sense-activation-tiled": (not_a("Activation"),
                               lambda net, cfg, images, labels:
                               sense_to_activation(
                                   np.zeros(2),
                                   map_network_to_tiles(net, cfg))),
    "run-spec-tiled": (not_a("ExperimentSpec"),
                       lambda net, cfg, images, labels: run_accuracy(
                           map_network_to_tiles(net, cfg), images, labels)),
    "spec-seeds-tiled": ("seeds must be a non-empty sequence, got "
                         "TiledNetwork$",
                         lambda net, cfg, images, labels: ExperimentSpec(
                             net, cfg, "hardware",
                             seeds=map_network_to_tiles(net, cfg))),
    "spec-seed-net": ("seed must be an integer, got NetworkDescription$",
                      lambda net, cfg, images, labels:
                      ExperimentSpec(net, cfg, "hardware", seeds=[net])),
    "spec-limit-tiled": ("limit must be an integer, got TiledNetwork$",
                         lambda net, cfg, images, labels: ExperimentSpec(
                             net, cfg, "ideal",
                             limit=map_network_to_tiles(net, cfg))),
    "train-lr-tiled": ("learning rate must be a real number, got "
                       "TiledNetwork$",
                       lambda net, cfg, images, labels:
                       TrainConfig(lr=map_network_to_tiles(net, cfg))),
    "map-max-tile-tiled": (r"max tile must be \(rows, cols\), got "
                           "TiledNetwork$",
                           lambda net, cfg, images, labels:
                           map_network_to_tiles(
                               net, cfg,
                               max_tile=map_network_to_tiles(net, cfg))),
    "spec-max-tile-net": (r"max tile must be \(rows, cols\), got "
                          "NetworkDescription$",
                          lambda net, cfg, images, labels:
                          ExperimentSpec(net, cfg, "ideal", max_tile=net)),
    "fit-log-fn-tiled": ("log_fn is not callable: TiledNetwork$",
                         lambda net, cfg, images, labels: Trainer(net).fit(
                             images, labels,
                             log_fn=map_network_to_tiles(net, cfg))),
    "dumps-name": (not_a("NetworkDescription"),
                   lambda net, cfg, images, labels: dumps("x")),
    "save-name": (not_a("NetworkDescription"),
                  lambda net, cfg, images, labels:
                  weightfile.save_network("x", os.devnull)),
}


class TestWrongKindOfObject:
    @pytest.mark.parametrize("call", list(WRONG_KINDS))
    def test_config_error_before_use(self, spec_corpus, call):
        net, configs, images, labels = spec_corpus
        message, fn = WRONG_KINDS[call]
        with pytest.raises(ConfigError, match=message) as err:
            fn(net, configs["hrs"], images, labels)
        assert len(str(err.value)) <= 300


# Array arguments: every array drawn from one pool.  It starts from valid
# values cast to one of the pool's dtypes, then up to two entries take a
# value of that dtype from the pool (NaN, +-inf, 0.5j, None, "a", True,
# -128 ...); shapes include empty and 0-d, and every target also takes the
# ragged nest RAGGED.  Each call returns or raises an OxcimError; a returned
# accuracy run also counts every label once, in its own row of the
# confusion matrix, and a returned trit or image array had a number dtype.
ARRAY_POOL = {
    np.float64: [0.5, 7.0, 300.0, -1e300, float("nan"), float("inf"),
                 -float("inf")],
    np.complex128: [0.5j, 1 + 1j],
    object: [None, "a", 1.5],
    np.str_: ["a", "1"],
    np.bool_: [True, False],
    np.int8: [-1, 7, -128, 127],
    np.uint8: [2, 10, 255],
}
RAGGED = [[1, 0], [1]]
VALUE_SHAPES = [(), (0,), (3,), (2, 3), (10, 10)]
TRIT_SHAPES = [(), (0,), (2,), (2, 2), (1, 4, 4), (2, 1, 4, 4)]
IMAGE_SHAPES = [(2, 28, 28), (28, 28), (0, 28, 28), (2, 1, 28, 28), (2,)]
ARRAY_FUZZ = settings(derandomize=True, max_examples=300, deadline=None,
                      database=None)


@st.composite
def pool_arrays(draw, shapes, valid):
    shape = draw(st.sampled_from(shapes))
    dtype = draw(st.sampled_from(list(ARRAY_POOL)))
    n = math.prod(shape)
    arr = np.array([draw(st.sampled_from(valid)) for _ in range(n)])
    arr = arr.astype(dtype).reshape(shape)
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        arr.flat[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from(ARRAY_POOL[dtype]))
    return arr


@st.composite
def pool_images(draw):
    """An array of an IMAGE_SHAPES shape: a pool array of at most 16 values
    repeated to fill it (drawing 1,568 values one by one would be slow)."""
    shape = draw(st.sampled_from(IMAGE_SHAPES))
    block = draw(pool_arrays([(min(16, math.prod(shape)),)], [0, 17, 255]))
    return np.resize(block, shape)


@pytest.fixture(scope="module")
def read_tile():
    return CrossbarTile(default_device_config("hrs"),
                        np.ones((2, 3), dtype=np.int8))


class TestArrays:
    @ARRAY_FUZZ
    @given(pool_arrays(VALUE_SHAPES, [-2.0, -0.5, 0.0, 0.3, 1.0, 200.0]),
           st.sampled_from(list(Precision)),
           st.sampled_from(KINDS))
    @example(RAGGED, Precision.TERNARY, "ternary")
    def test_real_arrays(self, x, precision, kind):
        for call in (lambda: act_binary(x), lambda: act_ternary(x, 0.5),
                     lambda: quantize_weights(x, precision),
                     lambda: sigmoid_ideal(x),
                     lambda: sigmoid_neuron_voltage(x),
                     lambda: thermometric_trits(x),
                     lambda: sense_to_activation(x, Activation(kind))):
            try:
                call()
            except OxcimError:
                pass

    @ARRAY_FUZZ
    @given(pool_arrays(VALUE_SHAPES, [0, 1, 5, 9]),
           pool_arrays(VALUE_SHAPES, [0, 1, 5, 9]))
    @example(RAGGED, RAGGED)
    @example(np.arange(2), RAGGED)
    def test_integer_arrays(self, read_tile, a, b):
        x = np.ones((np.size(a) if isinstance(a, np.ndarray) else 2, 2),
                    dtype=np.int8)
        for call in (lambda: ConfusionMatrix(a),
                     lambda: ConfusionMatrix.from_predictions(a, b),
                     lambda: read_tile.vmm_batch(x, a)):
            try:
                call()
            except OxcimError:
                pass

    @ARRAY_FUZZ
    @given(pool_arrays([(1, 4, 4), (2, 1, 4, 4), (0, 1, 4, 4), (4, 4),
                        (1, 1, 4)], [-1, 0, 1]),
           pool_arrays([(), (0,), (1,), (2,)], [0, 3, 9]),
           st.sampled_from(list(Precision)))
    @example(RAGGED, np.arange(1), Precision.TERNARY)
    @example(np.ones((1, 1, 4, 4)), RAGGED, Precision.BINARY)
    def test_training_batches(self, x, labels, precision):
        trainer = Trainer(tiny_net(precision), TrainConfig(seed=1))
        try:
            loss, grads = trainer.loss_and_grads(x, labels)
        except OxcimError:
            return
        assert np.isfinite(loss) and len(grads) == 2

    @ARRAY_FUZZ
    @given(pool_arrays([(4,), (4,), (3,), (5,), (), (0,)], [0, 3, 9]),
           st.sampled_from([None, 2]))
    @example(RAGGED, None)
    def test_accuracy_labels(self, spec_corpus, labels, limit):
        net, configs, images, _ = spec_corpus
        spec = ExperimentSpec(net=net, config=configs["hrs"], mode="ideal",
                              limit=limit)
        try:
            report = run_accuracy(spec, images, labels)
        except OxcimError:
            return
        np.testing.assert_array_equal(
            report.confusion.counts.sum(axis=1),
            np.bincount(labels[:report.n_images], minlength=10))

    @ARRAY_FUZZ
    @given(pool_arrays(TRIT_SHAPES, [-1, 0, 1]))
    @example(RAGGED)
    def test_trit_arrays(self, read_tile, tiled_nets, x):
        cfg = default_device_config("hrs")
        calls = [lambda: popcount_oracle(x, x),
                 lambda: CrossbarTile(cfg, x),
                 lambda: read_tile.vmm_batch(x, [0, 1]),
                 lambda: cfg.grids_for(x)]
        for precision, (net, tiled) in tiled_nets.items():
            calls += [lambda p=precision: TernaryTensor(x, p),
                      lambda n=net: forward_ideal(n, x),
                      lambda t=tiled: forward_hardware(t, x)]
        for call in calls:
            try:
                call()
            except OxcimError:
                continue
            assert x.dtype.kind in "iuf"

    @ARRAY_FUZZ
    @given(pool_images())
    @example(RAGGED)
    def test_images(self, spec_corpus, x):
        net, configs, _, _ = spec_corpus
        spec = ExperimentSpec(net=net, config=configs["hrs"], mode="ideal")
        labels = np.array([3, 7])
        cfg = TrainConfig(epochs=1, val_fraction=0.0)
        for call in (lambda: DatasetStore(x, labels, x, labels),
                     lambda: train(small_arch(), x, labels, cfg),
                     lambda: Trainer(small_arch()).evaluate_loss(x, labels),
                     lambda: run_accuracy(spec, x, labels)):
            try:
                call()
            except OxcimError:
                continue
            assert x.dtype == np.uint8 and x.shape == (2, 28, 28)


# CLI argv: a valid command line, then up to five flags, mostly the
# command's own, each with a value from its pool; a later flag overrides an
# earlier one.  DATA, WEIGHTS and CONFIG stand for a tiny dataset, a weight
# file and a config file, MISSING for a path that does not exist.  Counts
# stay small so that every run is short.
CLI_BASE = {
    "train": ["--data", "DATA", "--precision", "ternary", "--epochs", "1",
              "--limit", "16"],
    "eval": ["--mode", "ideal", "--weights", "WEIGHTS", "--data", "DATA"],
    "sweep-sense": ["--precision", "binary", "--samples", "2"],
    "hist": ["--weights", "WEIGHTS"],
}
_COUNTS = ["0", "1", "2", "-1", "x"]
_REALS = ["0", "0.5", "2", "-1", "nan", "inf", "x"]
_PATHS = ["DATA", "WEIGHTS", "CONFIG", "MISSING", ""]
_DIMS = ["2x2", "0x0", "64x64", "3x-1", "3", "x"]
CLI_VALUES = {
    "--config": ["hrs", "lrs", "HRS"] + _PATHS, "--weights": _PATHS,
    "--data": _PATHS, "--seed": ["0", "-1", str(2 ** 64 - 1), str(2 ** 64),
                                 str(-2 ** 63 - 1), "x"],
    "--seeds": ["1,2", "1,1", "", ",", "-1", str(2 ** 64), "x"],
    "--threads": _COUNTS, "--epochs": _COUNTS, "--batch": _COUNTS,
    "--limit": _COUNTS, "--samples": _COUNTS, "--lr": _REALS, "--r": _REALS,
    "--weight-r": _REALS, "--val-fraction": _REALS, "--max-tile": _DIMS,
    "--dims": _DIMS, "--precision": ["binary", "ternary", "x"],
    "--mode": ["ideal", "hardware", "x"],
}
CLI_FUZZ = settings(derandomize=True, max_examples=1200, deadline=None,
                    database=None)


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    write_dataset_dir(synthetic_dataset(n_train=24, n_test=4, seed=2),
                      root / "data")
    weightfile.save_network(Trainer(small_arch()).network(), root / "w.qnn")
    (root / "c.cfg").write_bytes(default_config_file("lrs").read_bytes())
    return {"DATA": str(root / "data"), "WEIGHTS": str(root / "w.qnn"),
            "CONFIG": str(root / "c.cfg"), "MISSING": str(root / "nope"),
            "OUT": str(root / "out")}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(CLI_BASE)))
    own = [f for f in COMMAND_FLAGS[command] if f != "--out-dir"]
    argv = [command] + CLI_BASE[command]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(own * 10 + sorted(CLI_VALUES)))
        argv += [flag, draw(st.sampled_from(CLI_VALUES[flag]))]
    return argv


class TestCommandLine:
    @CLI_FUZZ
    @given(cli_argv())
    def test_argv(self, cli_paths, argv):
        argv = [cli_paths.get(a, a) for a in argv]
        try:
            code = main(argv + ["--out-dir", cli_paths["OUT"]])
        except SystemExit as exc:  # argparse: usage errors
            code = exc.code
        assert code in (0, 1, 2)
