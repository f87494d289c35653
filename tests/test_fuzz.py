"""Fuzz the public entry points: each call returns or raises an OxcimError,
and each CLI run exits 0, 1 or 2.

Derandomized, with a fixed example count per target, so a run is
repeatable and its time bounded.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oxcim import weightfile
from oxcim.cli import main
from oxcim.data import synthetic_dataset, write_dataset_dir
from oxcim.device import default_config_file, parse_device_config
from oxcim.errors import OxcimError
from oxcim.quant import Precision
from oxcim.train import TrainConfig, Trainer, train
from oxcim.weightfile import dumps, loads
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



# Training: labels of a fuzzed dtype, up to three of them replaced by values
# in -1..11, the count often one off the image count, and up to three
# TrainConfig fields drawn from pools of valid and invalid values.
TRAIN_IMAGES = 12
LABEL_DTYPES = [np.int64, np.uint8, np.int8, np.float64, np.bool_]
TRAIN_CONFIG_VALUES = {
    "epochs": [1, 2, 0, -1, 1.0, 0.5, float("nan")],
    "batch_size": [1, 5, 11, 12, 64, 0, -1, 2.0, float("inf")],
    "lr": [0, 1e-3, 2e-2, 1e300, -1.0, float("nan"), float("inf")],
    "weight_r": [0.5, 0.999, 1e-9, 0.0, 1.0, -0.5, float("nan")],
    "val_fraction": [0.0, 0.1, 0.5, 0.95, 0.99, 1.0, -0.1, float("nan")],
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
    def test_train(self, train_corpus, call):
        images, _ = train_corpus
        labels, fields = call
        try:
            train(small_arch(), images, labels, TrainConfig(**fields))
        except OxcimError:
            pass


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
    "encode-preview": ["--data", "DATA"],
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
    "--limit": _COUNTS, "--trials": _COUNTS, "--samples": _COUNTS,
    "--index": _COUNTS + ["4"], "--lr": _REALS, "--r": _REALS,
    "--weight-r": _REALS, "--val-fraction": _REALS, "--max-tile": _DIMS,
    "--dims": _DIMS, "--precision": ["binary", "ternary", "x"],
    "--mode": ["ideal", "hardware", "x"], "--split": ["train", "test", "x"],
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
