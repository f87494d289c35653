import argparse
import builtins
import csv
import hashlib
import io
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from oxcim import bench, cli, weightfile
from oxcim.cli import build_parser, main
from oxcim.data import synthetic_dataset
from oxcim.device import default_config_file
from oxcim.quant import Precision
from oxcim.train import Trainer
from conftest import write_dataset_dir
from test_train import small_arch


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("idxdata")
    write_dataset_dir(synthetic_dataset(n_train=300, n_test=80, seed=21), path)
    return str(path)


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "net.qnn"
    weightfile.save_network(Trainer(small_arch()).network(), path)
    return str(path)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

# sha256 of sense.csv for sweep-sense --dims 3x3 --precision binary
# --samples 200 --seed 11 on the packaged hrs config
SWEEP_3X3_SHA256 = \
    "9d34668c2269db7219a86768398d50b7446be4142af9f511a18de6546ac0a292"
# sha256 of the outputs of eval --mode hardware --config hrs --limit 12
# --seeds 1,2 and of hist --config hrs, on the data_dir and weights_path
# fixtures; recorded while bench wrote the CSVs
EVAL_HW_SHA256 = {
    "accuracy.csv":
        "6085492e10ae696d638bfe5cd31c86d8ba9de67344fff2a05866668846635eec",
    "confusion.csv":
        "98773a6a924915bced3cdad63a521eeb6d845b23cf6a05b187eee1b94bc729f5",
}
HIST_SHA256 = \
    "65feb15567dce1753986fc3768d1c5f8384b0fab3135e65eef77bcbeb3ea53d1"


# The flags each command takes (the README's flag table).
COMMAND_FLAGS = {
    "train": ["--weights", "--seed", "--out-dir", "--data", "--precision",
              "--epochs", "--batch", "--lr", "--r", "--weight-r",
              "--val-fraction", "--limit"],
    "eval": ["--config", "--weights", "--threads", "--out-dir", "--mode",
             "--data", "--limit", "--seeds", "--max-tile"],
    "sweep-sense": ["--config", "--seed", "--out-dir", "--dims",
                    "--precision", "--samples"],
    "hist": ["--config", "--weights", "--seed", "--out-dir"],
}


def run_cli(*argv):
    return main(list(argv))


def manifest(out_dir):
    return dict(line.split(" = ", 1) for line in
                (out_dir / "manifest.txt").read_text().splitlines())


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFlags:
    def test_each_command_takes_its_flags(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert sorted(commands) == sorted(COMMAND_FLAGS)
        for name, sub in commands.items():
            flags = [a.option_strings[0] for a in sub._actions
                     if a.option_strings and a.dest != "help"]
            assert flags == COMMAND_FLAGS[name], name

    # argparse reads a prefix of one of the command's flags as that flag
    # (eval's --seed as --seeds), so such a flag is not foreign to it
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in COMMAND_FLAGS
        for flag in ("--config", "--weights", "--seed", "--threads")
        if not any(f.startswith(flag) for f in COMMAND_FLAGS[command])])
    def test_a_flag_the_command_does_not_read_exits_2(self, command, flag,
                                                      capsys):
        required = {"train": ["--data", "d", "--precision", "binary"],
                    "eval": ["--mode", "ideal", "--data", "d"],
                    "sweep-sense": ["--precision", "binary"]}
        with pytest.raises(SystemExit) as err:
            run_cli(command, *required.get(command, []), flag, "1")
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "--mode", "ideal", "--wat")
        assert err.value.code == 2

    def test_eval_missing_weights_exits_2(self, data_dir, tmp_path):
        code = run_cli("eval", "--mode", "ideal", "--data", data_dir,
                       "--out-dir", str(tmp_path))
        assert code == 2

    def test_missing_file_is_diagnosed(self, tmp_path, capsys):
        code = run_cli("eval", "--mode", "ideal", "--weights", "nope.qnn",
                       "--data", str(tmp_path), "--out-dir", str(tmp_path))
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_weights_are_diagnosed(self, tmp_path, capsys, kind):
        path = tmp_path / "w.qnn"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"oxcim-qnn 1\nprecision = \xff\nend\n")
        code = run_cli("hist", "--weights", str(path),
                       "--out-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert "oxcim: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_eval_limit_below_one_is_diagnosed(self, data_dir, weights_path,
                                               tmp_path, capsys, limit):
        code = run_cli("eval", "--mode", "ideal", "--weights", weights_path,
                       "--data", data_dir, "--limit", limit,
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "oxcim: error: limit must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_train_limit_below_one_exits_2(self, data_dir, tmp_path, limit):
        code = run_cli("train", "--data", data_dir, "--precision", "ternary",
                       "--epochs", "1", "--limit", limit,
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "weights.qnn").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch", "0", "batch size must be >= 1"),
        ("--val-fraction", "1.5", "val fraction must lie in [0, 1)"),
        ("--epochs", "0", "epochs must be >= 1"),
        ("--lr", "-1", "learning rate must be finite and >= 0"),
        ("--lr", "nan", "learning rate must be finite and >= 0"),
        ("--weight-r", "1.5", "weight r must lie in (0, 1)"),
        ("--weight-r", "0", "weight r must lie in (0, 1)")],
        ids=["batch", "val_fraction", "epochs", "lr", "lr_nan", "weight_r",
             "weight_r_zero"])
    def test_train_config_out_of_range_is_diagnosed(self, data_dir, tmp_path,
                                                    capsys, flag, value,
                                                    message):
        code = run_cli("train", "--data", data_dir, "--precision", "ternary",
                       "--epochs", "1", flag, value,
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert f"oxcim: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "weights.qnn").exists()

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sweep_samples_below_one_is_diagnosed(self, tmp_path, capsys,
                                                  samples):
        code = run_cli("sweep-sense", "--precision", "ternary", "--samples",
                       samples, "--out-dir", str(tmp_path))
        assert code == 1
        assert "oxcim: error: samples must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sense.csv").exists()

    @pytest.mark.parametrize("where", ["config", "seed", "seeds"])
    def test_seed_outside_64_bits_exits_1_before_any_trial(
            self, data_dir, weights_path, tmp_path, capsys, monkeypatch,
            where):
        # seed = 2**64 in a config used to end in an OverflowError traceback
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "map_network_to_tiles", no_trial)
        monkeypatch.setattr(cli, "map_network_to_tiles", no_trial)
        cfg = tmp_path / "big.cfg"
        cfg.write_text("\n".join(
            f"seed = {2 ** 64}" if line.startswith("seed ") else line
            for line in default_config_file("hrs").read_text().splitlines()))
        # eval takes its seeds from the config or --seeds; hist's --seed
        # overrides the config's
        eval_ = ["eval", "--mode", "hardware", "--data", data_dir]
        argv = {"config": eval_ + ["--config", str(cfg)],
                "seed": ["hist", "--seed", str(2 ** 64)],
                "seeds": eval_ + ["--seeds", f"1,{-2 ** 63 - 1}"]}[where]
        code = run_cli(*argv, "--weights", weights_path,
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert "seed must lie in [-2**63, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sweep-sense", "train"])
    def test_negative_generator_seed_exits_1(self, data_dir, tmp_path, capsys,
                                             command):
        argv = {"sweep-sense": ["--precision", "binary", "--samples", "2"],
                "train": ["--data", data_dir, "--precision", "binary",
                          "--epochs", "1", "--limit", "8"]}[command]
        code = run_cli(command, *argv, "--seed", "-1",
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_eval_negative_threads_exits_2(self, data_dir, weights_path,
                                           tmp_path):
        code = run_cli("eval", "--mode", "ideal", "--weights", weights_path,
                       "--data", data_dir, "--threads", "-3",
                       "--out-dir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "accuracy.csv").exists()


class TestEval:
    def test_ideal_happy_path(self, data_dir, weights_path, tmp_path, capsys):
        code = run_cli("eval", "--mode", "ideal", "--weights", weights_path,
                       "--data", data_dir, "--limit", "40",
                       "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        for name in ("accuracy.csv", "confusion.csv", "summary.txt",
                     "manifest.txt"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "accuracy.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "mode", "accuracy"]
        assert rows[1][1] == "ideal"

    def test_hardware_with_named_config(self, data_dir, weights_path,
                                        tmp_path):
        code = run_cli("eval", "--mode", "hardware", "--config", "hrs",
                       "--weights", weights_path, "--data", data_dir,
                       "--limit", "15", "--out-dir", str(tmp_path))
        assert code == 0
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "config_sha" in manifest
        assert "weights_sha" in manifest
        entries = dict(line.split(" = ", 1)
                       for line in manifest.splitlines())
        assert entries["python"] == platform.python_version()
        assert entries["numpy"] == np.__version__
        assert entries["scipy"] == scipy.__version__

    def test_seed_list(self, data_dir, weights_path, tmp_path):
        code = run_cli("eval", "--mode", "hardware", "--weights", weights_path,
                       "--data", data_dir, "--limit", "10",
                       "--seeds", "4,9", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "accuracy.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == ["4", "9"]

    def test_without_seeds_one_trial_uses_the_config_seed(
            self, data_dir, weights_path, tmp_path):
        code = run_cli("eval", "--mode", "hardware", "--config", "hrs",
                       "--weights", weights_path, "--data", data_dir,
                       "--limit", "4", "--out-dir", str(tmp_path))
        assert code == 0
        assert manifest(tmp_path)["seeds"] == "1"  # the hrs config's seed
        with open(tmp_path / "accuracy.csv") as fh:
            assert [r[0] for r in list(csv.reader(fh))[1:]] == ["1"]


class TestSweepAndHist:
    def test_sweep_sense_ternary_spans_all_popcounts(self, tmp_path):
        code = run_cli("sweep-sense", "--dims", "4x4", "--precision",
                       "ternary", "--samples", "2000", "--seed", "3",
                       "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "sense.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        pcs = {int(r[0]) for r in rows}
        assert pcs == set(range(-4, 5))

    def test_hist_reports_separability(self, weights_path, tmp_path, capsys):
        code = run_cli("hist", "--weights", weights_path, "--config", "hrs",
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert "separability" in capsys.readouterr().out
        assert (tmp_path / "hist.csv").exists()


class TestTrainCommand:
    def test_short_training_run(self, data_dir, tmp_path, capsys):
        code = run_cli("train", "--data", data_dir, "--precision", "ternary",
                       "--epochs", "1", "--limit", "128", "--seed", "5",
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "weights.qnn").exists()
        assert (tmp_path / "loss.csv").exists()
        net = weightfile.load_network(tmp_path / "weights.qnn")
        assert net.precision is Precision.TERNARY


@pytest.fixture(scope="module")
def runs(data_dir, weights_path, tmp_path_factory):
    """Output directories of one run of each command that writes files."""
    root = tmp_path_factory.mktemp("runs")
    argvs = {
        "train": ["train", "--data", data_dir, "--precision", "ternary",
                  "--epochs", "2", "--limit", "64"],
        "eval": ["eval", "--mode", "hardware", "--config", "hrs",
                 "--weights", weights_path, "--data", data_dir, "--limit",
                 "12", "--seeds", "1,2"],
        "sweep-sense": ["sweep-sense", "--dims", "2x2", "--precision",
                        "binary", "--samples", "5"],
        "hist": ["hist", "--weights", weights_path, "--config", "hrs"],
    }
    for name, argv in argvs.items():
        assert main(argv + ["--out-dir", str(root / name)]) == 0
    return root


# file -> (command that writes it, header)
CSV_SCHEMAS = {
    "accuracy.csv": ("eval", ["seed", "mode", "accuracy"]),
    "confusion.csv": ("eval", ["true", "pred", "count"]),
    "sense.csv": ("sweep-sense",
                  ["popcount", "n_pos", "n_neg", "delta_uA", "v_neuron"]),
    "hist.csv": ("hist", ["trit", "bin_lo_S", "bin_hi_S", "count"]),
    "loss.csv": ("train", ["epoch", "train_loss", "val_loss"]),
}


class TestOutputs:
    @pytest.mark.parametrize("name", sorted(CSV_SCHEMAS))
    def test_csv_schema(self, runs, name):
        command, header = CSV_SCHEMAS[name]
        raw = (runs / command / name).read_bytes()
        assert raw.endswith(b"\r\n") and b"\n" not in raw.replace(b"\r\n", b"")
        with open(runs / command / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert all(len(row) == len(header) for row in rows)

    def test_confusion_csv_covers_all_pairs(self, runs):
        with open(runs / "eval" / "confusion.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(int(t), int(p)) for t, p, _ in rows] == \
            [(t, p) for t in range(10) for p in range(10)]
        assert sum(int(c) for *_, c in rows) == 12

    def test_loss_csv_has_the_initial_row_and_one_per_epoch(self, runs):
        lines = (runs / "train" / "loss.csv").read_text().splitlines()
        assert len(lines) == 4  # header + initial + 2 epochs
        assert lines[1].startswith("0,,")
        assert [line.split(",")[0] for line in lines[2:]] == ["1", "2"]

    def test_eval_hardware_outputs_are_pinned(self, runs):
        for name, want in EVAL_HW_SHA256.items():
            assert sha256(runs / "eval" / name) == want, name

    def test_hist_csv_is_pinned(self, runs):
        assert sha256(runs / "hist" / "hist.csv") == HIST_SHA256

    def test_no_temporary_files_remain(self, runs):
        assert not list(runs.rglob("*.tmp"))

    def test_train_weights_sha_hashes_the_written_file(self, runs):
        entries = manifest(runs / "train")
        assert entries["weights_sha"] == \
            sha256(runs / "train" / "weights.qnn")[:16]

    def test_manifest_is_written_last(self, data_dir, weights_path, tmp_path,
                                      monkeypatch):
        replaced = []
        real = os.replace

        def spy(src, dst):
            replaced.append(os.path.basename(dst))
            real(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        assert run_cli("eval", "--mode", "ideal", "--weights", weights_path,
                       "--data", data_dir, "--limit", "8",
                       "--out-dir", str(tmp_path)) == 0
        assert replaced == ["accuracy.csv", "confusion.csv", "summary.txt",
                            "manifest.txt"]


class TestManifest:
    @pytest.mark.parametrize("config", ["hrs", "file"])
    def test_shas_are_of_the_parsed_bytes_read_once(
            self, data_dir, weights_path, tmp_path, monkeypatch, config):
        if config == "file":
            config = str(tmp_path / "dev.cfg")
            (tmp_path / "dev.cfg").write_bytes(
                default_config_file("lrs").read_bytes())
        parsed, reads = [], []
        for module, attr in ((cli.device, "parse_device_config"),
                             (cli.weightfile, "loads")):
            def spy(data, name, parse=getattr(module, attr)):
                parsed.append(data)
                return parse(data, name=name)
            monkeypatch.setattr(module, attr, spy)
        real_open = io.open

        def spy_open(file, *args, **kwargs):
            reads.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy_open)
        monkeypatch.setattr(builtins, "open", spy_open)
        out = tmp_path / "out"
        assert run_cli("eval", "--mode", "ideal", "--config", config,
                       "--weights", weights_path, "--data", data_dir,
                       "--limit", "8", "--out-dir", str(out)) == 0
        config_bytes, weight_bytes = parsed
        entries = manifest(out)
        assert entries["config_sha"] == \
            hashlib.sha256(config_bytes).hexdigest()[:16]
        assert entries["weights_sha"] == \
            hashlib.sha256(weight_bytes).hexdigest()[:16]
        config_path = config if config != "hrs" else \
            str(default_config_file("hrs"))
        assert reads.count(config_path) == 1
        assert reads.count(weights_path) == 1

    @pytest.mark.parametrize("name", ["hrs", "lrs"])
    def test_packaged_config_sha_hashes_the_file(self, tmp_path, name):
        code = run_cli("sweep-sense", "--config", name, "--precision",
                       "binary", "--samples", "5", "--out-dir", str(tmp_path))
        assert code == 0
        entries = dict(line.split(" = ", 1) for line in
                       (tmp_path / "manifest.txt").read_text().splitlines())
        data = default_config_file(name).read_bytes()
        assert entries["config_sha"] == hashlib.sha256(data).hexdigest()[:16]


class TestDeterminism:
    def test_eval_outputs_bit_identical_across_thread_counts(
            self, data_dir, weights_path, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out_dir = tmp_path / f"t{threads}"
            cmd = [sys.executable, "-m", "oxcim.cli", "eval", "--mode",
                   "hardware", "--weights", weights_path, "--data", data_dir,
                   "--limit", "12", "--seeds", "7", "--threads", threads,
                   "--out-dir", str(out_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=os.path.dirname(weights_path))
            assert proc.returncode == 0, proc.stderr
            outs.append((out_dir / "accuracy.csv").read_bytes()
                        + (out_dir / "confusion.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_eval_outputs_bit_identical_across_blas_thread_counts(
            self, data_dir, weights_path, tmp_path):
        # no pin: READ sums are exact and trit products exact in float32,
        # so the BLAS pool size cannot move a bit
        outs = []
        for blas in ("1", "2"):
            out_dir = tmp_path / f"blas{blas}"
            env = dict(os.environ, **{var: blas for var in BLAS_VARS})
            cmd = [sys.executable, "-m", "oxcim.cli", "eval", "--mode",
                   "hardware", "--config", "hrs", "--weights", weights_path,
                   "--data", data_dir, "--limit", "12", "--seeds", "1,2",
                   "--threads", "2", "--out-dir", str(out_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=os.path.dirname(weights_path), env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append((out_dir / "accuracy.csv").read_bytes()
                        + (out_dir / "confusion.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_bit_identical_across_runs(self, tmp_path):
        blobs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            code = run_cli("sweep-sense", "--dims", "3x3", "--precision",
                           "binary", "--samples", "200", "--seed", "11",
                           "--out-dir", str(out_dir))
            assert code == 0
            blobs.append((out_dir / "sense.csv").read_bytes())
        assert blobs[0] == blobs[1]
        # recorded while the sweep still read through a per-vector tile
        # method; vmm_batch with a batch of one must give the same bits
        assert hashlib.sha256(blobs[0]).hexdigest() == SWEEP_3X3_SHA256
