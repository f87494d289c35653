import csv
import hashlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from oxcim import weightfile
from oxcim.cli import main
from oxcim.data import synthetic_dataset, write_dataset_dir
from oxcim.device import default_config_file
from oxcim.quant import Precision
from oxcim.train import Trainer
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


def run_cli(*argv):
    return main(list(argv))


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

    def test_seed_list_derived_from_trials(self, data_dir, weights_path,
                                           tmp_path):
        code = run_cli("eval", "--mode", "hardware", "--config", "hrs",
                       "--weights", weights_path, "--data", data_dir,
                       "--limit", "4", "--trials", "3",
                       "--out-dir", str(tmp_path))
        assert code == 0
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "seeds = 1,2,3" in manifest.splitlines()


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


class TestEncodePreview:
    def test_preview_prints_channels(self, data_dir, tmp_path, capsys):
        code = run_cli("encode-preview", "--data", data_dir, "--index", "1",
                       "--out-dir", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "label=" in out
        assert "channel 0" in out
        assert (tmp_path / "manifest.txt").exists()

    def test_index_out_of_range(self, data_dir, capsys):
        code = run_cli("encode-preview", "--data", data_dir, "--index", "99")
        assert code == 2


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


class TestManifest:
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
                   "--limit", "12", "--seed", "7", "--threads", threads,
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
