import os
import shutil
import struct

# All BLAS pools on one thread, as in benchmarks/run.py, so the float64
# training matmuls reduce in one order.  Evaluation bits do not depend on
# the pool size (test_cli.TestDeterminism checks it).  OpenBLAS reads these
# once, when numpy loads it, so they are set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from oxcim.data import STANDARD_FILES, synthetic_dataset  # noqa: E402
from oxcim.device import default_device_config  # noqa: E402

# CLI tests start child interpreters, some from a temporary cwd; a relative
# PYTHONPATH entry (e.g. `PYTHONPATH=src` from a checkout) would point the
# child at nothing, so pin every entry to this process's cwd.
if os.environ.get("PYTHONPATH"):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) for p in os.environ["PYTHONPATH"].split(os.pathsep))

FMNIST_ENV = "OXCIM_FMNIST_DIR"


def pytest_addoption(parser):
    parser.addoption(
        "--extended", action="store_true", default=False,
        help="run the hours-scale full-dataset training checks")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "extended: hours-scale checks, opt in with --extended")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="extended run only (pass --extended)")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


_ACCEPTANCE_RESULTS = {}

_ACCEPTANCE_LABELS = {
    "c1": "oracle equivalence (exhaustive 4x1 two-phase vs affine formula)",
    "c2": "balanced-sign fidelity (exhaustive 4x4 binary)",
    "c3": "popcount discretization of the sense sweep",
    "c4": "sigmoid neuron transfer curve",
    "c5": "bounded hardware degradation (<=5 points, HRS<=LRS ordering)",
    "c5a": "zero-variability hardware within 1 point of ideal",
    "c5b": "zero-variability disagreements are ideal ties (TNN agrees >= 99%)",
    "c6": "training sanity run (loss improves)",
    "c6x": "full-dataset training reproduction (extended)",
    "c7": "separability at 3 sigma + histogram conservation",
    "c8": "bit-identical outputs at any thread count",
    "c9": "weight-file memory accounting",
}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_" not in report.nodeid:
        return
    name = report.nodeid.split("::test_", 1)[1].split("_", 1)[0]
    if _ACCEPTANCE_RESULTS.get(name, "PASS") != "PASS":
        return  # a parametrized criterion keeps its first failure
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = ("PASS" if report.passed else "FAIL")
    elif report.when == "setup":
        if report.skipped:
            _ACCEPTANCE_RESULTS[name] = "SKIP"
        elif report.failed:
            _ACCEPTANCE_RESULTS[name] = "ERROR"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_ACCEPTANCE_RESULTS,
                      key=lambda k: (int("".join(filter(str.isdigit, k))), k)):
        label = _ACCEPTANCE_LABELS.get(key, key)
        terminalreporter.write_line(
            f"criterion {key:<4} {_ACCEPTANCE_RESULTS[key]:<5} {label}")


def patches(op, x):
    """The input vectors that op's lowered weight matrix multiplies: a dense
    layer's (N, K) input x itself, or the (N*P, K) patch matrix of a conv's
    input batch x, whose row n*P + p holds what output position p
    (row-major) of image n reads, in the lowered weight matrix's row order."""
    if op.gather is None:
        return x
    n = x.shape[0]
    return np.take(x.reshape(n, -1), op.gather, axis=1).reshape(-1, op.fan_in)


def save_idx(path, array):
    """Write an ndarray as an IDX file (ubyte payloads only)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">BBBB", 0, 0, 0x08, arr.ndim))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def write_dataset_dir(store, path):
    """Write a DatasetStore as the four standard IDX files."""
    os.makedirs(path, exist_ok=True)
    for key, name in STANDARD_FILES.items():
        save_idx(os.path.join(path, name), getattr(store, key))


def real_dataset_dir():
    """Directory with the real benchmark IDX files, if the user provided one."""
    path = os.environ.get(FMNIST_ENV)
    return path if path and os.path.isdir(path) else None


@pytest.fixture(scope="session")
def hrs_config():
    return default_device_config("hrs")


@pytest.fixture(scope="session")
def lrs_config():
    return default_device_config("lrs")


@pytest.fixture(scope="session")
def dataset():
    """Evaluation corpus: real data when pointed at it, synthetic otherwise."""
    path = real_dataset_dir()
    if path:
        from oxcim.data import load_dataset_dir
        return load_dataset_dir(path)
    return synthetic_dataset(n_train=6000, n_test=2000, seed=7)


def _train_fixture(precision_name, request, dataset):
    """Train (or load the cached) small fixture net for accuracy tests.

    The net is cached in pytest's cache directory, where training a net
    under a new key deletes the nets of that precision kept under other
    keys; with the cache provider off (-p no:cacheprovider) it is trained
    into a session temporary directory instead.
    """
    import hashlib

    from oxcim import weightfile
    from oxcim.network import lenet
    from oxcim.quant import Precision
    from oxcim.train import TrainConfig, train

    cfg = TrainConfig(epochs=4, batch_size=64, lr=2e-3, val_fraction=0.05,
                      seed=11)
    # the code that trains the nets is part of the key, so a change to it
    # retrains them instead of serving nets from before the change
    code = hashlib.sha256()
    for module in ("train", "network", "quant", "data"):
        with open(os.path.join(os.path.dirname(weightfile.__file__),
                               f"{module}.py"), "rb") as fh:
            code.update(hashlib.sha256(fh.read()).digest())
    key_src = (f"v2|{precision_name}|{cfg.epochs}|{cfg.batch_size}|{cfg.lr}|"
               f"{cfg.seed}|{dataset.train_images.shape[0]}|"
               f"{hashlib.sha256(dataset.train_images[:8].tobytes()).hexdigest()}"
               f"|{code.hexdigest()}")
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    name = f"oxcim-{precision_name}-{key}"
    cache = getattr(request.config, "cache", None)
    cache_dir = (cache.mkdir(name) if cache is not None else
                 request.getfixturevalue("tmp_path_factory").mktemp(name))
    path = os.path.join(str(cache_dir), "weights.qnn")
    if os.path.exists(path):
        return weightfile.load_network(path)
    result = train(lenet(Precision(precision_name)), dataset.train_images,
                   dataset.train_labels, cfg)
    weightfile.save_network(result.net, path)
    if cache is not None:
        # the nets of any other key came from other training code, and no
        # run of this code reads them again
        for old in cache_dir.parent.glob(f"oxcim-{precision_name}-*"):
            if old != cache_dir:
                shutil.rmtree(old)
    return result.net


@pytest.fixture(scope="session")
def trained_bnn(request, dataset):
    return _train_fixture("binary", request, dataset)


@pytest.fixture(scope="session")
def trained_tnn(request, dataset):
    return _train_fixture("ternary", request, dataset)
