"""Frozen end-to-end fixtures: a shipped net + input must always score the
same, and a short training run must always export the same net."""

import json
import os
import subprocess
import sys

import numpy as np

from oxcim import weightfile
from oxcim.network import forward_ideal

HERE = os.path.dirname(__file__)


def test_golden_scores_are_reproduced_exactly():
    net = weightfile.load_network(os.path.join(HERE, "data", "golden_net.qnn"))
    with open(os.path.join(HERE, "data", "golden_case.json")) as fh:
        case = json.load(fh)
    x = np.array(case["input_trits"], dtype=np.int8) \
        .reshape(case["input_shape"])
    expect = np.array([float(s) for s in case["scores"]])
    got = forward_ideal(net, x)
    np.testing.assert_array_equal(got, expect)


# A short LeNet-TNN run: sha256 of the exported weight file, and the repr
# of (initial validation loss, loss curve).  It runs in a child interpreter
# with one BLAS thread, which fixes the order of the float64 backward sums.
GOLDEN_TRAIN_RUN = """
import hashlib
from oxcim import weightfile
from oxcim.data import synthetic_images
from oxcim.network import lenet
from oxcim.quant import Precision
from oxcim.train import TrainConfig, train
images, labels = synthetic_images(100, 3)
r = train(lenet(Precision.TERNARY), images, labels,
          TrainConfig(epochs=2, batch_size=32, lr=2e-2, val_fraction=0.3,
                      seed=3))
print(hashlib.sha256(weightfile.dumps(r.net).encode()).hexdigest())
print(repr((r.initial_val_loss, r.loss_curve)))
"""
GOLDEN_TRAIN_DIGEST = \
    "df7274a29a8d78cfb63670ddf07fc7ecb56818a1e85a79c05b5d7b4bd331ea89"
GOLDEN_TRAIN_LOSSES = (
    "(2.298161770817257, [(1, 2.295896398916018, 2.244074430168298), "
    "(2, 2.1766251471983207, 2.130842381832927)])")


def test_golden_training_run_is_reproduced_exactly():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", GOLDEN_TRAIN_RUN],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [GOLDEN_TRAIN_DIGEST,
                                        GOLDEN_TRAIN_LOSSES]
