"""Train the two fixed LeNets the benchmark evaluates.

Uses the fixture recipe of the test suite (``tests/conftest.py``): the
synthetic corpus with 6,000 training images under seed 7, four epochs,
batch 64, learning rate 2e-3, 5% validation split, trainer seed 11.  The
nets are committed, so changes to the training code never move the
evaluation workloads; rerun this script only to regenerate them:

    python3 benchmarks/train_nets.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from oxcim import weightfile  # noqa: E402
from oxcim.data import synthetic_dataset  # noqa: E402
from oxcim.network import lenet  # noqa: E402
from oxcim.quant import Precision  # noqa: E402
from oxcim.train import TrainConfig, train  # noqa: E402

NETS_DIR = os.path.join(HERE, "nets")


def main():
    data = synthetic_dataset(n_train=6000, n_test=2000, seed=7)
    cfg = TrainConfig(epochs=4, batch_size=64, lr=2e-3, val_fraction=0.05,
                      seed=11)
    for precision in (Precision.TERNARY, Precision.BINARY):
        result = train(lenet(precision), data.train_images, data.train_labels,
                       cfg, log_fn=print)
        path = os.path.join(NETS_DIR, f"lenet_{precision.value}.qnn")
        weightfile.save_network(result.net, path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
