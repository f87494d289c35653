"""The four workloads of the oxcim benchmark.

Every workload makes its inputs from the workload seed and splits its work
into fixed units: a chunk of evaluation images passed to one
``bench.run_accuracy`` call, or one whole ``train.train`` run.  The timed
loop repeats the units, so every unit's output must come out the same on
each repeat; a unit that does not counts as failed.

Evaluation images come from ``data.synthetic_images`` under the workload
seed, starting at ``EVAL_START``, which is disjoint from the split the
committed nets were trained on (indices 0..5999 under seed 7) and from the
corpus test split (indices from 10,000,000).

``run_accuracy`` only returns accuracies and a confusion matrix, so each
chunk is scored against the exact oracle's predictions (from
``network.predict_ideal``) in place of the true labels: the confusion
diagonal then counts the images where the run agrees with the oracle.
Scoring a run against any reference predictions the same way checks it
image by image through the public API alone.
"""

import dataclasses
import hashlib
import importlib
import os

import numpy as np

from oxcim import bench, data, device, hardware, network, weightfile
from oxcim.quant import Precision

# ``oxcim`` re-exports the function ``train`` under the module's name.
train = importlib.import_module("oxcim.train")

HERE = os.path.dirname(os.path.abspath(__file__))
NETS_DIR = os.path.join(HERE, "nets")
EVAL_START = 20_000_000
DEFAULT_SEED = 0

# sha256 of the oracle predictions of ideal-tnn's chunks at DEFAULT_SEED.
# It pins the digital oracle: a change to forward_ideal that moves any
# prediction fails the ideal-tnn gate at the default seed.
IDEAL_TNN_DIGEST = "e86889454937f29a"


def digest(preds):
    return hashlib.sha256(np.asarray(preds, dtype=np.int64).tobytes()) \
        .hexdigest()[:16]


def _net_path(precision):
    return os.path.join(NETS_DIR, f"lenet_{precision}.qnn")


def _diag(counts):
    return int(np.trace(counts))


@dataclasses.dataclass
class EvalState:
    images: np.ndarray      # (chunks * chunk, 28, 28) uint8
    encoded: list           # trit images for the oracle
    net: object
    config: object
    oracle: np.ndarray = None


@dataclasses.dataclass(frozen=True)
class EvalWorkload:
    """Evaluation through ``bench.run_accuracy`` with ``threads=1``."""

    name: str
    precision: str
    mode: str               # 'ideal' | 'hardware'
    zero_variability: bool
    chunk: int              # images per run_accuracy call
    chunks: int             # distinct chunks per run
    gate_images: int = 0    # hardware only: images in the order/thread gate
    oracle_digest: str = None  # pinned oracle digest at DEFAULT_SEED

    @property
    def items(self):
        return self.chunks * self.chunk

    def setup(self, seed):
        images, _labels = data.synthetic_images(self.items, seed,
                                                start_index=EVAL_START)
        encoded = bench.encode_images(images)
        net = weightfile.load_network(_net_path(self.precision))
        config = dataclasses.replace(device.default_device_config("hrs"),
                                     seed=seed)
        if self.zero_variability:
            config = config.with_zero_variability()
        return EvalState(images, encoded, net, config)

    def prepare(self, state):
        """Oracle predictions; untimed, and not part of set-up."""
        state.oracle = np.asarray(
            [network.predict_ideal(state.net, x) for x in state.encoded],
            dtype=np.int64)

    def _spec(self, state, threads=1):
        return bench.ExperimentSpec(net=state.net, config=state.config,
                                    mode=self.mode, threads=threads)

    @property
    def unit_items(self):
        return self.chunk

    def run_unit(self, state, k):
        """One timed call: chunk k scored against the oracle."""
        s = slice(k * self.chunk, (k + 1) * self.chunk)
        report = bench.run_accuracy(self._spec(state), state.images[s],
                                    state.oracle[s])
        return report.confusion.counts

    def same(self, a, b):
        """Images that moved between two confusion matrices (a lower bound)."""
        return int(np.abs(a - b).sum()) // 2

    def agreement_pct(self, state, outputs):
        agree = sum(_diag(outputs[k]) for k in range(self.chunks))
        return 100.0 * agree / self.items

    def gates(self, state, outputs, seed):
        """Correctness checks outside the timed region.

        Returns (attempted, failed, info).  Each check counts one operation
        per image it compares.
        """
        attempted = failed = 0
        info = {}
        disagree = self.items - sum(_diag(outputs[k])
                                    for k in range(self.chunks))
        if self.mode == "ideal":
            # run_accuracy's ideal path must reproduce predict_ideal
            attempted += self.items
            failed += disagree
            info["oracle_digest"] = digest(state.oracle)
            if self.oracle_digest is not None and seed == DEFAULT_SEED:
                attempted += 1
                failed += info["oracle_digest"] != self.oracle_digest
            return attempted, failed, info
        # Keyed noise: one image's result depends only on the tiles, the
        # image and its ordinal, never on the order or the thread count.
        m = self.gate_images
        tiled = hardware.map_network_to_tiles(state.net, state.config)
        order = np.random.default_rng(seed).permutation(m)
        preds = np.empty(m, dtype=np.int64)
        for i in order:
            preds[i] = hardware.predict_hardware(tiled, state.encoded[i],
                                                 image_ordinal=i)
        for threads in (1, 2):
            report = bench.run_accuracy(self._spec(state, threads),
                                        state.images[:m], preds)
            attempted += m
            failed += m - _diag(report.confusion.counts)
        # reported for information: a change to the noise model moves these
        info["hw_gate_digest"] = digest(preds)
        info["hw_confusion_digest"] = digest(
            np.stack([outputs[k] for k in range(self.chunks)]))
        info["hw_oracle_disagreements"] = disagree
        return attempted, failed, info


@dataclasses.dataclass
class TrainState:
    images: np.ndarray
    labels: np.ndarray
    config: object
    check_images: np.ndarray   # never trained on; for the skew check


@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    """One epoch of STE training from scratch through ``train.train``."""

    name: str
    images: int             # corpus size; val_fraction of it is held out
    val_fraction: float
    agreement_images: int   # unseen images in the train/infer skew check
    chunks: int = 1

    @property
    def items(self):
        return self.images - int(round(self.images * self.val_fraction))

    def setup(self, seed):
        images, labels = data.synthetic_images(self.images, seed)
        check, _ = data.synthetic_images(self.agreement_images, seed,
                                         start_index=EVAL_START)
        config = train.TrainConfig(epochs=1, batch_size=64, lr=2e-2,
                                   val_fraction=self.val_fraction, seed=seed)
        return TrainState(images, labels, config, check)

    def prepare(self, state):
        pass

    @property
    def unit_items(self):
        return self.items

    def run_unit(self, state, k):
        return train.train(network.lenet(Precision.TERNARY), state.images,
                           state.labels, state.config)

    def same(self, a, b):
        return int(a.loss_curve != b.loss_curve
                   or a.initial_val_loss != b.initial_val_loss
                   or weightfile.dumps(a.net) != weightfile.dumps(b.net))

    def agreement_pct(self, state, outputs):
        """Share of unseen images where training's forward pass decides
        like the exact oracle on the exported net.

        ``Trainer.loss_and_grads`` returns only the loss, so the training
        pass's decision for one image is the label with the lowest loss:
        the loss falls as the normalized sigmoid output of that class rises.
        The trainer's latent weights are set to the exported trits, which
        quantize to themselves.
        """
        net = outputs[0].net
        trainer = train.Trainer(network.lenet(Precision.TERNARY),
                                state.config)
        trainer.params = [net.weights[i].data.astype(np.float64)
                          for i in net.parametric_indices()]
        agree = 0
        for x in bench.encode_images(state.check_images):
            losses = [trainer.loss_and_grads(x[None], [c])[0]
                      for c in range(10)]
            agree += int(np.argmin(losses)) == network.predict_ideal(net, x)
        return 100.0 * agree / len(state.check_images)

    def gates(self, state, outputs, seed):
        """The loss stays finite and ends below the initial validation loss."""
        result = outputs[0]
        final = result.loss_curve[-1][2]
        ok = bool(np.isfinite(result.initial_val_loss) and np.isfinite(final)
                  and final < result.initial_val_loss)
        info = {"initial_val_loss": result.initial_val_loss,
                "final_val_loss": final,
                "net_digest": hashlib.sha256(weightfile.dumps(result.net)
                                             .encode()).hexdigest()[:16]}
        return 1, int(not ok), info


WORKLOADS = {w.name: w for w in (
    EvalWorkload("hw-tnn-hrs", "ternary", "hardware", False,
                 chunk=8, chunks=12, gate_images=4),
    EvalWorkload("hw-bnn-zerovar", "binary", "hardware", True,
                 chunk=48, chunks=10, gate_images=24),
    EvalWorkload("ideal-tnn", "ternary", "ideal", False,
                 chunk=200, chunks=4, oracle_digest=IDEAL_TNN_DIGEST),
    TrainWorkload("train-tnn", images=352, val_fraction=0.1,
                  agreement_images=8),
)}
