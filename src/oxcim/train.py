"""Straight-through-estimator training for the quantized networks.

Latent float weights live in [-1, 1]; the forward pass quantizes them (and
all hidden activations) with exactly the same trit functions inference
uses, so there is no train/infer skew.  Gradients cross each quantizer via
the straight-through estimator: identity inside the clip range |x| <= 1,
zero outside.  Pre-activations are scaled by the same sqrt(fan-in) factor
the inference engine applies, which is what keeps a useful fraction of
units inside the STE pass-band without any batch normalization.

The output layer is a bank of sigmoids; the loss is categorical
cross-entropy on the sigmoid outputs normalized to a distribution (the
usual probability-input cross entropy; no softmax anywhere).

Optimizer: Adam, defaults lr 1e-3, batch 64.  Minibatch order and init come
from one seeded generator, and all reductions are plain numpy sums, so a
run is reproducible end to end.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import pad_to_32
from .errors import TrainingDiverged
from .network import Activation, activate, maxpool, thermometric_trits, walk
from .quant import quantize_weights
# No caller here; benchmarks/tracing.py wraps these module attributes.
from .quant import act_binary, act_ternary  # noqa: F401


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_r: float = 0.5   # ternary weight-quantization dead band
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class TrainResult:
    net: object
    loss_curve: list = field(default_factory=list)  # (epoch, train, val)
    initial_val_loss: float = float("nan")

    def write_loss_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch", "train_loss", "val_loss"])
            w.writerow([0, "", repr(self.initial_val_loss)])
            for epoch, tr, va in self.loss_curve:
                w.writerow([epoch, repr(tr), repr(va)])


def _encode_batch(images):
    """uint8 images -> (B, C, 32, 32) +/-1 trits, flattened per sample."""
    padded = pad_to_32(images)
    out = np.empty((padded.shape[0], 8, 32, 32), dtype=np.int8)
    for i in range(padded.shape[0]):
        out[i] = thermometric_trits(padded[i])
    return out


def _unpool(a, sizes, dval):
    """Gradient at a from dval, the gradient at a pooled by sizes in turn."""
    inputs = [a]
    for size in sizes[:-1]:
        inputs.append(maxpool(inputs[-1], size))
    for x, s in zip(reversed(inputs), reversed(sizes)):
        b, c, h, w = x.shape
        x6 = x.reshape(b, c, h // s, s, w // s, s)
        ties = (x6 == x6.max(axis=(3, 5), keepdims=True)).astype(np.float64)
        ties /= ties.sum(axis=(3, 5), keepdims=True)
        dval = (ties * dval.reshape(b, c, h // s, 1, w // s, 1)) \
            .reshape(b, c * h * w)
    return dval


class _Adam:
    def __init__(self, shapes, cfg):
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.t = 0
        self.cfg = cfg

    def step(self, params, grads):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            p -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)
            np.clip(p, -1.0, 1.0, out=p)


class Trainer:
    """Backprop engine for one architecture (conv/pool/dense/activation)."""

    def __init__(self, net_template, cfg=None):
        self.cfg = cfg or TrainConfig()
        self.net = net_template
        self.precision = net_template.precision
        self.rng = np.random.default_rng(self.cfg.seed)
        self.params = [
            self.rng.uniform(-0.9, 0.9, size=self.net.plan[i].weight_shape)
            for i in self.net.parametric_indices()
        ]
        self.opt = _Adam([p.shape for p in self.params], self.cfg)

    def quantized_weights(self):
        """Current latent weights quantized to TernaryTensors."""
        return [quantize_weights(p, self.precision, self.cfg.weight_r)
                for p in self.params]

    def network(self):
        """NetworkDescription carrying the current quantized weights."""
        weights = [None] * len(self.net.layers)
        for w, li in zip(self.quantized_weights(), self.net.parametric_indices()):
            weights[li] = w
        return type(self.net)(self.precision, self.net.input_shape,
                              list(self.net.layers), weights)

    # -- forward / backward ----------------------------------------------------

    def _quant_weight(self, p, surrogate):
        if surrogate:
            return np.clip(p, -1.0, 1.0)
        return quantize_weights(p, self.precision, self.cfg.weight_r) \
            .data.astype(np.float64)

    def loss_and_grads(self, x_trits, labels, surrogate=False):
        """Mean loss and latent-weight gradients for one encoded batch.

        surrogate=True swaps every quantizer for its clipped-identity
        backward surrogate in the forward pass too, giving a differentiable
        network whose analytic gradients can be checked against finite
        differences.
        """
        for k, p in enumerate(self.params):
            if not np.all(np.isfinite(p)):
                raise TrainingDiverged(
                    f"latent weights of parametric layer {k} became non-finite")
        B = x_trits.shape[0]
        y = np.asarray(labels)
        stack = []  # what _backward needs, in forward order

        def preact(op, patches):
            k = self.net.parametric_indices().index(op.index)
            wq = self._quant_weight(self.params[k], surrogate)
            wmat = wq if op.gather is None else wq.reshape(wq.shape[0], -1).T
            patches = np.asarray(patches, dtype=np.float64)
            stack.append((op, k, patches, wmat))
            return (patches @ wmat) / op.scale

        def ste_activate(op, u):
            a = np.clip(u, -1.0, 1.0) if surrogate else activate(op, u)
            stack.append((op, (np.abs(u) <= 1.0).astype(np.float64), a))
            return a

        def output(op, z):
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            s = p.sum(axis=1, keepdims=True)
            phat = p / s
            eps = 1e-12
            losses = -np.log(phat[np.arange(B), y] + eps)
            loss = float(losses.mean())
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss}")
            # d loss / d z for the normalized-sigmoid cross entropy
            dz = p * (1.0 - p) / s
            dz[np.arange(B), y] -= (1.0 - p[np.arange(B), y])
            dz /= B
            return loss, self._backward(stack, dz / op.scale)

        return walk(self.net, x_trits, preact, output, ste_activate)

    def _backward(self, stack, dpre):
        """Latent-weight gradients from the records of one forward walk.

        Conv/dense records hold (op, param index, float64 input, weight
        matrix); activation records hold (op, STE mask, activations).  Only
        pools can sit between an activation and the next conv/dense, and
        their ties share the gradient evenly.
        """
        grads = [None] * len(self.params)
        above = None  # layer index of the conv/dense that dval belongs to
        for rec in reversed(stack):
            op = rec[0]
            if isinstance(op.layer, Activation):
                _, mask, a = rec
                sizes = [l.size for l in self.net.layers[op.index + 1:above]]
                dpre = _unpool(a, sizes, dval).reshape(mask.shape) * mask \
                    / op.scale
                continue
            _, k, inputs, wmat = rec
            if dpre.ndim == 4:  # (B, O, oh, ow) -> (B*P, O), patch order
                dpre = dpre.transpose(0, 2, 3, 1).reshape(-1, dpre.shape[1])
            gw = inputs.T @ dpre
            grads[k] = gw if op.gather is None \
                else gw.T.reshape(self.params[k].shape)
            if rec is stack[0]:
                break  # nothing below the first layer has weights
            dval = dpre @ wmat.T
            if op.gather is not None:
                # col2im: sum each patch gradient back onto its input cells
                n_in = int(np.prod(op.in_shape))
                dc = dval.reshape(dpre.shape[0] // op.gather.shape[0], -1)
                flat_idx = op.gather.ravel()
                dval = np.stack([np.bincount(flat_idx, weights=row,
                                             minlength=n_in) for row in dc])
            above = op.index
        # STE through the weight quantizers: identity inside |latent| <= 1
        for k, p in enumerate(self.params):
            grads[k] = grads[k] * (np.abs(p) <= 1.0)
        return grads

    # -- training loop ---------------------------------------------------------

    def evaluate_loss(self, images, labels, batch_size=256):
        total, count = 0.0, 0
        for lo in range(0, images.shape[0], batch_size):
            hi = min(lo + batch_size, images.shape[0])
            x = _encode_batch(images[lo:hi])
            loss, _ = self.loss_and_grads(x, labels[lo:hi])
            total += loss * (hi - lo)
            count += hi - lo
        return total / max(count, 1)

    def fit(self, images, labels, epochs=None, log_fn=None):
        cfg = self.cfg
        epochs = cfg.epochs if epochs is None else epochs
        n = images.shape[0]
        n_val = int(round(n * cfg.val_fraction))
        order = self.rng.permutation(n)
        val_ids = order[:n_val]
        train_ids = order[n_val:]
        result = TrainResult(net=None)
        result.initial_val_loss = self.evaluate_loss(images[val_ids],
                                                     labels[val_ids]) \
            if n_val else float("nan")
        for epoch in range(1, epochs + 1):
            perm = self.rng.permutation(train_ids.shape[0])
            ids = train_ids[perm]
            running, seen = 0.0, 0
            for lo in range(0, ids.shape[0], cfg.batch_size):
                batch = ids[lo:lo + cfg.batch_size]
                x = _encode_batch(images[batch])
                loss, grads = self.loss_and_grads(x, labels[batch])
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"epoch {epoch}, batch at {lo}: loss={loss}")
                self.opt.step(self.params, grads)
                running += loss * batch.shape[0]
                seen += batch.shape[0]
            train_loss = running / max(seen, 1)
            val_loss = self.evaluate_loss(images[val_ids], labels[val_ids]) \
                if n_val else float("nan")
            result.loss_curve.append((epoch, train_loss, val_loss))
            if log_fn:
                log_fn(f"epoch {epoch:3d}  train {train_loss:.4f}  "
                       f"val {val_loss:.4f}")
        result.net = self.network()
        return result


def train(net_template, images, labels, cfg=None, log_fn=None):
    """Train the architecture on (images, labels); returns a TrainResult."""
    trainer = Trainer(net_template, cfg)
    return trainer.fit(images, labels, log_fn=log_fn)
