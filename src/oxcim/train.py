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
run is reproducible end to end.  The validation loss runs the forward pass
only: the same forward and loss code as a training step, with no backward
records, STE masks or gradients.

The quantized forward runs network.exact_preact, the exact products of
the oracle, and records each layer's input; backprop builds a conv's patch
matrix from it.  A step casts its layer inputs to float one block at a
time, each within BLOCK_BYTES: blocks of images to float32 for the forward
products, column blocks of the inputs (patch matrices for a conv) to
float64 for the weight gradients.  Neither moves a bit: the forward
products are exact trit sums, and each gradient element keeps its one
float64 sum over the batch.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import check_labels, pad_to_32
from .errors import ShapeError, TrainingDiverged, check_integer, check_real
from .network import Activation, activate, as_batch, conv_weight_matrix, \
    exact_preact, maxpool, patches, thermometric_trits, walk
from .quant import quantize_weights
# No caller here; benchmarks/tracing.py wraps these module attributes.
from .quant import act_binary, act_ternary  # noqa: F401


# Adam moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_BATCH = 256  # images per forward pass in evaluate_loss
# Bytes of the float copy of one block of a layer input in a training
# step: the forward casts blocks of images to float32, the backward column
# blocks to float64.  A float64 copy of a whole conv1 patch matrix (80 MB at
# 64 images) set the peak RSS of a training run; 16 MiB blocks ran fastest.
BLOCK_BYTES = 16 * 2**20


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    weight_r: float = 0.5   # ternary weight-quantization dead band
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_integer(self.epochs, "epochs", lo=1)
        check_integer(self.batch_size, "batch size", lo=1)
        # numpy's generator takes no negative seed
        check_integer(self.seed, "training seed", lo=0)
        # lr = 0 is allowed: it keeps the weights where they are
        check_real(self.lr, "learning rate", 0.0)
        # latent weights live in [-1, 1]: r >= 1 would quantize all to 0
        check_real(self.weight_r, "weight r", 0.0, 1.0, strict=True)
        check_real(self.val_fraction, "val fraction", 0.0, 1.0)


@dataclass
class TrainResult:
    net: object
    loss_curve: list = field(default_factory=list)  # (epoch, train, val)
    initial_val_loss: float = float("nan")


def _encode_batch(images):
    """uint8 images -> (B, C, 32, 32) +/-1 trits."""
    return thermometric_trits(pad_to_32(images))


def _blocks(n, nbytes, unit=1):
    """Slices of range(n) starting on multiples of unit, near-equal in whole
    units: as few as keep each one's share of nbytes within BLOCK_BYTES,
    but at most n // unit of them."""
    units = -(-n // unit)
    k = max(1, min(-(-nbytes // BLOCK_BYTES), n // unit))
    edges = [min(n, unit * (units * i // k)) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _weight_gradient(inputs, dpre):
    """inputs.T @ dpre in float64, cast and multiplied in blocks of inputs'
    columns that each fit in BLOCK_BYTES.

    A block owns whole rows of the result, so each element keeps its one
    sum over all of inputs' rows.  At one BLAS thread it keeps its bits too
    while each block runs the whole product's OpenBLAS (0.3.31) kernel:
    blocks start on multiples of 4 columns, the groups a one-column gemv
    sums, and hold at least a third of BLOCK_BYTES, which keeps two or more
    columns of dpre above the small-matrix GEMM (M*N*K <= 10**6).
    """
    gw = np.empty((inputs.shape[1], dpre.shape[1]))
    for s in _blocks(inputs.shape[1], inputs.size * 8, unit=4):
        gw[s] = np.asarray(inputs[:, s], dtype=np.float64).T @ dpre
    return gw


def _unpool(a, sizes, dval):
    """Gradient at a from dval, the gradient at a pooled by sizes in turn."""
    inputs = [a]
    for size in sizes:
        inputs.append(maxpool(inputs[-1], size))
    for x, pooled, s in reversed(list(zip(inputs, inputs[1:], sizes))):
        b, c, h, w = x.shape
        x6 = x.reshape(b, c, h // s, s, w // s, s)
        ties = x6 == pooled.reshape(b, c, h // s, 1, w // s, 1)
        # one division per window: each tie gets fl(fl(1 / count) * dval)
        # and every other cell a zero signed like dval
        share = 1.0 / ties.sum(axis=(3, 5), keepdims=True)
        share *= dval.reshape(b, c, h // s, 1, w // s, 1)
        dval = (ties * share).reshape(b, c * h * w)
    return dval


class _Adam:
    def __init__(self, shapes, lr):
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.t = 0
        self.lr = lr

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
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
        self.opt = _Adam([p.shape for p in self.params], self.cfg.lr)

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

    def _check_labels(self, labels, n):
        """labels as checked by data.check_labels for n >= 1 images."""
        if n < 1:
            raise ShapeError("no images to compute a loss on")
        return check_labels(labels, n, self.net.plan[-1].out_shape[0])

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
        x, _ = as_batch(self.net, x_trits)
        return self._pass(x, labels, surrogate, backward=True)

    def _pass(self, x_trits, labels, surrogate=False, backward=False):
        """Mean loss of one encoded batch, and with backward the gradients.

        Without backward the walk keeps no records and computes no STE
        masks: the loss comes from the same forward and loss code alone.
        """
        for k, p in enumerate(self.params):
            if not np.all(np.isfinite(p)):
                raise TrainingDiverged(
                    f"latent weights of parametric layer {k} became non-finite")
        B = x_trits.shape[0]
        y = self._check_labels(labels, B)
        stack = []  # what _backward needs, in forward order

        def preact(op, x):
            k = self.net.parametric_indices().index(op.index)
            wq = self._quant_weight(self.params[k], surrogate)
            wmat = wq if op.gather is None else conv_weight_matrix(wq)
            if backward:
                stack.append((op, k, x, wmat))
            if surrogate:
                return np.asarray(patches(op, x), dtype=np.float64) @ wmat \
                    / op.scale
            # float32 row windows: H * ow * C * kernel values per conv image
            width = x[0].size if op.gather is None else \
                op.in_shape[1] * op.out_shape[2] * op.fan_in // op.layer.kernel
            o, *positions = op.out_shape
            u = np.empty((B, *positions, o))
            for s in _blocks(B, B * width * 4):
                u[s] = exact_preact(op, x[s], wq)
            return u

        def ste_activate(op, u):
            a = np.clip(u, -1.0, 1.0) if surrogate else activate(op, u)
            if backward:
                stack.append((op, np.abs(u) <= 1.0, a))
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
            if not backward:
                return loss
            # d loss / d z for the normalized-sigmoid cross entropy
            dz = p * (1.0 - p) / s
            dz[np.arange(B), y] -= (1.0 - p[np.arange(B), y])
            dz /= B
            return loss, self._backward(stack, dz / op.scale)

        return walk(self.net, x_trits, preact, output, ste_activate)

    def _backward(self, stack, dpre):
        """Latent-weight gradients from the records of one forward walk.

        Conv/dense records hold (op, param index, layer input, weight
        matrix); activation records hold (op, bool STE mask, activations).
        Only pools can sit between an activation and the next conv/dense,
        and their ties share the gradient evenly.
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
            _, k, x, wmat = rec
            inputs = patches(op, x)
            if dpre.ndim == 4:  # (B, O, oh, ow) -> (B*P, O), patch order
                dpre = dpre.transpose(0, 2, 3, 1).reshape(-1, dpre.shape[1])
            gw = _weight_gradient(inputs, dpre)
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

    def evaluate_loss(self, images, labels):
        n = images.shape[0]
        labels = self._check_labels(labels, n)
        total = 0.0
        for lo in range(0, n, EVAL_BATCH):
            hi = min(lo + EVAL_BATCH, n)
            x = _encode_batch(images[lo:hi])
            total += self._pass(x, labels[lo:hi]) * (hi - lo)
        return total / n

    def fit(self, images, labels, log_fn=None):
        cfg = self.cfg
        n = images.shape[0]
        labels = self._check_labels(labels, n)
        n_val = int(round(n * cfg.val_fraction))
        if n - n_val < 1:
            raise ShapeError(f"{n} images leave none to train on after "
                             f"holding out {n_val} for validation")
        order = self.rng.permutation(n)
        val_ids = order[:n_val]
        train_ids = order[n_val:]
        result = TrainResult(net=None)
        result.initial_val_loss = self.evaluate_loss(images[val_ids],
                                                     labels[val_ids]) \
            if n_val else float("nan")
        for epoch in range(1, cfg.epochs + 1):
            perm = self.rng.permutation(train_ids.shape[0])
            ids = train_ids[perm]
            running = 0.0
            for lo in range(0, ids.shape[0], cfg.batch_size):
                batch = ids[lo:lo + cfg.batch_size]
                x = _encode_batch(images[batch])
                loss, grads = self.loss_and_grads(x, labels[batch])
                self.opt.step(self.params, grads)
                running += loss * batch.shape[0]
            train_loss = running / ids.shape[0]
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
