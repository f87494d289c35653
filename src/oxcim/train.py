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

The forward runs network.exact_preact, the exact products of the oracle,
and records each layer's input; no step builds a patch matrix.  A step
casts its layer inputs to float one block at a time, each within
BLOCK_BYTES: blocks of images to float32 for the forward products, and
blocks of whole kernel positions of a conv's patch columns to float64 for
its weight gradient, copied from windows of the input into one buffer
that the Trainer holds across steps and releases before a validation
pass.  A conv block is multiplied output-major: the gradient at the
pre-activations, as a C-ordered (O, N*P) array, times the block; a dense
layer's weight gradient is one float64 product.  Neither moves a bit: the
forward products are exact trit sums, and each gradient element keeps its
one float64 sum over the batch.  Pool gradients go back through the
strided views of the window offsets, as network.maxpool reads them.  The
finite-difference check of the gradients, through a differentiable
clipped-identity surrogate, lives in tests/test_train.py::TestGradients.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import check_images, check_labels, pad_to_32
from .errors import ConfigError, ShapeError, TrainingDiverged, check_integer, \
    check_real, check_type, shown
from .network import Activation, NetworkDescription, activate, as_batch, \
    conv_weight_matrix, exact_preact, maxpool, thermometric_trits, walk
from .quant import quantize_weights
# No caller here; benchmarks/tracing.py wraps these module attributes.
from .quant import act_binary, act_ternary  # noqa: F401


# Adam moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EVAL_BATCH = 256  # images per forward pass in evaluate_loss
# Bytes of the float copy of one block of a layer input in a training
# step: the forward casts blocks of images to float32, the backward blocks
# of a conv's patch columns to float64.  A float64 copy of a whole conv1
# patch matrix (80 MB at 64 images) set the peak RSS of a training run.
# 16 MiB blocks ran fastest: LeNet conv1's output-major weight gradient at
# 64 images took 12.3 ms, against 15.5-18.6 ms at 0.5-8 MiB and 15.1 ms at
# 32 and 64 MiB (one BLAS thread, 2-core VM).
BLOCK_BYTES = 16 * 2**20


@dataclass(frozen=True)
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
    units: as few as keep each one's share of nbytes within BLOCK_BYTES, a
    unit per block if one unit is over it, but at most n // unit of them."""
    units = -(-n // unit)
    most = max(1, BLOCK_BYTES * n // (nbytes * unit))  # units per block
    k = max(1, min(-(-units // most), n // unit))
    edges = [min(n, unit * (units * i // k)) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _patch_rows(dpre):
    """A conv's (B, O, oh, ow) pre-activation gradient as (B*P, O) in
    patch-row order: the transpose of a C-ordered (O, B*P) copy, which
    moves runs of P values.  In dpre @ wmat.T it has the role and the bits
    of a C-ordered (B*P, O) array; its transpose is that copy itself, the
    packed operand of _conv_weight_gradient."""
    b, o = dpre.shape[:2]
    return np.ascontiguousarray(dpre.reshape(b, o, -1).transpose(1, 0, 2)) \
        .reshape(o, -1).T


def _conv_blocks(op, n):
    """The blocks of whole kernel positions, as slices of a conv op's
    (kh, kw, c) patch columns, in which _conv_weight_gradient copies and
    multiplies an n-image batch, each within BLOCK_BYTES; and the float64
    elements of the largest.

    Blocks start on multiples of lcm(channels, 4) columns: a one-output
    conv's block product is a gemv, which sums 4 columns at a time, so
    only blocks that start on a group of 4 and end on one (or at the last
    column) keep the bits of the whole product."""
    rows = n * op.gather.shape[0]
    blocks = _blocks(op.fan_in, rows * op.fan_in * 8,
                     unit=math.lcm(op.in_shape[0], 4))
    return blocks, rows * max(b.stop - b.start for b in blocks)


def _conv_weight_gradient(op, x, dpre, buf):
    """Conv op's (O, C, k, k) weight gradient from its input batch x and
    dpre, the (N*P, O) gradient at its pre-activations in patch-row order.

    The columns of the float64 patch matrix P, in (kh, kw, c) order, are
    copied from windows of a channels-last copy of x in x's own dtype,
    each kernel row's (kw, c) run contiguous, into buf (np.copyto casts
    them to float64), one _conv_blocks block at a time.
    Each block is multiplied output-major, dpre.T @ block, with dpre.T the
    C-ordered (O, N*P) copy _patch_rows made: at 64 images a 40-column
    block of LeNet conv1 took 1.2-1.5 ms so against 2.7 ms as
    block.T @ dpre (one BLAS thread).  Every element is one float64 sum
    over the batch, with the bits of dpre.T @ P at one BLAS thread.
    """
    o, c, k, _ = op.weight_shape
    s = op.layer.stride
    _, oh, ow = op.out_shape
    n, _, h, w = x.shape
    hwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    # rows[n, y, j] = hwc[n, y, j*s:j*s + k].ravel(), the (kw, c) run
    rows = sliding_window_view(hwc.reshape(n, h, w * c), k * c, axis=2)
    rows = rows[:, :, :s * c * (ow - 1) + 1:s * c]
    span = s * (oh - 1) + 1
    run = k * c  # patch columns per kernel row
    gw = np.empty((o, k * run))
    for b in _conv_blocks(op, n)[0]:
        block = buf[:n * oh * ow * (b.stop - b.start)].reshape(n, oh, ow, -1)
        for kh in range(b.start // run, -(-b.stop // run)):
            lo, hi = max(b.start, kh * run), min(b.stop, (kh + 1) * run)
            np.copyto(block[..., lo - b.start:hi - b.start],
                      rows[:, kh:kh + span:s, :, lo - kh * run:hi - kh * run])
        gw[:, b] = dpre.T @ block.reshape(-1, block.shape[-1])
    return gw.reshape(o, k, k, c).transpose(0, 3, 1, 2)


def _unpool(a, sizes, dval):
    """Gradient at a from dval, the gradient at a pooled by sizes in turn.

    Each tie of a window gets fl(fl(1 / tie count) * dval) and every other
    cell a zero signed like dval, written through the size**2 strided views
    of the window offsets, as network.maxpool reads them.
    """
    inputs = [a]
    for size in sizes:
        inputs.append(maxpool(inputs[-1], size))
    for x, pooled, s in reversed(list(zip(inputs, inputs[1:], sizes))):
        offsets = [(i, j) for i in range(s) for j in range(s)]
        ties = [x[..., i::s, j::s] == pooled for i, j in offsets]
        share = 1.0 / np.sum(ties, axis=0)  # one division per window
        share *= dval.reshape(pooled.shape)
        out = np.empty(x.shape)
        for (i, j), t in zip(offsets, ties):
            np.multiply(t, share, out=out[..., i::s, j::s])
        dval = out.reshape(x.shape[0], -1)
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
        self.net = check_type(net_template, NetworkDescription)
        self.cfg = check_type(TrainConfig() if cfg is None else cfg,
                              TrainConfig)
        self.rng = np.random.default_rng(self.cfg.seed)
        self.params = [
            self.rng.uniform(-0.9, 0.9, size=self.net.plan[i].weight_shape)
            for i in self.net.parametric_indices()
        ]
        self.opt = _Adam([p.shape for p in self.params], self.cfg.lr)
        self._block = np.empty(0)  # float64 conv blocks; see _backward

    def quantized_weights(self):
        """Current latent weights quantized to TernaryTensors."""
        return [quantize_weights(p, self.net.precision, self.cfg.weight_r)
                for p in self.params]

    def network(self):
        """NetworkDescription carrying the current quantized weights."""
        weights = [None] * len(self.net.layers)
        for w, li in zip(self.quantized_weights(), self.net.parametric_indices()):
            weights[li] = w
        return replace(self.net, weights=weights)

    def _check_labels(self, labels, n):
        """labels as checked by data.check_labels for n >= 1 images."""
        if n < 1:
            raise ShapeError("no images to compute a loss on")
        return check_labels(labels, n, self.net.plan[-1].out_shape[0])

    # -- forward / backward ----------------------------------------------------

    def loss_and_grads(self, x_trits, labels):
        """Mean loss and latent-weight gradients for one encoded batch."""
        x, _ = as_batch(self.net, x_trits)
        return self._pass(x, labels, backward=True)

    def _pass(self, x_trits, labels, backward=False):
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
            wq = quantize_weights(self.params[k], self.net.precision,
                                  self.cfg.weight_r).data.astype(np.float64)
            wmat = wq if op.gather is None else conv_weight_matrix(wq)
            if backward:
                stack.append((op, k, x, wmat))
            # float32 row windows: H * ow * C * kernel values per conv image
            width = x[0].size if op.gather is None else \
                op.in_shape[1] * op.out_shape[2] * op.fan_in // op.layer.kernel
            u = np.moveaxis(np.empty((B, *op.out_shape)), 1, -1)
            for s in _blocks(B, B * width * 4):
                u[s] = exact_preact(op, x[s], wq)
            return u

        def ste_activate(op, u):
            a = activate(op, u)
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
        # Every conv block of the step goes through one buffer, held across
        # steps.  It grows to the step's largest block before the first:
        # a smaller one freed on the way left its heap pages resident.
        size = max([_conv_blocks(rec[0], len(rec[2]))[1] for rec in stack
                    if rec[0].gather is not None], default=0)
        if self._block.size < size:
            self._block = None  # free the smaller buffer first
            self._block = np.empty(size)
        for rec in reversed(stack):
            op = rec[0]
            if isinstance(op.layer, Activation):
                _, mask, a = rec
                sizes = [l.size for l in self.net.layers[op.index + 1:above]]
                dpre = _unpool(a, sizes, dval).reshape(mask.shape) * mask \
                    / op.scale
                continue
            _, k, x, wmat = rec
            if op.gather is None:
                grads[k] = np.asarray(x, dtype=np.float64).T @ dpre
            else:
                dpre = _patch_rows(dpre)
                grads[k] = _conv_weight_gradient(op, x, dpre, self._block)
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
        # free the block buffer, which would add to the forward pass's peak
        self._block = np.empty(0)
        images = check_images(images)
        n = images.shape[0]
        labels = self._check_labels(labels, n)
        total = 0.0
        for lo in range(0, n, EVAL_BATCH):
            hi = min(lo + EVAL_BATCH, n)
            x = _encode_batch(images[lo:hi])
            total += self._pass(x, labels[lo:hi]) * (hi - lo)
        return total / n

    def fit(self, images, labels, log_fn=None):
        if log_fn is not None and not callable(log_fn):
            raise ConfigError(f"log_fn is not callable: {shown(log_fn)}")
        cfg = self.cfg
        images = check_images(images)
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
            if log_fn is not None:
                log_fn(f"epoch {epoch:3d}  train {train_loss:.4f}  "
                       f"val {val_loss:.4f}")
        result.net = self.network()
        return result


def train(net_template, images, labels, cfg=None, log_fn=None):
    """Train the architecture on (images, labels); returns a TrainResult."""
    trainer = Trainer(net_template, cfg)
    return trainer.fit(images, labels, log_fn=log_fn)
