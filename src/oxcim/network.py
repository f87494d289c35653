"""Network descriptions, their compiled layer plan, the layer walk, and the
exact digital forward pass.

A network is an ordered list of layers (conv / maxpool / dense / activation)
plus one trit weight tensor per parametric layer.  Construction checks the
chain once and compiles it into a plan, one LayerOp per layer with its
shapes, fan-in, activation scale and, for a conv, the im2col gather
indices.  That lowering is how a conv lands on crossbar tiles and how
backprop sees it: the lowered weight matrix is (k*k*in_ch) x out_ch, and
row p of the gather lists the input offsets that output position p reads,
in the matrix's row order.  One walk runs the plan on an image batch for
the exact pass here, the analog pass (hardware.py) and the training pass
(train.py); each supplies the step from a layer input to scaled
pre-activations and the output step, and training also wraps the
activation step to record what backprop needs.
The exact products (exact_preact) need no patch matrix: a conv is summed
one kernel row at a time over windows of the input rows (the kn2row
scheme of Vasudevan, Anderson & Gregg, turned around so that the output
positions, not the few output channels, are the long axis of each GEMM).
No pass builds a patch matrix: tile READs gather each row block's slice
of the input vectors on its own (hardware.py).

Hidden pre-activations are integer popcounts with magnitude up to the
layer's fan-in, so before an activation they are divided by a fixed
per-layer scale of sqrt(fan_in), which keeps them on the unit-ish range the
ternary dead-band threshold r is defined on.  The binary activation is a
pure sign and does not care about the scale; the same scale choice feeds
the hardware gain calibration so the digital and analog paths agree.  The
scale carries a relative 2**-20 nudge: a perfectly square fan-in (e.g.
400) would otherwise put integer popcounts exactly on the dead-band edge
r * scale, where the analog path's last-ulp rounding could disagree with
the exact digital decision.  The binary activation has the same hazard at
its sign edge: a popcount of exactly 0 is common (even fan-ins), and the
analog path lands it a few ulp either side of zero.  Binary hidden
activations therefore decide at minus half a popcount unit,
u + 0.5 / scale >= 0, which keeps the edge strictly between integer
popcounts; digital and training decisions, on exact integers, are those
of a plain sign at 0.

Grayscale inputs enter through thermometric encoding: channel k of a pixel
is set iff the pixel meets threshold k, giving 8 monotone binary channels
that map to +/-1 activations (0 -> -1) downstream.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .device import sigmoid_ideal
from .errors import ConfigError, ShapeError, check_integer, check_reals, \
    check_trits, check_type, shown
from .quant import Precision, TernaryTensor, act_binary, act_ternary, \
    check_dead_band, check_precision

N_THERMO_CHANNELS = 8
# keeps integer popcounts strictly off the ternary dead-band boundary
SCALE_NUDGE = 1.0 + 2.0 ** -20
# Largest input, conv input, conv gather (output positions x fan-in) and
# dense fan-in a plan may hold: 4 Mi int64 offsets take 32 MiB, LeNet's
# conv1 needs 28*28*200, and every fan-in stays below the 2**24 up to which
# exact_preact's float32 sums are exact.
MAX_PLAN_CELLS = 2 ** 22
# Equally spaced at 32 except the top level, which saturates at 255 so the
# brightest pixel activates every channel.
DEFAULT_THERMO_THRESHOLDS = (32, 64, 96, 128, 160, 192, 224, 255)


def thermometric_trits(images):
    """Grayscale (..., H, W) images (0..255) -> (..., channels, H, W) int8
    trit activations.

    out[..., c, i, j] = +1 iff image[..., i, j] meets threshold c of
    DEFAULT_THERMO_THRESHOLDS, else -1; per pixel the code is monotone in c
    (a thermometer).  The bits are written into the output and mapped to
    trits in place, so a batch costs no temporary of the output's size.
    """
    img = check_reals(images, "pixel values", 0, 255)
    if img.ndim < 2:
        raise ShapeError("expected (..., H, W) grayscale images")
    out = np.empty(img.shape[:-2] + (N_THERMO_CHANNELS,) + img.shape[-2:],
                   dtype=np.int8)
    for c, t in enumerate(DEFAULT_THERMO_THRESHOLDS):
        np.greater_equal(img, t, out=out[..., c, :, :], casting="unsafe")
    out *= 2
    out -= 1
    return out


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def _check_sizes(layer):
    for name, size in vars(layer).items():
        check_integer(size, f"{type(layer).__name__} {name}", lo=1)


@dataclass(frozen=True)
class Conv2D:
    out_channels: int
    kernel: int
    stride: int = 1

    __post_init__ = _check_sizes


@dataclass(frozen=True)
class MaxPool2D:
    size: int

    __post_init__ = _check_sizes


@dataclass(frozen=True)
class Dense:
    out_units: int

    __post_init__ = _check_sizes


@dataclass(frozen=True)
class Activation:
    kind: str  # 'binary' | 'ternary' | 'sigmoid_output'
    r: float = 0.5

    def __post_init__(self):
        if self.kind not in ("binary", "ternary", "sigmoid_output"):
            raise ConfigError(f"unknown activation kind {shown(self.kind)}")
        if self.kind == "ternary":
            check_dead_band(self.r)


def im2col(x, kernel, stride=1):
    """(C, H, W) -> (P, C*k*k) patch matrix, P ordered row-major over output.

    Patch element order is (channel, kernel row, kernel col), matching
    conv_weight_matrix below.
    """
    check_integer(kernel, "kernel", lo=1)
    check_integer(stride, "stride", lo=1)
    if x.ndim != 3:
        raise ShapeError(f"im2col needs a (C, H, W) map, got {x.shape}")
    c, h, w = x.shape
    if kernel > h or kernel > w:
        raise ShapeError(f"kernel {kernel} exceeds input {h}x{w}")
    win = sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    win = win[:, ::stride, ::stride, :, :]  # (C, oh, ow, k, k)
    _, oh, ow, _, _ = win.shape
    return win.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kernel * kernel), (oh, ow)


def conv_weight_matrix(w):
    """(O, C, k, k) conv weights -> (C*k*k, O) lowered matrix."""
    o = w.shape[0]
    return w.reshape(o, -1).T


def conv_output_shape(input_shape, conv):
    c, h, w = input_shape
    oh = (h - conv.kernel) // conv.stride + 1
    ow = (w - conv.kernel) // conv.stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv kernel {conv.kernel} does not fit input {input_shape}")
    return (conv.out_channels, oh, ow)


def maxpool(x, size):
    """Non-overlapping max pool over (..., C, H, W) trit maps; -1 < 0 < +1.

    Pairwise maxima over the size**2 strided views of the window offsets,
    which is far faster than a reduction over a 6-D reshape.
    """
    check_integer(size, "pool size", lo=1)
    if x.ndim < 3:
        raise ShapeError(f"maxpool needs (..., C, H, W) maps, got {x.shape}")
    h, w = x.shape[-2:]
    if h % size or w % size:
        raise ShapeError(f"pool size {size} does not divide {h}x{w}")
    out = x[..., ::size, ::size].copy()
    for i in range(size):
        for j in range(size):
            if i or j:
                np.maximum(out, x[..., i::size, j::size], out=out)
    return out


# ---------------------------------------------------------------------------
# Network description and its compiled plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayerOp:
    """One layer of a compiled plan; shapes are per image.

    A conv or dense op and the activation right after it share fan_in and
    scale, the sqrt(fan_in) divisor of that activation.  weight_shape is the
    trit tensor a conv or dense layer needs; gather holds a conv's flat input
    offsets, one row of fan_in per output position (the im2col order).
    """

    index: int
    layer: object
    in_shape: tuple
    out_shape: tuple
    fan_in: int = None
    scale: float = None
    weight_shape: tuple = None
    gather: np.ndarray = None


def compile_plan(precision, input_shape, layers, weights):
    """Check a layer chain and compile it into one LayerOp per layer.

    Each rule of the chain is checked once: an activation follows exactly
    one conv or dense layer, and one always does; a hidden activation has
    the precision's kind; sigmoid_output is the last layer, and only there;
    conv and pool take 3-D input.  Raises ConfigError or ShapeError.
    """
    check_precision(precision)
    shape = check_input_shape(input_shape)
    hidden = hidden_activation_kind(precision)
    outputs = [i for i, l in enumerate(layers)
               if isinstance(l, Activation) and l.kind == "sigmoid_output"]
    if outputs != [len(layers) - 1]:
        raise ConfigError("sigmoid_output must be the last layer, and only "
                          f"there: found at {outputs} of {len(layers)} layers")
    plan = []
    param = None  # the conv/dense op still waiting for its activation
    for i, (layer, w) in enumerate(zip(layers, weights)):
        if isinstance(layer, Activation) and param is None:
            raise ConfigError(f"layer {i}: activation without a preceding "
                              "conv/dense")
        if not isinstance(layer, Activation) and param is not None:
            raise ConfigError(f"layer {i}: missing activation before "
                              f"{type(layer).__name__}")
        if isinstance(layer, (Conv2D, MaxPool2D)) and len(shape) != 3:
            raise ShapeError(f"layer {i}: {type(layer).__name__} needs 3-D "
                             f"input, got {shape}")
        if isinstance(layer, Conv2D):
            out = conv_output_shape(shape, layer)
            fan_in = shape[0] * layer.kernel * layer.kernel
            size = math.prod(shape)
            if max(out[1] * out[2] * fan_in, size) > MAX_PLAN_CELLS:
                raise ShapeError(f"layer {i}: conv gathers {out[1]}*{out[2]}"
                                 f"*{fan_in} of {size} inputs, over "
                                 f"{MAX_PLAN_CELLS}")
            ids = np.arange(size).reshape(shape)
            op = param = LayerOp(
                i, layer, shape, out, fan_in, _scale(fan_in),
                (layer.out_channels, shape[0], layer.kernel, layer.kernel),
                im2col(ids, layer.kernel, layer.stride)[0])
        elif isinstance(layer, Dense):
            fan_in = math.prod(shape)
            if fan_in > MAX_PLAN_CELLS:
                raise ShapeError(f"layer {i}: dense fan-in {fan_in} over "
                                 f"{MAX_PLAN_CELLS}")
            op = param = LayerOp(i, layer, shape, (layer.out_units,), fan_in,
                                 _scale(fan_in), (fan_in, layer.out_units))
        elif isinstance(layer, Activation):
            if layer.kind not in (hidden, "sigmoid_output"):
                raise ConfigError(f"layer {i}: {layer.kind} activation in a "
                                  f"{precision.value} net")
            op = LayerOp(i, layer, shape, shape, param.fan_in, param.scale)
            param = None
        elif isinstance(layer, MaxPool2D):
            if shape[1] % layer.size or shape[2] % layer.size:
                raise ShapeError(f"layer {i}: pool {layer.size} does not divide "
                                 f"{shape[1]}x{shape[2]}")
            op = LayerOp(i, layer, shape, (shape[0], shape[1] // layer.size,
                                           shape[2] // layer.size))
        else:
            raise ConfigError(f"layer {i}: unknown layer {shown(layer)}")
        if op.weight_shape is not None:
            _check_weights(i, w, precision, op.weight_shape)
        elif w is not None:
            raise ConfigError(f"layer {i}: {type(layer).__name__} carries "
                              "no weights")
        plan.append(op)
        shape = op.out_shape
    if len(shape) != 1:
        raise ShapeError(f"network output must be a vector, got {shape}")
    return tuple(plan)


def check_input_shape(dims):
    """The input dimensions as a tuple: at least one, each an integer >= 1
    (else a ConfigError), their product at most MAX_PLAN_CELLS (else a
    ShapeError)."""
    shape = tuple(check_integer(d, "input dimension", lo=1) for d in dims)
    if not shape:
        raise ShapeError("input needs at least one dimension")
    if math.prod(shape) > MAX_PLAN_CELLS:
        raise ShapeError(f"input {shape} holds over {MAX_PLAN_CELLS} values")
    return shape


def _scale(fan_in):
    return math.sqrt(fan_in) * SCALE_NUDGE  # takes an int of any size


def _check_weights(i, w, precision, expected_shape):
    if w is None:
        return  # architecture-only description; require_weights() gates use
    if not isinstance(w, TernaryTensor):
        raise ConfigError(f"layer {i}: weights must be a TernaryTensor")
    if w.precision is not precision:
        raise ConfigError(f"layer {i}: weight precision {w.precision.value} "
                          f"!= network precision {precision.value}")
    if tuple(w.shape) != tuple(expected_shape):
        raise ShapeError(f"layer {i}: weight shape {w.shape} != {expected_shape}")


@dataclass(frozen=True)
class NetworkDescription:
    """A layer chain, its weights (None where a layer has none) and the plan
    compiled from them; frozen, so the plan always matches the net."""

    precision: Precision
    input_shape: tuple          # (C, H, W)
    layers: tuple
    weights: tuple
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers, weights = tuple(self.layers), tuple(self.weights)
        if len(weights) != len(layers):
            raise ConfigError("weights list must parallel the layer list")
        shape = check_input_shape(self.input_shape)
        plan = compile_plan(self.precision, shape, layers, weights)
        for name, value in zip(("input_shape", "layers", "weights", "plan"),
                               (shape, layers, weights, plan)):
            object.__setattr__(self, name, value)

    def require_weights(self):
        missing = [i for i in self.parametric_indices() if self.weights[i] is None]
        if missing:
            raise ConfigError(f"layers {missing} have no trained weights")

    def parametric_indices(self):
        return [i for i, l in enumerate(self.layers)
                if isinstance(l, (Conv2D, Dense))]


def hidden_activation_kind(precision):
    return "binary" if precision is Precision.BINARY else "ternary"


def lenet(precision, r=Activation.r):
    """The LeNet-style reference architecture used throughout this project.

    conv(6,5x5) -> pool2 -> conv(16,5x5) -> pool2 -> dense 120 -> dense 84
    -> dense 10, hidden activations per the precision, sigmoid output.
    """
    hid = hidden_activation_kind(precision)
    layers = [
        Conv2D(6, 5), Activation(hid, r), MaxPool2D(2),
        Conv2D(16, 5), Activation(hid, r), MaxPool2D(2),
        Dense(120), Activation(hid, r),
        Dense(84), Activation(hid, r),
        Dense(10), Activation("sigmoid_output"),
    ]
    return NetworkDescription(precision, (N_THERMO_CHANNELS, 32, 32), layers,
                              [None] * len(layers))


# ---------------------------------------------------------------------------
# The layer walk and the exact digital forward pass
# ---------------------------------------------------------------------------


def activate(op, u):
    """Hidden activations of the activation op from scaled pre-activations."""
    if op.layer.kind == "binary":
        return act_binary(u + 0.5 / op.scale)  # edge off the popcount lattice
    return act_ternary(u, op.layer.r)


def exact_preact(op, x, w):
    """Scaled float64 pre-activations of conv or dense op, from its trit
    weights w (any real dtype) and input x: (N, oh, ow, O) for a conv's
    (N, C, H, W) batch, (N, O) for a dense layer's (N, K).

    A conv copies float32 row windows channel-first,
    R[n, (c, kw), h, j] = x[n, c, h, j*stride + kw], and sums, over kernel
    rows kh, kernel row kh's (O, C*k) weights times R's rows kh,
    kh + stride, ... as a (C*k, oh*ow) matrix per image, so the output
    positions are the long axis of each GEMM (at stride 1 that matrix is a
    view of R).  Every partial sum is an integer of magnitude at most
    fan_in < 2**24, so the float32 sums are the exact popcounts and the
    float64 results are those of an integer patch-matrix product, bit for
    bit.  The conv result is the transposed view of a C-ordered
    (N, O, oh, ow) array.
    """
    if op.gather is None:
        pc = x.astype(np.float32) @ w.astype(np.float32)
        return np.divide(pc, op.scale, dtype=np.float64)
    o, c, k, _ = w.shape
    s = op.layer.stride
    _, oh, ow = op.out_shape
    n, _, h, _ = x.shape
    win = sliding_window_view(x, k, axis=3)[..., ::s, :]
    rows = np.ascontiguousarray(win.transpose(0, 1, 4, 2, 3), dtype=np.float32)
    rows = rows.reshape(n, c * k, h, ow)
    wk = w.transpose(2, 0, 1, 3).reshape(k, o, c * k).astype(np.float32)
    span = s * (oh - 1) + 1
    pc = wk[0] @ rows[:, :, :span:s].reshape(n, c * k, oh * ow)
    for kh in range(1, k):
        pc += wk[kh] @ rows[:, :, kh:kh + span:s].reshape(n, c * k, oh * ow)
    pc = np.divide(pc, op.scale, dtype=np.float64)
    return pc.reshape(n, o, oh, ow).transpose(0, 2, 3, 1)


def walk(net, x, preact, output, activate=activate):
    """Run the compiled plan of net on a batch x of shape (N, C, H, W).

    preact(op, x) turns a conv's (N, C, H, W) layer input or a dense
    layer's (N, K) input into scaled pre-activations: (N, O) for a dense
    layer, and for a conv either (N*P, O), image-major then output position
    row-major, or the same as (N, oh, ow, O).
    activate(op, u) sees them as (N, O, oh, ow) or (N, O); output(op, u)
    gets the last layer's (N, O) and the walk returns what it returns.
    The (N, O, oh, ow) maps are a transposed view of preact's result, so
    they are C-contiguous, and activate and maxpool read them in order,
    when that result is itself a view of a C-ordered (N, O, oh, ow) array,
    as exact_preact's is.
    """
    n = x.shape[0]
    val = x
    for op in net.plan:
        layer = op.layer
        if isinstance(layer, MaxPool2D):
            val = maxpool(val, layer.size)
        elif isinstance(layer, Activation):
            if layer.kind == "sigmoid_output":
                return output(op, u)
            val = activate(op, u)
        elif op.gather is not None:
            u = preact(op, val)
            o, oh, ow = op.out_shape
            u = u.reshape(n, oh, ow, o).transpose(0, 3, 1, 2)
        else:
            u = preact(op, val.reshape(n, -1))


def as_batch(net, x):
    """(int8 batch, one image?) for one (C, H, W) trit image or a batch.

    Raises DomainError for any value the net's precision does not allow,
    and ShapeError for a batch of no images, so the exact and the analog
    pass refuse the same inputs.
    """
    allowed = check_type(net, NetworkDescription).precision.allowed_values
    arr = check_trits(x.data if isinstance(x, TernaryTensor) else x,
                      "network inputs", allowed)
    if arr.ndim not in (3, 4) or arr.shape[-3:] != net.input_shape:
        raise ShapeError(f"input shape {arr.shape} != {net.input_shape}")
    if arr.size == 0:
        raise ShapeError("input batch holds no images")
    return arr.reshape(-1, *net.input_shape), arr.ndim == 3


def forward_ideal(net, x):
    """Digital-oracle forward pass: exact integer popcounts everywhere.

    x is a trit array matching net.input_shape, or a batch of them with a
    leading axis.  Returns the sigmoid output scores (floats in (0,1)), one
    row per image for a batch; the predicted class is argmax with ties
    going to the lowest index.
    """
    batch, single = as_batch(net, x)
    net.require_weights()

    def preact(op, x):
        return exact_preact(op, x, net.weights[op.index].data)

    scores = walk(net, batch, preact, lambda op, u: sigmoid_ideal(u))
    return scores[0] if single else scores


def predicted_class(scores):
    """Argmax class of one score row (an int) or of each row (int64 array);
    ties go to the lowest index."""
    pred = np.argmax(scores, axis=-1).astype(np.int64)
    return int(pred) if pred.ndim == 0 else pred


def predict_ideal(net, x):
    return predicted_class(forward_ideal(net, x))
