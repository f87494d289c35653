"""Portable network/weight file format.

Text format, one record per line, versioned header.  Example:

    oxcim-qnn 1
    precision = binary
    input = 8,32,32
    layer.0 = conv2d out_ch=6 kernel=5 stride=1
    layer.1 = activation kind=binary
    layer.2 = maxpool size=2
    ...
    weights.0 = pack64 6,8,5,5 QmFzZTY0...
    ...
    end

The one weight payload encoding is ``pack64``: trits bit-packed then
base64-wrapped.  Binary tensors pack one bit per trit (+1 -> 1), ternary
tensors pack five trits per byte in base-3 (digit = trit + 1,
little-endian within the byte).  A binary tensor costs ~1.33 bits per
weight on disk, which is what gives the format its large edge over 32-bit
floats.

The records between the header and ``end`` follow the rules of
``errors.read_records``, so a repeated key, a malformed record or an
unknown encoding is a ParseError naming its line.  Weight records are
decoded as they are read: ``dumps`` always writes ``precision`` first, and
a weight record before it is an error.  A layer chain that does not
compile (see ``network.compile_plan``) is a ParseError of the file.
Round-trips are identity.
"""

import base64
import math

import numpy as np

from .errors import ParseError, read_records
from .network import (Activation, Conv2D, Dense, MaxPool2D, NetworkDescription,
                      check_input_shape)
from .quant import Precision, TernaryTensor

MAGIC = "oxcim-qnn"
VERSION = 1

_POW3 = np.array([1, 3, 9, 27, 81], dtype=np.uint8)


def _pack_payload(tensor):
    flat = tensor.data.ravel()
    if tensor.precision is Precision.BINARY:
        bits = (flat > 0).astype(np.uint8)
        return base64.b64encode(np.packbits(bits, bitorder="little").tobytes())
    digits = (flat + 1).astype(np.uint8)
    pad = (-digits.size) % 5
    if pad:
        digits = np.concatenate([digits, np.zeros(pad, dtype=np.uint8)])
    packed = (digits.reshape(-1, 5) * _POW3).sum(axis=1, dtype=np.uint16)
    return base64.b64encode(packed.astype(np.uint8).tobytes())


def _unpack_payload(b64, n, precision):
    raw = np.frombuffer(base64.b64decode(b64, validate=True), dtype=np.uint8)
    if precision is Precision.BINARY:
        if raw.size != (n + 7) // 8:
            raise ParseError(f"payload holds {raw.size * 8} bits, need {n}")
        bits = np.unpackbits(raw, bitorder="little")[:n]
        return bits.astype(np.int8) * 2 - 1
    if raw.size != (n + 4) // 5:
        raise ParseError(f"payload holds {raw.size * 5} trits, need {n}")
    digits = (raw[:, None] // _POW3[None, :]) % 3
    trits = digits.reshape(-1)[:n].astype(np.int8) - 1
    return trits


def _layer_record(layer):
    if isinstance(layer, Conv2D):
        return f"conv2d out_ch={layer.out_channels} kernel={layer.kernel} " \
               f"stride={layer.stride}"
    if isinstance(layer, MaxPool2D):
        return f"maxpool size={layer.size}"
    if isinstance(layer, Dense):
        return f"dense out={layer.out_units}"
    if isinstance(layer, Activation):
        rec = f"activation kind={layer.kind}"
        if layer.kind == "ternary":
            rec += f" r={layer.r!r}"
        return rec
    raise ParseError(f"cannot serialize layer {layer!r}")


def _parse_layer(record):
    kind, *fields = record.split()
    kv = dict(f.split("=", 1) for f in fields)
    if len(kv) != len(fields):
        raise ParseError("layer field given twice")
    if kind == "conv2d":
        layer = Conv2D(int(kv.pop("out_ch")), int(kv.pop("kernel")),
                       int(kv.pop("stride", 1)))
    elif kind == "maxpool":
        layer = MaxPool2D(int(kv.pop("size")))
    elif kind == "dense":
        layer = Dense(int(kv.pop("out")))
    elif kind == "activation":
        layer = Activation(kv.pop("kind"), float(kv.pop("r", Activation.r)))
    else:
        raise ParseError(f"unknown layer kind {kind!r}")
    if kv:
        raise ParseError(f"unknown layer fields {sorted(kv)}")
    return layer


def _parse_weights(record, precision):
    if precision is None:
        raise ParseError("weight record before the precision record")
    encoding, shape, payload = record.split(None, 2)
    if encoding != "pack64":
        raise ParseError(f"unknown weight encoding {encoding!r}")
    shape = tuple(int(t) for t in shape.split(","))
    flat = _unpack_payload(payload.encode("ascii"), math.prod(shape), precision)
    return TernaryTensor(flat.reshape(shape), precision)


def dumps(net):
    net.require_weights()
    lines = [f"{MAGIC} {VERSION}",
             f"precision = {net.precision.value}",
             f"input = {','.join(str(d) for d in net.input_shape)}"]
    for i, layer in enumerate(net.layers):
        lines.append(f"layer.{i} = {_layer_record(layer)}")
    for i in net.parametric_indices():
        w = net.weights[i]
        shape = ",".join(str(d) for d in w.shape)
        payload = _pack_payload(w).decode("ascii")
        lines.append(f"weights.{i} = pack64 {shape} {payload}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def loads(data, name="<string>"):
    """Parse a weight file from its bytes or text."""
    recs = {}

    def frame(lines):
        if not lines or lines[0].split() != [MAGIC, str(VERSION)]:
            raise ParseError(f"expected the header '{MAGIC} {VERSION}'",
                             path=name, line=1)
        end = len(lines)
        while end > 1 and not lines[end - 1].strip():
            end -= 1
        if lines[end - 1].strip() != "end":
            raise ParseError("missing 'end' terminator", path=name, line=end)
        return range(1, end - 1)

    def record(key, value):
        if key == "precision":
            recs[key] = Precision(value)
        elif key == "input":
            recs[key] = check_input_shape(int(t) for t in value.split(","))
        elif key.startswith("layer."):
            recs[key] = _parse_layer(value)
        elif key.startswith("weights."):
            recs[key] = _parse_weights(value, recs.get("precision"))
        else:
            raise ParseError("unknown key")

    read_records(data, record, name, frame)
    if "precision" not in recs or "input" not in recs:
        raise ParseError("missing precision/input records", path=name)
    n = sum(key.startswith("layer.") for key in recs)
    layers = [recs.pop(f"layer.{i}", None) for i in range(n)]
    if None in layers:
        raise ParseError("layer indices must be 0..n-1 without gaps", path=name)
    weights = [recs.pop(f"weights.{i}", None) for i in range(n)]
    orphans = sorted(key for key in recs if key.startswith("weights."))
    if orphans:
        raise ParseError(f"weight records without a layer: {orphans}",
                         path=name)
    try:
        return NetworkDescription(recs["precision"], recs["input"], layers,
                                  weights)
    except ValueError as exc:  # the layer chain does not compile
        raise ParseError(str(exc), path=name) from exc


def save_network(net, path):
    text = dumps(net)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_network(path):
    with open(path, "rb") as fh:
        return loads(fh.read(), name=str(path))
