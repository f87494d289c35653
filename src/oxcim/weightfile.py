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

Weight payload encodings:

* ``pack64``  - trits bit-packed then base64-wrapped.  Binary tensors pack
  one bit per trit (+1 -> 1), ternary tensors pack five trits per byte in
  base-3 (digit = trit + 1, little-endian within the byte).  This is the
  default: a binary tensor costs ~1.33 bits per weight on disk, which is
  what gives the format its large edge over 32-bit floats.
* ``rle``     - human-readable run-length string over '-', '0', '+' with
  optional decimal repeat counts, e.g. ``+3-2+12``.  Because '0' doubles as
  a count digit, a '.' separator (a no-op for the decoder) always precedes
  a zero-run: ``+2.04`` is two '+' then four '0'.  Accepted on load and
  available for hand-written fixtures; not emitted by default since random
  sign sequences barely compress.

Round-trips are identity for both encodings; the parser rejects anything
malformed with a ParseError carrying the line number.
"""

import base64

import numpy as np

from .errors import ParseError
from .network import Activation, Conv2D, Dense, MaxPool2D, NetworkDescription
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
    try:
        raw = np.frombuffer(base64.b64decode(b64, validate=True), dtype=np.uint8)
    except Exception as exc:
        raise ParseError(f"bad base64 payload: {exc}") from None
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


def _rle_encode(tensor):
    flat = tensor.data.ravel()
    sym = {-1: "-", 0: "0", 1: "+"}
    out = []
    i = 0
    n = flat.size
    while i < n:
        j = i
        while j < n and flat[j] == flat[i]:
            j += 1
        run = j - i
        piece = sym[int(flat[i])]
        if run > 1:
            piece += str(run)
        # '0' doubles as a count digit, so a following zero-run needs a break
        if j < n and flat[j] == 0:
            piece += "."
        out.append(piece)
        i = j
    return "".join(out)


def _rle_decode(text, n):
    vals = {"-": -1, "0": 0, "+": 1}
    out = np.empty(n, dtype=np.int8)
    pos = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ".":
            i += 1
            continue
        if ch not in vals:
            raise ParseError(f"bad run-length symbol {ch!r} at position {i}")
        i += 1
        run = 0
        while i < len(text) and text[i].isdigit():
            run = run * 10 + int(text[i])
            i += 1
        run = max(run, 1)
        if pos + run > n:
            raise ParseError(f"run-length payload longer than {n} trits")
        out[pos:pos + run] = vals[ch]
        pos += run
    if pos != n:
        raise ParseError(f"run-length payload holds {pos} trits, need {n}")
    return out


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


def _parse_kv(fields, lineno, path):
    out = {}
    for f in fields:
        if "=" not in f:
            raise ParseError(f"expected key=value, got {f!r}", path=path, line=lineno)
        k, _, v = f.partition("=")
        out[k] = v
    return out


def _parse_layer(record, lineno, path):
    parts = record.split()
    kind, kv = parts[0], _parse_kv(parts[1:], lineno, path)
    try:
        if kind == "conv2d":
            layer = Conv2D(int(kv.pop("out_ch")), int(kv.pop("kernel")),
                           int(kv.pop("stride", 1)))
        elif kind == "maxpool":
            layer = MaxPool2D(int(kv.pop("size")))
        elif kind == "dense":
            layer = Dense(int(kv.pop("out")))
        elif kind == "activation":
            layer = Activation(kv.pop("kind"), float(kv.pop("r", 0.5)))
        else:
            raise ParseError(f"unknown layer kind {kind!r}",
                             path=path, line=lineno)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad layer record {record!r}: {exc}",
                         path=path, line=lineno) from None
    if kv:
        raise ParseError(f"unknown layer fields {sorted(kv)}",
                         path=path, line=lineno)
    return layer


def dumps(net, encoding="pack64"):
    if encoding not in ("pack64", "rle"):
        raise ParseError(f"unknown weight encoding {encoding!r}")
    net.require_weights()
    lines = [f"{MAGIC} {VERSION}",
             f"precision = {net.precision.value}",
             f"input = {','.join(str(d) for d in net.input_shape)}"]
    for i, layer in enumerate(net.layers):
        lines.append(f"layer.{i} = {_layer_record(layer)}")
    for i in net.parametric_indices():
        w = net.weights[i]
        shape = ",".join(str(d) for d in w.shape)
        if encoding == "pack64":
            payload = _pack_payload(w).decode("ascii")
        else:
            payload = _rle_encode(w)
        lines.append(f"weights.{i} = {encoding} {shape} {payload}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def loads(text, name="<string>"):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ParseError(f"missing {MAGIC!r} header", path=name, line=1)
    try:
        version = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ParseError("malformed header line", path=name, line=1) from None
    if version != VERSION:
        raise ParseError(f"unsupported version {version}", path=name, line=1)

    precision = None
    input_shape = None
    layer_recs = {}
    weight_recs = {}
    ended = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise ParseError("content after 'end'", path=name, line=lineno)
        if line == "end":
            ended = True
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}",
                             path=name, line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "precision":
            try:
                precision = Precision(value)
            except ValueError:
                raise ParseError(f"unknown precision {value!r}",
                                 path=name, line=lineno) from None
        elif key == "input":
            try:
                input_shape = tuple(int(t) for t in value.split(","))
            except ValueError:
                raise ParseError(f"bad input shape {value!r}",
                                 path=name, line=lineno) from None
        elif key.startswith("layer."):
            try:
                idx = int(key.split(".", 1)[1])
            except ValueError:
                raise ParseError(f"bad layer index in {key!r}",
                                 path=name, line=lineno) from None
            layer_recs[idx] = _parse_layer(value, lineno, name)
        elif key.startswith("weights."):
            try:
                idx = int(key.split(".", 1)[1])
            except ValueError:
                raise ParseError(f"bad weight index in {key!r}",
                                 path=name, line=lineno) from None
            weight_recs[idx] = (value, lineno)
        else:
            raise ParseError(f"unknown key {key!r}", path=name, line=lineno)
    if not ended:
        raise ParseError("missing 'end' terminator", path=name, line=len(lines))
    if precision is None or input_shape is None:
        raise ParseError("missing precision/input records", path=name)
    if sorted(layer_recs) != list(range(len(layer_recs))):
        raise ParseError("layer indices must be 0..n-1 without gaps", path=name)

    layers = [layer_recs[i] for i in range(len(layer_recs))]
    weights = [None] * len(layers)
    for idx, (value, lineno) in weight_recs.items():
        if idx >= len(layers):
            raise ParseError(f"weights.{idx} has no matching layer",
                             path=name, line=lineno)
        parts = value.split(None, 2)
        if len(parts) != 3:
            raise ParseError("weight record needs 'encoding shape payload'",
                             path=name, line=lineno)
        encoding, shape_s, payload = parts
        try:
            shape = tuple(int(t) for t in shape_s.split(","))
        except ValueError:
            raise ParseError(f"bad weight shape {shape_s!r}",
                             path=name, line=lineno) from None
        n = int(np.prod(shape))
        try:
            if encoding == "pack64":
                flat = _unpack_payload(payload.encode("ascii"), n, precision)
            elif encoding == "rle":
                flat = _rle_decode(payload, n)
            else:
                raise ParseError(f"unknown weight encoding {encoding!r}")
        except ParseError as exc:
            raise ParseError(str(exc), path=name, line=lineno) from None
        weights[idx] = TernaryTensor(flat.reshape(shape), precision)
    return NetworkDescription(precision, input_shape, layers, weights)


def save_network(net, path, encoding="pack64"):
    text = dumps(net, encoding)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_network(path):
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read(), name=str(path))
