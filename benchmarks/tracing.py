"""In-memory span tracing around the public functions of the oxcim modules.

Tracing patches module and class attributes from outside the package; the
package source is never edited.  Each name is patched where its caller
looks it up: ``oxcim.hardware.im2col`` and ``oxcim.network.im2col`` are
separate bindings of one function, so each is wrapped on its own, and
``forward_hardware`` resolves ``oxcim.network.maxpool`` at call time, so
that one binding covers both passes.

A span is ``(id, parent id, name, start ns, end ns, extra)``; ``extra``
holds counts taken at the boundary (for example the gated rows of a
``vmm_batch`` input).  Spans stay in memory until ``write_csv``.  Tracing is
meant for single-threaded runs: the open-span stack is thread-local, so a
stray worker thread cannot corrupt it, but spans from several threads would
overlap in time and make self time meaningless.
"""

import csv
import functools
import importlib
import itertools
import statistics
import threading
import time

import numpy as np

from oxcim import bench, crossbar, data, hardware, network, rng, weightfile

# ``oxcim`` re-exports the function ``train`` under the module's name.
train = importlib.import_module("oxcim.train")


def _vmm_extra(args, kwargs, result):
    tile, x_batch = args[0], np.asarray(args[1])
    return (tile.array_id, x_batch.shape[0], tile.rows, tile.cols,
            int(np.count_nonzero(x_batch)))


def _map_extra(args, kwargs, result):
    labels = {}
    counters = {"conv": 0, "fc": 0}
    tiles = cells = 0
    for li in sorted(result.mappings):
        kind = "conv" if isinstance(result.net.layers[li], network.Conv2D) \
            else "fc"
        counters[kind] += 1
        for p in result.mappings[li].placements:
            labels[p.tile.array_id] = f"{kind}{counters[kind]}"
            tiles += 1
            cells += p.tile.rows * p.tile.cols
    return (tiles, cells, labels)


# (owner, attribute, span name, extra) -- extra maps (args, kwargs, result)
# to the counts recorded on the span, or is None.
PATCH_POINTS = (
    (rng, "normals_consuming_keys", "rng.normals",
     lambda a, k, r: int(r.size)),
    (rng, "read_event_words", "rng.read_event_words", None),
    (crossbar.CrossbarTile, "vmm_batch", "crossbar.vmm", _vmm_extra),
    (crossbar, "clamp_floor", "device.clamp", lambda a, k, r: r[1]),
    (crossbar, "sample_device_conductance_grid", "device.d2d_sample", None),
    (crossbar, "sigmoid_neuron_voltage", "device.neuron", None),
    (crossbar, "act_binary", "quant.act", None),
    (crossbar, "act_ternary", "quant.act", None),
    (hardware, "sense_to_activation", "crossbar.sense", None),
    (hardware, "im2col", "hardware.im2col", None),
    (hardware, "forward_hardware", "hardware.forward", None),
    (bench, "map_network_to_tiles", "hardware.map", _map_extra),
    (network, "forward_ideal", "network.forward_ideal", None),
    (network, "im2col", "network.im2col", None),
    (network, "maxpool", "network.maxpool", None),
    (network, "act_binary", "quant.act", None),
    (network, "act_ternary", "quant.act", None),
    (bench, "encode_images", "bench.encode", lambda a, k, r: len(r)),
    (bench, "thermometric_trits", "bench.thermometric", None),
    (train.Trainer, "fit", "train.fit", None),
    (train.Trainer, "loss_and_grads", "train.loss_and_grads", None),
    (train.Trainer, "evaluate_loss", "train.evaluate_loss", None),
    (train, "thermometric_trits", "train.encode", None),
    (train, "pad_to_32", "train.encode", None),
    (train, "quantize_weights", "train.quantize", None),
    (train, "act_binary", "quant.act", None),
    (train, "act_ternary", "quant.act", None),
    (weightfile, "load_network", "weightfile.load", None),
    (data, "synthetic_images", "data.synth", None),
)


class Tracer:
    """Wraps every patch point while active; use as a context manager."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, extra):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append((sid, parent, name, t0, t1,
                          extra(args, kwargs, result) if extra else None))
            return result

        return wrapper

    def __enter__(self):
        for owner, attr, name, extra in PATCH_POINTS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, extra))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_ns", "end_ns", "extra"])
            for sid, parent, name, t0, t1, extra in self.spans:
                w.writerow([sid, parent, name, t0, t1,
                            "" if extra is None else repr(extra)])


class SpanIndex:
    """Total and self time per span name, in milliseconds."""

    def __init__(self, spans):
        self.spans = spans
        child_ns = {}
        for _sid, parent, _name, t0, t1, _extra in spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        self._child_ns = child_ns

    def named(self, name):
        return [s for s in self.spans if s[2] == name]

    def total_ms(self, name):
        return sum(t1 - t0 for _, _, _, t0, t1, _ in self.named(name)) / 1e6

    def self_ms(self, name):
        return sum(t1 - t0 - self._child_ns.get(sid, 0)
                   for sid, _, _, t0, t1, _ in self.named(name)) / 1e6


LAYERS = ("conv1", "conv2", "fc1", "fc2", "fc3")


def _median(values):
    return statistics.median(values) if values else 0.0


def _ms(span):
    return (span[4] - span[3]) / 1e6


def layer_metrics(setup_ix, ix, images, overhead_pct):
    """Per-layer metrics of one traced pass over ``images`` images.

    Layers that did not run report 0.  Training metrics are per batch of
    ``Trainer.fit``; ``evaluate_loss`` batches are not counted as batches.
    """
    m = {}

    def per_image(ms):
        return ms / images

    normals = ix.named("rng.normals")
    m["rng.normals_ms_per_image"] = per_image(ix.total_ms("rng.normals"))
    m["rng.normals_per_image"] = sum(s[5] for s in normals) / images
    m["rng.read_words_ms_per_image"] = per_image(
        ix.total_ms("rng.read_event_words"))

    maps = ix.named("hardware.map")
    tiles, cells_programmed, labels = maps[-1][5] if maps else (0, 0, {})
    vmm_ms = dict.fromkeys(LAYERS, 0.0)
    read_events = cells_read = gated = row_slots = 0
    for span in ix.named("crossbar.vmm"):
        array_id, patterns, rows, cols, nnz = span[5]
        vmm_ms[labels[array_id]] += _ms(span)
        read_events += 2 * patterns
        cells_read += nnz * cols
        gated += nnz
        row_slots += patterns * rows
    for layer in LAYERS:
        m[f"crossbar.vmm_ms_per_image.{layer}"] = per_image(vmm_ms[layer])
    m["crossbar.gather_reduce_self_ms_per_image"] = per_image(
        ix.self_ms("crossbar.vmm"))
    m["crossbar.read_events_per_image"] = read_events / images
    m["crossbar.cells_read_per_image"] = cells_read / images
    m["crossbar.gated_row_fraction"] = gated / row_slots if row_slots else 0.0
    m["crossbar.sense_ms_per_image"] = per_image(ix.total_ms("crossbar.sense"))
    m["hardware.tiles"] = tiles
    m["hardware.cells_programmed"] = cells_programmed
    forward_ms = ix.total_ms("hardware.forward")
    m["hardware.forward_ms_per_image"] = per_image(forward_ms)
    m["hardware.self_ms_per_image"] = per_image(ix.self_ms("hardware.forward"))
    m["hardware.im2col_ms_per_image"] = per_image(
        ix.total_ms("hardware.im2col"))
    m["hardware.map_ms"] = _median([_ms(s) for s in maps])
    m["crossbar.conv1_share_pct"] = \
        100.0 * vmm_ms["conv1"] / forward_ms if forward_ms else 0.0
    m["rng.normals_share_pct"] = \
        100.0 * ix.total_ms("rng.normals") / forward_ms if forward_ms else 0.0

    clamps = ix.named("device.clamp")
    m["device.clamp_ms_per_image"] = per_image(ix.total_ms("device.clamp"))
    m["device.clamps_per_image"] = sum(s[5] for s in clamps) / images
    m["device.neuron_ms_per_image"] = per_image(ix.total_ms("device.neuron"))
    m["device.d2d_sample_ms"] = \
        ix.total_ms("device.d2d_sample") / len(maps) if maps else 0.0

    m["quant.act_ms_per_image"] = per_image(ix.total_ms("quant.act"))
    m["network.forward_ideal_ms_per_image"] = per_image(
        ix.total_ms("network.forward_ideal"))
    m["network.forward_ideal_self_ms_per_image"] = per_image(
        ix.self_ms("network.forward_ideal"))
    m["network.im2col_ms_per_image"] = per_image(ix.total_ms("network.im2col"))
    m["network.maxpool_ms_per_image"] = per_image(
        ix.total_ms("network.maxpool"))
    m["bench.encode_ms_per_image"] = per_image(ix.total_ms("bench.encode"))

    fit_ids = {s[0] for s in ix.named("train.fit")}
    steps = [s for s in ix.named("train.loss_and_grads") if s[1] in fit_ids]
    step_ids = {s[0] for s in steps}
    step_ms = [_ms(s) for s in steps]
    batches = len(steps)

    def per_batch(ms):
        return ms / batches if batches else 0.0

    m["train.batches"] = batches
    m["train.loss_and_grads_ms_per_batch.p50"] = _median(step_ms)
    m["train.loss_and_grads_ms_per_batch.p90"] = \
        statistics.quantiles(step_ms, n=10)[8] if len(step_ms) > 1 \
        else _median(step_ms)
    m["train.encode_ms_per_batch"] = per_batch(sum(
        _ms(s) for s in ix.named("train.encode") if s[1] in fit_ids))
    m["train.quantize_ms_per_batch"] = per_batch(sum(
        _ms(s) for s in ix.named("train.quantize") if s[1] in step_ids))
    m["train.eval_loss_ms"] = _median(
        [_ms(s) for s in ix.named("train.evaluate_loss")])
    m["train.update_self_ms_per_batch"] = per_batch(ix.self_ms("train.fit"))

    m["weightfile.load_ms"] = _median(
        [_ms(s) for s in setup_ix.named("weightfile.load")])
    m["data.synth_ms"] = _median(
        [_ms(s) for s in setup_ix.named("data.synth")])
    m["trace.overhead_pct"] = overhead_pct
    return m
