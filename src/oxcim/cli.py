"""Command-line entry point, and the one writer of run outputs.

Subcommands: train, eval, sweep-sense, hist, encode-preview; each takes
only the flags it reads.  A command reads each config and weight file
once, and the manifest hashes the bytes that were parsed.  Every file a
command makes goes through ``_write`` (a temporary file, then
os.replace, so no output is ever half written), with ``manifest.txt``
last: the manifest (key = value text) records the exact command line,
seeds, sha-256 prefixes of the config and weight files and the python,
numpy and scipy versions, so any result can be reproduced from the
manifest alone.

Output files; the CSVs end their lines with \\r\\n and write floats as
their repr:

    accuracy.csv   seed, mode, accuracy          (accuracy in percent)
    confusion.csv  true, pred, count             (first seed / single run)
    summary.txt    eval's one-line accuracy summary
    sense.csv      popcount, n_pos, n_neg, delta_uA, v_neuron
    hist.csv       trit, bin_lo_S, bin_hi_S, count
    loss.csv       epoch, train_loss, val_loss   (epoch 0 = before training)
    weights.qnn    the trained net (weightfile format), or train --weights

Evaluation outputs are bit-identical at any --threads and any BLAS thread
count: workers map over fixed 8-image chunks, every READ column sum is
exact in any summation order (an error-free hi + lo split of the
conductances), and the ideal pass multiplies trits, which float32 does
exactly.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import os
import pathlib
import platform
import shlex
import sys

import numpy
import scipy

from . import device, weightfile
from .bench import (ExperimentSpec, run_accuracy, sweep_sense_distribution,
                    weight_conductance_histogram)
from .data import load_dataset_dir, pad_to_32
from .errors import OxcimError
from .hardware import map_network_to_tiles
from .network import encode_thermometric, lenet
from .quant import Precision
from .train import TrainConfig, train


def _parse_dims(text):
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {text!r}")


def _parse_seeds(text):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


# Flags that more than one command takes; each command lists its own.
_SHARED_FLAGS = {
    "--config": dict(default="hrs",
                     help="device config: path to a .cfg file, or "
                          "'hrs'/'lrs' for the packaged defaults"),
    "--weights": dict(help="network/weight file (.qnn)"),
    "--seed": dict(type=int, default=None, help="override the base seed"),
    "--threads": dict(type=int, default=0,
                      help="worker threads (0 = available parallelism)"),
}


def build_parser():
    top = argparse.ArgumentParser(
        prog="oxcim",
        description="Quantized neural networks on simulated OxRAM crossbars")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.add_argument("--out-dir", default=".", help="output directory")
        return p

    p = command("train", "train a quantized network and emit a weight file",
                "--weights", "--seed")
    p.add_argument("--data", required=True, help="dataset directory (IDX files)")
    p.add_argument("--precision", required=True, choices=["binary", "ternary"])
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--r", type=float, default=0.5,
                   help="ternary activation dead band")
    p.add_argument("--weight-r", type=float, default=0.5,
                   help="ternary weight quantization dead band")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--limit", type=int, default=None,
                   help="train on the first N images only")

    p = command("eval", "evaluate a weight file in ideal or hardware mode",
                "--config", "--weights", "--seed", "--threads")
    p.add_argument("--mode", required=True, choices=["ideal", "hardware"])
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--trials", type=int, default=1,
                   help="without --seeds, run seeds seed .. seed+N-1")
    p.add_argument("--seeds", type=_parse_seeds, default=None)
    p.add_argument("--max-tile", type=_parse_dims, default=(64, 64))

    p = command("sweep-sense",
                "sense-output vs popcount distribution on a small tile",
                "--config", "--seed")
    p.add_argument("--dims", type=_parse_dims, default=(4, 4))
    p.add_argument("--precision", required=True, choices=["binary", "ternary"])
    p.add_argument("--samples", type=int, default=5000)

    command("hist", "weight-to-conductance histogram for a mapped network",
            "--config", "--weights", "--seed")

    p = command("encode-preview",
                "show the thermometric encoding of one dataset image")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--index", type=int, default=0)
    return top


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _load_config(spec_text, seed_override=None):
    """(config, sha) from one read of a .cfg file or a packaged default."""
    if spec_text in ("hrs", "lrs"):
        data = device.default_config_file(spec_text).read_bytes()
        name = f"{spec_text}_default"
    else:
        data, name = pathlib.Path(spec_text).read_bytes(), spec_text
    cfg = device.parse_device_config(data, name=name)
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return cfg, _digest(data)


def _load_weights(path):
    """(net, sha) from one read of a weight file."""
    data = pathlib.Path(path).read_bytes()
    return weightfile.loads(data, name=str(path)), _digest(data)


def _csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path, text):
    """Write text to path atomically: a temporary file, then os.replace."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(out_dir, argv, outputs, entries):
    """Write each (name, text) output into out_dir, then the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in outputs:
        _write(os.path.join(out_dir, name), text)
    lines = [f"command = oxcim {shlex.join(argv)}"]
    lines += [f"{k} = {v}" for k, v in entries]
    lines += [f"python = {platform.python_version()}",
              f"numpy = {numpy.__version__}", f"scipy = {scipy.__version__}"]
    _write(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


def _threads(args):
    if args.threads < 0:
        raise SystemExit2(f"--threads must be >= 0, got {args.threads}")
    return args.threads or (os.cpu_count() or 1)


class SystemExit2(Exception):
    """Usage error detected after argparse; exits with status 2 + usage text."""


# Each _cmd_* returns (outputs, manifest entries, message) for _emit; the
# message goes to stdout once the files are written.

def _cmd_train(args):
    if args.limit is not None and args.limit < 1:
        raise SystemExit2(f"--limit must be >= 1, got {args.limit}")
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                      weight_r=args.weight_r, val_fraction=args.val_fraction,
                      seed=args.seed if args.seed is not None else 0)
    store = load_dataset_dir(args.data)
    images, labels = store.train_images, store.train_labels
    if args.limit is not None:
        images, labels = images[:args.limit], labels[:args.limit]
    precision = Precision(args.precision)
    template = lenet(precision, r=args.r)
    result = train(template, images, labels, cfg,
                   log_fn=lambda msg: print(msg, flush=True))
    weights_path = args.weights or os.path.join(args.out_dir, "weights.qnn")
    weights = weightfile.dumps(result.net)
    loss = [(0, "", repr(result.initial_val_loss))]
    loss += [(epoch, repr(tr), repr(va)) for epoch, tr, va in result.loss_curve]
    _, train_loss, val_loss = result.loss_curve[-1]
    # an absolute path joins out_dir as itself
    return ([(os.path.abspath(weights_path), weights),
             ("loss.csv", _csv(["epoch", "train_loss", "val_loss"], loss))], [
        ("subcommand", "train"),
        ("precision", args.precision),
        ("epochs", args.epochs),
        ("seed", cfg.seed),
        ("weights_out", weights_path),
        ("weights_sha", _digest(weights.encode("utf-8"))),
    ], f"trained {args.precision} net: final train loss {train_loss:.4f}, "
       f"val loss {val_loss:.4f}; weights -> {weights_path}")


def _cmd_eval(args):
    if not args.weights:
        raise SystemExit2("eval requires --weights")
    threads = _threads(args)
    cfg, cfg_digest = _load_config(args.config, args.seed)
    net, weights_digest = _load_weights(args.weights)
    store = load_dataset_dir(args.data)
    seeds = args.seeds
    if seeds is None:
        seeds = [cfg.seed + i for i in range(args.trials)]
    spec = ExperimentSpec(net=net, config=cfg, mode=args.mode,
                          seeds=seeds, limit=args.limit,
                          max_tile=args.max_tile, threads=threads)
    report = run_accuracy(spec, store.test_images, store.test_labels)
    summary = report.summary()
    return ([
        ("accuracy.csv", _csv(["seed", "mode", "accuracy"],
                              [(s, report.mode, repr(a)) for s, a in
                               zip(report.seeds, report.accuracies)])),
        ("confusion.csv", _csv(["true", "pred", "count"],
                               [(t, p, int(c)) for (t, p), c in
                                numpy.ndenumerate(report.confusion.counts)])),
        ("summary.txt", summary + "\n"),
    ], [
        ("subcommand", "eval"),
        ("mode", args.mode),
        ("config", args.config),
        ("config_sha", cfg_digest),
        ("weights", args.weights),
        ("weights_sha", weights_digest),
        ("seeds", ",".join(str(s) for s in spec.seeds)),
        ("limit", args.limit),
    ], summary)


def _cmd_sweep(args):
    cfg, cfg_digest = _load_config(args.config)
    seed = args.seed if args.seed is not None else 0
    rows = sweep_sense_distribution(args.dims, Precision(args.precision), cfg,
                                    samples=args.samples, seed=seed)
    groups = sorted({pc for pc, *_ in rows})
    return ([("sense.csv", _csv(
        ["popcount", "n_pos", "n_neg", "delta_uA", "v_neuron"],
        [(pc, npos, nneg, repr(d), repr(v)) for pc, npos, nneg, d, v in rows]))
    ], [
        ("subcommand", "sweep-sense"),
        ("dims", f"{args.dims[0]}x{args.dims[1]}"),
        ("precision", args.precision),
        ("samples", args.samples),
        ("seed", seed),
        ("config", args.config),
        ("config_sha", cfg_digest),
    ], f"sense sweep {args.dims[0]}x{args.dims[1]} {args.precision}: "
       f"{len(rows)} rows, popcount groups {groups}")


def _cmd_hist(args):
    if not args.weights:
        raise SystemExit2("hist requires --weights")
    cfg, cfg_digest = _load_config(args.config, args.seed)
    net, weights_digest = _load_weights(args.weights)
    rows, stats = weight_conductance_histogram(map_network_to_tiles(net, cfg))
    return ([("hist.csv", _csv(
        ["trit", "bin_lo_S", "bin_hi_S", "count"],
        [(t, repr(lo), repr(hi), c) for t, lo, hi, c in rows]))
    ], [
        ("subcommand", "hist"),
        ("config", args.config),
        ("config_sha", cfg_digest),
        ("weights", args.weights),
        ("weights_sha", weights_digest),
        ("separability", stats["separability"]),
    ], f"separability (min gap / pooled sigma): {stats['separability']:.3f}; "
       f"cells per trit: {stats['count']}")


def _cmd_encode_preview(args):
    store = load_dataset_dir(args.data)
    images = store.test_images if args.split == "test" else store.train_images
    labels = store.test_labels if args.split == "test" else store.train_labels
    if not (0 <= args.index < images.shape[0]):
        raise SystemExit2(f"--index out of range (0..{images.shape[0] - 1})")
    channels = encode_thermometric(pad_to_32(images[args.index]))
    mid = channels.shape[0] // 2
    lines = [f"{args.split}[{args.index}] label={labels[args.index]}"]
    lines += [f"channel {c}: {100.0 * channels[c].mean():5.1f}% on"
              for c in range(channels.shape[0])]
    lines.append(f"channel {mid} bitmap:")
    lines += ["".join("#" if v else "." for v in row) for row in channels[mid]]
    return [], [
        ("subcommand", "encode-preview"),
        ("data", args.data),
        ("split", args.split),
        ("index", args.index),
    ], "\n".join(lines)


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-sense": _cmd_sweep,
    "hist": _cmd_hist,
    "encode-preview": _cmd_encode_preview,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outputs, entries, message = _COMMANDS[args.command](args)
        _emit(args.out_dir, argv, outputs, entries)
    except SystemExit2 as exc:
        parser.print_usage(sys.stderr)
        print(f"oxcim: error: {exc}", file=sys.stderr)
        return 2
    except (OxcimError, OSError) as exc:
        print(f"oxcim: error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
