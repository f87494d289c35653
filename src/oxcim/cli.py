"""Command-line entry point, and the one writer of run outputs.

Subcommands: train, eval, sweep-sense, hist; each takes only the flags
it reads, spelled in full (a prefix is no flag).  argparse reports usage
errors (exit 2); a value out of its range is the library's OxcimError
(exit 1).  A command reads each config and weight file once, and the
manifest hashes the bytes that were parsed.  Every file a command makes
goes through ``_write`` (a temporary file, then os.replace, so no output
is ever half written), with ``manifest.txt`` last: the manifest (key =
value text) records the exact command line, seeds, sha-256 prefixes of
the config and weight files and the python, numpy and scipy versions, so
any result can be reproduced from the manifest alone.

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
from .data import load_dataset_dir
from .errors import OxcimError, check_integer, shown
from .hardware import DEFAULT_MAX_TILE, map_network_to_tiles
from .network import Activation, lenet
from .quant import Precision
from .train import TrainConfig, train


def _parse_dims(text):
    try:
        r, c = text.lower().split("x")
        return int(r), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ROWSxCOLS, got {shown(text)}")


def _parse_seeds(text):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated ints, got {shown(text)}")


def build_parser():
    top = argparse.ArgumentParser(
        prog="oxcim",
        description="Quantized neural networks on simulated OxRAM crossbars")
    sub = top.add_subparsers(dest="command", required=True)
    config = dict(default="hrs",
                  help="device config: path to a .cfg file, or 'hrs'/'lrs' "
                       "for the packaged defaults")
    out_dir = dict(default=".", help="output directory")

    def command(name, help):
        # a flag has one spelling: no prefix of it is read as the flag
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = command("train", "train a quantized network and emit a weight file")
    p.add_argument("--weights", help="path of the weight file to write "
                                     "(default: out-dir/weights.qnn)")
    p.add_argument("--seed", type=int, default=TrainConfig.seed,
                   help="training seed: weight init and minibatch order")
    p.add_argument("--out-dir", **out_dir)
    p.add_argument("--data", required=True, help="dataset directory (IDX files)")
    p.add_argument("--precision", required=True, choices=["binary", "ternary"])
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--r", type=float, default=Activation.r,
                   help="ternary activation dead band")
    p.add_argument("--weight-r", type=float, default=TrainConfig.weight_r,
                   help="ternary weight quantization dead band")
    p.add_argument("--val-fraction", type=float,
                   default=TrainConfig.val_fraction)
    p.add_argument("--limit", type=int, default=None,
                   help="train on the first N images only")

    p = command("eval", "evaluate a weight file in ideal or hardware mode")
    p.add_argument("--config", **config)
    p.add_argument("--weights", required=True, help="weight file (.qnn)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads (0 = available parallelism)")
    p.add_argument("--out-dir", **out_dir)
    p.add_argument("--mode", required=True, choices=["ideal", "hardware"])
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--seeds", type=_parse_seeds, default=None,
                   help="one trial per seed (default: the config's seed)")
    p.add_argument("--max-tile", type=_parse_dims, default=DEFAULT_MAX_TILE)

    p = command("sweep-sense",
                "sense-output vs popcount distribution on a small tile")
    p.add_argument("--config", **config)
    p.add_argument("--seed", type=int, default=0,
                   help="sweep seed: the random weights and inputs")
    p.add_argument("--out-dir", **out_dir)
    p.add_argument("--dims", type=_parse_dims, default=(4, 4))
    p.add_argument("--precision", required=True, choices=["binary", "ternary"])
    p.add_argument("--samples", type=int, default=5000)

    p = command("hist", "weight-to-conductance histogram for a mapped network")
    p.add_argument("--config", **config)
    p.add_argument("--weights", required=True, help="weight file (.qnn)")
    p.add_argument("--seed", type=int, default=None,
                   help="device seed, in place of the config's")
    p.add_argument("--out-dir", **out_dir)
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


# Each _cmd_* returns (outputs, manifest entries, message) for _emit; the
# message goes to stdout once the files are written.

def _cmd_train(args):
    if args.limit is not None:
        check_integer(args.limit, "limit", lo=1)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                      weight_r=args.weight_r, val_fraction=args.val_fraction,
                      seed=args.seed)
    store = load_dataset_dir(args.data)
    # a limit of None slices every image
    images = store.train_images[:args.limit]
    labels = store.train_labels[:args.limit]
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
    threads = check_integer(args.threads, "threads", lo=0)
    cfg, cfg_digest = _load_config(args.config)
    net, weights_digest = _load_weights(args.weights)
    store = load_dataset_dir(args.data)
    spec = ExperimentSpec(net=net, config=cfg, mode=args.mode,
                          seeds=args.seeds, limit=args.limit,
                          max_tile=args.max_tile,
                          threads=threads or os.cpu_count() or 1)
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
    rows = sweep_sense_distribution(args.dims, Precision(args.precision), cfg,
                                    samples=args.samples, seed=args.seed)
    groups = sorted({pc for pc, *_ in rows})
    return ([("sense.csv", _csv(
        ["popcount", "n_pos", "n_neg", "delta_uA", "v_neuron"],
        [(pc, npos, nneg, repr(d), repr(v)) for pc, npos, nneg, d, v in rows]))
    ], [
        ("subcommand", "sweep-sense"),
        ("dims", f"{args.dims[0]}x{args.dims[1]}"),
        ("precision", args.precision),
        ("samples", args.samples),
        ("seed", args.seed),
        ("config", args.config),
        ("config_sha", cfg_digest),
    ], f"sense sweep {args.dims[0]}x{args.dims[1]} {args.precision}: "
       f"{len(rows)} rows, popcount groups {groups}")


def _cmd_hist(args):
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


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep-sense": _cmd_sweep,
    "hist": _cmd_hist,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        outputs, entries, message = _COMMANDS[args.command](args)
        _emit(args.out_dir, argv, outputs, entries)
    except (OxcimError, OSError) as exc:
        print(f"oxcim: error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
