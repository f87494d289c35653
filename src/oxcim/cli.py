"""Command-line entry point.

Subcommands: train, eval, sweep-sense, hist, encode-preview.  Every run
writes a machine-readable manifest (key = value text) next to its outputs
recording the exact command line, seeds, config/weight hashes and the
python, numpy and scipy versions, so any result can be reproduced from the
manifest alone.

Evaluation outputs are bit-identical at any --threads and any BLAS thread
count: workers map over fixed 8-image chunks, every READ column sum is
exact in any summation order (an error-free hi + lo split of the
conductances), and the ideal pass multiplies trits, which float32 does
exactly.
"""

import argparse
import dataclasses
import hashlib
import os
import platform
import shlex
import sys

import numpy
import scipy

from . import device, weightfile
from .bench import (ExperimentSpec, run_accuracy, sweep_sense_distribution,
                    weight_conductance_histogram, write_accuracy_csv,
                    write_confusion_csv, write_hist_csv, write_sense_csv)
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


def build_parser():
    top = argparse.ArgumentParser(
        prog="oxcim",
        description="Quantized neural networks on simulated OxRAM crossbars")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="hrs",
                        help="device config: path to a .cfg file, or 'hrs'/'lrs' "
                             "for the packaged defaults")
    common.add_argument("--weights", help="network/weight file (.qnn)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the base seed")
    common.add_argument("--threads", type=int, default=0,
                        help="worker threads (0 = available parallelism)")
    common.add_argument("--out-dir", default=".", help="output directory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train a quantized network and emit a weight file")
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

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a weight file in ideal or hardware mode")
    p.add_argument("--mode", required=True, choices=["ideal", "hardware"])
    p.add_argument("--data", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--trials", type=int, default=1,
                   help="without --seeds, run seeds seed .. seed+N-1")
    p.add_argument("--seeds", type=_parse_seeds, default=None)
    p.add_argument("--max-tile", type=_parse_dims, default=(64, 64))

    p = sub.add_parser("sweep-sense", parents=[common],
                       help="sense-output vs popcount distribution on a small tile")
    p.add_argument("--dims", type=_parse_dims, default=(4, 4))
    p.add_argument("--precision", required=True, choices=["binary", "ternary"])
    p.add_argument("--samples", type=int, default=5000)

    p = sub.add_parser("hist", parents=[common],
                       help="weight-to-conductance histogram for a mapped network")

    p = sub.add_parser("encode-preview", parents=[common],
                       help="show the thermometric encoding of one dataset image")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.add_argument("--index", type=int, default=0)
    return top


def _load_config(spec_text, seed_override=None):
    if spec_text in ("hrs", "lrs"):
        cfg = device.default_device_config(spec_text)
        path = device.default_config_file(spec_text)
    else:
        cfg = device.load_device_config(spec_text)
        path = spec_text
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return cfg, _file_digest(path)


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _write_manifest(out_dir, argv, entries):
    lines = [f"command = oxcim {shlex.join(argv)}"]
    lines += [f"{k} = {v}" for k, v in entries]
    lines += [f"python = {platform.python_version()}",
              f"numpy = {numpy.__version__}", f"scipy = {scipy.__version__}"]
    path = os.path.join(out_dir, "manifest.txt")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def _threads(args):
    if args.threads < 0:
        raise SystemExit2(f"--threads must be >= 0, got {args.threads}")
    return args.threads or (os.cpu_count() or 1)


class SystemExit2(Exception):
    """Usage error detected after argparse; exits with status 2 + usage text."""


def _cmd_train(args, argv):
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
    os.makedirs(args.out_dir, exist_ok=True)
    weights_path = args.weights or os.path.join(args.out_dir, "weights.qnn")
    weightfile.save_network(result.net, weights_path)
    loss_path = os.path.join(args.out_dir, "loss.csv")
    result.write_loss_csv(loss_path)
    _write_manifest(args.out_dir, argv, [
        ("subcommand", "train"),
        ("precision", args.precision),
        ("epochs", args.epochs),
        ("seed", cfg.seed),
        ("weights_out", weights_path),
        ("weights_sha", _file_digest(weights_path)),
    ])
    final = result.loss_curve[-1] if result.loss_curve else (0, float("nan"),
                                                             float("nan"))
    print(f"trained {args.precision} net: final train loss {final[1]:.4f}, "
          f"val loss {final[2]:.4f}; weights -> {weights_path}")
    return 0


def _cmd_eval(args, argv):
    if not args.weights:
        raise SystemExit2("eval requires --weights")
    threads = _threads(args)
    cfg, cfg_digest = _load_config(args.config, args.seed)
    net = weightfile.load_network(args.weights)
    store = load_dataset_dir(args.data)
    seeds = args.seeds
    if seeds is None:
        seeds = [cfg.seed + i for i in range(args.trials)]
    spec = ExperimentSpec(net=net, config=cfg, mode=args.mode,
                          seeds=seeds, limit=args.limit,
                          max_tile=args.max_tile, threads=threads)
    report = run_accuracy(spec, store.test_images, store.test_labels)
    os.makedirs(args.out_dir, exist_ok=True)
    write_accuracy_csv(os.path.join(args.out_dir, "accuracy.csv"), report)
    write_confusion_csv(os.path.join(args.out_dir, "confusion.csv"),
                        report.confusion)
    summary = report.summary()
    with open(os.path.join(args.out_dir, "summary.txt"), "w") as fh:
        fh.write(summary + "\n")
    _write_manifest(args.out_dir, argv, [
        ("subcommand", "eval"),
        ("mode", args.mode),
        ("config", args.config),
        ("config_sha", cfg_digest),
        ("weights", args.weights),
        ("weights_sha", _file_digest(args.weights)),
        ("seeds", ",".join(str(s) for s in spec.seeds)),
        ("limit", args.limit),
    ])
    print(summary)
    return 0


def _cmd_sweep(args, argv):
    cfg, cfg_digest = _load_config(args.config)
    seed = args.seed if args.seed is not None else 0
    rows = sweep_sense_distribution(args.dims, Precision(args.precision), cfg,
                                    samples=args.samples, seed=seed)
    os.makedirs(args.out_dir, exist_ok=True)
    write_sense_csv(os.path.join(args.out_dir, "sense.csv"), rows)
    _write_manifest(args.out_dir, argv, [
        ("subcommand", "sweep-sense"),
        ("dims", f"{args.dims[0]}x{args.dims[1]}"),
        ("precision", args.precision),
        ("samples", args.samples),
        ("seed", seed),
        ("config", args.config),
        ("config_sha", cfg_digest),
    ])
    groups = sorted({pc for pc, *_ in rows})
    print(f"sense sweep {args.dims[0]}x{args.dims[1]} {args.precision}: "
          f"{len(rows)} rows, popcount groups {groups}")
    return 0


def _cmd_hist(args, argv):
    if not args.weights:
        raise SystemExit2("hist requires --weights")
    cfg, cfg_digest = _load_config(args.config, args.seed)
    net = weightfile.load_network(args.weights)
    tiled = map_network_to_tiles(net, cfg)
    rows, stats = weight_conductance_histogram(tiled)
    os.makedirs(args.out_dir, exist_ok=True)
    write_hist_csv(os.path.join(args.out_dir, "hist.csv"), rows)
    _write_manifest(args.out_dir, argv, [
        ("subcommand", "hist"),
        ("config", args.config),
        ("config_sha", cfg_digest),
        ("weights", args.weights),
        ("weights_sha", _file_digest(args.weights)),
        ("separability", stats["separability"]),
    ])
    print(f"separability (min gap / pooled sigma): {stats['separability']:.3f}; "
          f"cells per trit: {stats['count']}")
    return 0


def _cmd_encode_preview(args, argv):
    store = load_dataset_dir(args.data)
    images = store.test_images if args.split == "test" else store.train_images
    labels = store.test_labels if args.split == "test" else store.train_labels
    if not (0 <= args.index < images.shape[0]):
        raise SystemExit2(f"--index out of range (0..{images.shape[0] - 1})")
    img = pad_to_32(images[args.index])
    channels = encode_thermometric(img)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_manifest(args.out_dir, argv, [
        ("subcommand", "encode-preview"),
        ("data", args.data),
        ("split", args.split),
        ("index", args.index),
    ])
    print(f"{args.split}[{args.index}] label={labels[args.index]}")
    for c in range(channels.shape[0]):
        fill = 100.0 * channels[c].mean()
        print(f"channel {c}: {fill:5.1f}% on")
    mid = channels[channels.shape[0] // 2]
    print(f"channel {channels.shape[0] // 2} bitmap:")
    for row in mid:
        print("".join("#" if v else "." for v in row))
    return 0


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
        return _COMMANDS[args.command](args, argv)
    except SystemExit2 as exc:
        parser.print_usage(sys.stderr)
        print(f"oxcim: error: {exc}", file=sys.stderr)
        return 2
    except (OxcimError, OSError) as exc:
        print(f"oxcim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
