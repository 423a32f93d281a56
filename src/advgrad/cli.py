"""Command-line entry points for training, attacking, and reporting."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from . import harness
from .generator import GeneratorTrainConfig, save_generator, train_generator
from .models import MODEL_KINDS, TrainConfig, load_model, save_model, train_classifier


def _add_dataset_flags(parser):
    parser.add_argument("--dataset", default="blobs",
                        choices=["blobs", "two-moons-image", "striped-digits"],
                        help="synthetic dataset kind")
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--shape", type=int, nargs=3, default=(8, 8, 1),
                        metavar=("H", "W", "C"))
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--idx-images", help="IDX image file (overrides --dataset)")
    parser.add_argument("--idx-labels", help="IDX label file")
    parser.add_argument("--cifar", help="CIFAR-10 binary batch (overrides --dataset)")


def _build_dataset(args):
    if args.cifar:
        spec = {"kind": "cifar", "path": args.cifar}
    elif args.idx_images:
        if not args.idx_labels:
            sys.exit("--idx-images needs --idx-labels")
        spec = {"kind": "idx", "images": args.idx_images, "labels": args.idx_labels}
    else:
        spec = {"kind": args.dataset, "n": args.n, "image_shape": args.shape,
                "seed": args.data_seed, "num_classes": args.classes}
    return harness.build_dataset(spec)


def _cmd_train_model(args):
    dataset = _build_dataset(args)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.lr, seed=args.seed)
    model, acc = train_classifier(dataset, args.kind, cfg)
    save_model(model, args.out)
    print(f"trained {args.kind} on {len(dataset)} examples, "
          f"train accuracy {acc:.3f}, saved to {args.out}")


def _cmd_train_generator(args):
    dataset = _build_dataset(args)
    pool = [load_model(p) for p in args.pool]
    cfg = GeneratorTrainConfig(total_steps=args.total_steps,
                               attack_steps=args.steps,
                               learning_rate=args.lr,
                               epsilon=args.epsilon,
                               seed=args.seed)
    gen = train_generator(dataset, pool, cfg, arch=args.arch, head_scale=args.head_scale)
    save_generator(gen, args.out)
    print(f"trained {args.arch} generator for {args.steps} steps "
          f"({args.total_steps} outer iterations), saved to {args.out}")


def _load_experiment(path):
    with open(path) as fh:
        return harness.ExperimentConfig.from_dict(json.load(fh))


def _run_and_print(cfg):
    for name, path in harness.run_experiment(cfg).items():
        print(f"{name}: {path}")


def _cmd_attack(args):
    _run_and_print(_load_experiment(args.config))


def _cmd_sweep(args):
    cfg = _load_experiment(args.config)
    if not cfg.epsilon_grid:
        cfg = replace(cfg, epsilon_grid=list(harness.DEFAULT_EPSILON_GRID))
    _run_and_print(cfg)


def _cmd_interaction(args):
    cfg = _load_experiment(args.config)
    if cfg.interaction is None:
        cfg = replace(cfg, interaction={})
    _run_and_print(cfg)


# the metrics.csv columns report reads; seed is optional and defaults to 0
_REPORT_COLUMNS = ("method", "source", "target", "asr", "mad", "rmsd", "epsilon", "steps")


def _cmd_report(args):
    with open(args.metrics, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _REPORT_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{args.metrics} has no {missing[0]!r} column")
        rows = []
        for rec in reader:
            rows.append(harness.MetricsRow(
                method=rec["method"], source=rec["source"], target=rec["target"],
                asr=float(rec["asr"]), mad=float(rec["mad"]),
                rmsd=float(rec["rmsd"]), epsilon=float(rec["epsilon"]),
                steps=int(rec["steps"]), seed=int(rec.get("seed", 0)),
            ))
    for agg in harness.aggregate_rows(rows):
        print(f"{agg['method']:<16} {agg['source']:<12} -> {agg['target']:<12} "
              f"asr={agg['asr']:.3f} mad={agg['mad']:.3f} rmsd={agg['rmsd']:.3f} "
              f"({agg['seeds']} seeds)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="advgrad",
        description="Scaled-gradient adversarial attacks and transferability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-model", help="train a desk-scale classifier")
    _add_dataset_flags(p)
    p.add_argument("--kind", required=True, choices=MODEL_KINDS)
    train = TrainConfig()
    p.add_argument("--epochs", type=int, default=train.epochs)
    p.add_argument("--batch-size", type=int, default=train.batch_size)
    p.add_argument("--lr", type=float, default=train.learning_rate)
    p.add_argument("--seed", type=int, default=train.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_model)

    p = sub.add_parser("train-generator", help="train the scaling-factor generator")
    _add_dataset_flags(p)
    p.add_argument("--pool", nargs="+", required=True,
                   help="two or more model checkpoints")
    p.add_argument("--steps", type=int, default=5, help="attack iterations T")
    p.add_argument("--total-steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epsilon", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", default="mlp", choices=["mlp", "conv"])
    p.add_argument("--head-scale", type=float, default=10.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_generator)

    p = sub.add_parser("attack", help="run the attack matrix from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="attack matrix over a perturbation budget grid")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("interaction", help="interaction histogram pass")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_interaction)

    p = sub.add_parser("report", help="aggregate a metrics.csv across seeds")
    p.add_argument("--metrics", required=True)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    # a bad config, checkpoint or data file, or a path that cannot be opened
    # (missing, a directory, unreadable), ends the run with its message
    try:
        args.func(args)
    except (ValueError, OSError) as err:
        sys.exit(str(err))


if __name__ == "__main__":
    main()
