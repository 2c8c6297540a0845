"""Command-line entry points.

Subcommands: ``sample`` (anchor selection), ``corrupt`` (single corruption
or the full suite), ``gen-data`` (synthetic dataset to disk), ``train``,
``eval`` (corruption-robustness report), ``ablate`` (config-grid table).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import cloudio
from .ablate import run_grid, write_table_csv
from .config import (
    KEYS,
    build_dataset_specs,
    build_train_config,
    expand_grid,
    parse_flat_file,
)
from .corruption import ALL_KINDS, SEVERITIES, corruption_suite
from .data import gen_dataset
from .evaluate import EVAL_SEEDS, evaluate
from .geometry import PointCloud
from .model import BaselineParams, load_checkpoint, save_checkpoint
from .sampling import SAMPLER_VARIANTS, InfeasibleSampleError, SampleSpec, sample_anchors
from .train import train


def _check_outputs(args, *flags) -> None:
    """ValueError naming the first of these output flags whose directory does not exist."""
    for flag in flags:
        path = getattr(args, flag)
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"--{flag} {path}: directory {Path(path).parent} does not exist")


def _k_unread(variant) -> ValueError:
    return ValueError(f"--k sets the density score's neighbour count; "
                      f"sampler {variant} reads no k")


def cmd_sample(args) -> int:
    cloud = cloudio.read_cloud(args.input)
    spec = SampleSpec(m=args.m, variant=args.sampler)
    if args.k is not None:
        if spec.variant != "das-l0":
            raise _k_unread(spec.variant)
        spec = dataclasses.replace(spec, k=args.k)
    if spec.neighbor_width > cloud.n:  # the density score reads k neighbours per point
        raise ValueError(f"{args.input}: --k {spec.k} needs at least {spec.k + 1} "
                         f"points, the cloud has {cloud.n}")
    try:
        idx = sample_anchors(cloud, spec, np.random.default_rng(args.seed))
    except InfeasibleSampleError as exc:
        raise ValueError(f"{args.input}: --m {args.m}: {exc}") from exc
    Path(args.output).write_text("".join(f"{i}\n" for i in idx))
    if args.cloud_output:
        sub = PointCloud(cloud.points[idx], cloud.label)
        cloudio.write_cloud(sub, args.cloud_output)
    print(f"wrote {len(idx)} indices to {args.output}")
    return 0


def cmd_corrupt(args) -> int:
    cloud = cloudio.read_cloud(args.input)
    if args.suite:
        for flag in ("kind", "severity", "output"):
            if getattr(args, flag) is not None:
                raise ValueError(f"corrupt --suite writes every kind and severity "
                                 f"under --output-dir; it takes no --{flag}")
        if not args.output_dir:
            raise ValueError("corrupt --suite requires --output-dir")
        name = Path(args.input).stem + ".rpc"
        try:
            suite = corruption_suite(cloud, ALL_KINDS, args.seed)
        except ValueError as exc:  # a kind the cloud is too small for
            raise ValueError(f"{args.input}: {exc}") from exc
        for spec, corrupted in suite:
            out = Path(args.output_dir) / spec.kind / str(spec.severity)
            out.mkdir(parents=True, exist_ok=True)
            cloudio.write_binary(corrupted, out / name)
        print(f"wrote {len(suite)} corrupted clouds under {args.output_dir}")
        return 0
    if not (args.kind and args.output):
        raise ValueError("corrupt needs --kind and --output (or --suite)")
    severity = 3 if args.severity is None else args.severity
    try:
        [(_, corrupted)] = corruption_suite(cloud, (args.kind,), args.seed, (severity,))
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    cloudio.write_cloud(corrupted, args.output)
    print(f"wrote {args.kind} severity {severity} to {args.output}")
    return 0


def _write_split(clouds, spec, out_dir) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(len(clouds) - 1))
    for i, cloud in enumerate(clouds):
        name = f"{spec.classes[cloud.label]}_{i:0{width}d}.rpc"
        cloudio.write_binary(cloud, out_dir / name)


def cmd_gen_data(args) -> int:
    cfg = parse_flat_file(args.spec)
    train_spec, test_spec = build_dataset_specs(cfg)
    out = Path(args.out)
    _write_split(gen_dataset(train_spec), train_spec, out / "train")
    _write_split(gen_dataset(test_spec), test_spec, out / "test")
    specs = {"data": train_spec, "test": test_spec}
    manifest = []
    for key, (owner, field, _) in KEYS.items():
        if owner in specs:
            value = getattr(specs[owner], field)
            manifest.append(f"{key} = {','.join(value) if isinstance(value, tuple) else value}\n")
    (out / "manifest.txt").write_text("".join(manifest))
    print(f"wrote dataset to {out}")
    return 0


def load_split(data_dir, split: str):
    """The clouds of one split: its ``.rpc`` files, then its ``.xyz`` files,
    each in name order."""
    split_dir = Path(data_dir) / split
    if not split_dir.is_dir():
        split_dir = Path(data_dir)
    files = sorted(split_dir.glob("*.rpc")) + sorted(split_dir.glob("*.xyz"))
    if not files:
        raise FileNotFoundError(f"no cloud files under {split_dir}")
    return [cloudio.read_cloud(f) for f in files]


def cmd_train(args) -> int:
    _check_outputs(args, "out", "curve")
    cfg = parse_flat_file(args.config)
    tc = build_train_config(cfg)
    if args.data:
        dataset = load_split(args.data, "train")
    else:
        train_spec, _ = build_dataset_specs(cfg)
        dataset = gen_dataset(train_spec)
    result = train(dataset, tc)
    save_checkpoint(args.out, result.params, result.sampler)
    if args.curve:
        write_table_csv(result.curve, args.curve)
    print(
        f"trained {tc.epochs} epochs; best val error "
        f"{result.best_val_error:.4f} at epoch {result.best_epoch}; "
        f"checkpoint -> {args.out}"
    )
    return 0


def _comma_list(parse, what):
    """An argparse ``type``: a non-empty comma-separated list read by ``parse``."""
    def read(text):
        try:
            values = tuple(parse(v.strip()) for v in text.split(",") if v.strip())
        except ValueError:
            values = ()
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} is not a list of {what}")
        return values
    return read


def _among(options):
    """A parser that reads a value of the options' type and accepts only them."""
    def parse(text):
        value = type(options[0])(text)
        if value not in options:
            raise ValueError(text)
        return value
    return parse


def _int_at_least(low):
    """An argparse ``type``: a decimal int >= ``low``."""
    def parse(text):
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return int(text)
    return parse


_KINDS = _comma_list(_among(ALL_KINDS), f"corruption kinds ({', '.join(ALL_KINDS)})")
_SEVERITIES = _comma_list(_among(SEVERITIES),
                          f"severities ({', '.join(map(str, SEVERITIES))})")


def cmd_eval(args) -> int:
    _check_outputs(args, "report", "curves", "log")
    params, sampler = load_checkpoint(args.ckpt)
    if isinstance(params, BaselineParams):
        for flag in ("sampler", "k"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} sets how anchors are drawn; {args.ckpt} "
                                 "holds a baseline, and a baseline samples no anchors")
    if args.sampler is not None:
        sampler = dataclasses.replace(sampler, variant=args.sampler)
    if args.k is not None:
        if sampler.variant != "das-l0":
            raise _k_unread(sampler.variant)
        sampler = dataclasses.replace(sampler, k=args.k)
    dataset = load_split(args.data, "test")
    report, log = evaluate(
        params,
        dataset,
        sampler=sampler,
        kinds=args.kinds,
        severities=args.severities,
        eval_seeds=args.eval_seeds,
        corruption_seed=args.corruption_seed,
    )
    Path(args.report).write_text(report.to_json() + "\n")
    if args.curves:
        write_table_csv([{"kind": kind, "severity": severity, "error_rate": error_rate}
                         for (kind, severity), error_rate in sorted(report.per_cell.items())],
                        args.curves)
    if args.log:
        write_table_csv([{**dataclasses.asdict(rec), "capped": int(rec.capped)} for rec in log],
                        args.log)
    print(
        f"er_clean={report.er_clean:.4f} er_cor={report.er_cor:.4f} "
        f"capped={sum(report.capped.values())} -> {args.report}"
    )
    return 0


def cmd_ablate(args) -> int:
    _check_outputs(args, "out")
    cfg = parse_flat_file(args.grid)
    axes, configs = expand_grid(cfg)
    train_spec, test_spec = build_dataset_specs(cfg)
    train_set = gen_dataset(train_spec)
    test_set = gen_dataset(test_spec)
    rows = run_grid(train_set, test_set, configs, kinds=args.kinds,
                    corruption_seed=args.corruption_seed, axes=axes)
    write_table_csv(rows, args.out)
    print(f"wrote {len(rows)} ablation rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcrobust", description="point-cloud robustness toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="select anchor points from a cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--sampler", choices=SAMPLER_VARIANTS, default="das-l0")
    p.add_argument("--m", type=_int_at_least(1), required=True)
    p.add_argument("--k", type=_int_at_least(1))
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seed of the generator das-l0 and random draw from")
    p.add_argument("--output", required=True)
    p.add_argument("--cloud-output")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("corrupt", help="apply one corruption or the full suite")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=list(ALL_KINDS))
    p.add_argument("--severity", type=int, choices=SEVERITIES,
                   help="severity of a single corruption (default 3)")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--output")
    p.add_argument("--suite", action="store_true")
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data")
    p.add_argument("--curve")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="corruption-robustness evaluation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--kinds", type=_KINDS, default=ALL_KINDS)
    p.add_argument("--severities", type=_SEVERITIES, default=SEVERITIES)
    p.add_argument("--eval-seeds", type=_comma_list(int, "ints"), default=EVAL_SEEDS)
    p.add_argument("--corruption-seed", type=int, default=0)
    p.add_argument("--sampler", choices=SAMPLER_VARIANTS)
    p.add_argument("--k", type=_int_at_least(1))
    p.add_argument("--curves")
    p.add_argument("--log")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train+evaluate over a config grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kinds", type=_KINDS, default=ALL_KINDS)
    p.add_argument("--corruption-seed", type=int, default=0)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    """Runs one command. An input error (a ``ValueError``, such as a bad
    config, file or flag combination, or an ``OSError``) is one stderr line
    and exit status 2; anything else raises."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
