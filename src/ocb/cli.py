"""Command-line front end: generate, run, compare, presets.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from .config import ALL_KEYS, ExperimentConfig, build_config, read_config_file
from .errors import OcbError, ParameterError
from .generator import generate_database, load_database, save_database
from .metrics import (
    MetricsReport,
    aggregate,
    compare,
    comparison_text,
    report_text,
    write_json,
    write_report_csv,
)
from .policies import make_policy
from .presets import PRESETS
from .storage import place_sequential
from .workload import run_protocol, write_log_csv

REPORT_FORMAT = 1


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parameters (override preset and config file)")
    for key in ALL_KEYS:
        if key == "seed":
            continue  # --seed is declared separately with env fallback
        group.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                           metavar="V")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default=None,
                        help="parameter bundle to start from (see 'ocb presets')")
    parser.add_argument("--config", default=None,
                        help="flat key=value file applied over the preset")
    parser.add_argument("--seed", default=None,
                        help="experiment seed (falls back to $OCB_SEED, then 0)")
    _add_param_flags(parser)


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_overrides = read_config_file(args.config) if args.config else {}
    flag_overrides = {key: getattr(args, key, None) for key in ALL_KEYS}
    seed = args.seed if args.seed is not None else os.environ.get("OCB_SEED")
    if seed is not None:
        flag_overrides["seed"] = seed
    return build_config(preset=args.preset, file_overrides=file_overrides,
                        flag_overrides=flag_overrides)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    started = time.perf_counter()
    db = generate_database(config.generator)
    save_database(db, args.out)
    elapsed = time.perf_counter() - started
    report = db.report
    print(f"generated {len(db.objects)} objects over {len(db.classes)} classes "
          f"-> {args.out} ({elapsed:.2f}s wall clock)")
    print(f"nulled slots: {report.cycle_suppressed} cycle, "
          f"{report.null_class_draws} null class draw, "
          f"{report.empty_iterator} empty iterator, "
          f"{report.out_of_range} out of range")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    started = time.perf_counter()
    if args.db:
        db = load_database(args.db)
        config.generator = db.params
    else:
        db = generate_database(config.generator)
    storage = place_sequential(db, config.storage)
    policy = make_policy(config.policy, config.dstc)
    log = run_protocol(db, storage, config.workload, policy)
    fingerprint = config.fingerprint()
    report = aggregate(log, gain_window=config.gain_window, fingerprint=fingerprint)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_log_csv(log, str(out_dir / "report.csv"))
    write_report_csv(report, str(out_dir / "report_stats.csv"))
    payload = {
        "format": REPORT_FORMAT,
        "config": config.resolved_dict(),
        "fingerprint": fingerprint,
        "metrics": report.to_dict(),
        "counters": {
            "transaction_reads": log.transaction_reads,
            "overhead_reads": log.overhead_reads,
            "overhead_writes": log.overhead_writes,
        },
        "reorganizations": [vars(e) for e in log.reorgs],
        "clock": log.clock,
        "transactions": len(log.records),
    }
    write_json(payload, str(out_dir / "report.json"))
    with open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(report_text(report))
    elapsed = time.perf_counter() - started

    print(report_text(report), end="")
    print(f"\n{len(log.records)} transactions, simulated clock {log.clock:.1f}, "
          f"{elapsed:.2f}s wall clock")
    print(f"reports written to {out_dir}/report.{{csv,json,txt}} "
          f"and {out_dir}/report_stats.csv")
    return 0


def _load_report(path: str) -> MetricsReport:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != REPORT_FORMAT:
        raise OcbError(f"{path}: unsupported report format {payload.get('format')!r}")
    report = MetricsReport.from_dict(payload["metrics"])
    report.fingerprint = payload.get("fingerprint")
    return report


def cmd_compare(args: argparse.Namespace) -> int:
    report_a = _load_report(args.report_a)
    report_b = _load_report(args.report_b)
    comparison = compare(report_a, report_b, force=args.force)
    text = comparison_text(comparison)
    print(text, end="")
    if args.out:
        write_json(comparison.to_dict(), args.out)
        print(f"comparison written to {args.out}")
    return 0


def cmd_presets(_args: argparse.Namespace) -> int:
    for name, overrides in PRESETS.items():
        print(name)
        if not overrides:
            print("  (standard defaults)")
        for key, value in overrides.items():
            print(f"  {key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocb",
        description="Clustering-oriented object database benchmark engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a database file")
    _add_common(p_gen)
    p_gen.add_argument("--out", default="ocb.db", help="database file to write")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run the transaction protocol")
    _add_common(p_run)
    p_run.add_argument("--db", default=None,
                       help="database file to load (otherwise generated inline)")
    p_run.add_argument("--out-dir", default=".", help="directory for report files")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run reports (a over b)")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.add_argument("--out", default=None, help="write comparison JSON here")
    p_cmp.add_argument("--force", action="store_true",
                       help="compare even when workload fingerprints differ")
    p_cmp.set_defaults(func=cmd_compare)

    p_presets = sub.add_parser("presets", help="list available presets")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OcbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the depth-first traversals recurse once per hop, so a reference
        # cycle walked to a large depth outgrows the interpreter stack
        print("error: traversal too deep for the interpreter stack; "
              "lower --simdepth or --hiedepth", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
