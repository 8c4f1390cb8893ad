"""Command-line front end: generate, run, compare, presets.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from pathlib import Path

from ._files import replace_files
from .config import ALL_KEYS, PRESETS, ExperimentConfig, build_config, read_config_file
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
from .params import read_json
from .policies import make_policy
from .storage import place_sequential
from .workload import run_protocol, write_log_csv

REPORT_FORMAT = 1


_PARAM_FLAGS = frozenset(f"--{key.replace('_', '-')}" for key in ALL_KEYS)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("parameters (override preset and config file)")
    for key in ALL_KEYS:
        if key == "seed":
            continue  # --seed is declared separately with env fallback
        group.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                           metavar="V")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each parameter flag to a following value that starts with a
    negative number, as `--think=-1e-3`. argparse reads such a value as an
    option unless it is shaped like `-1` or `-.5`, so `-1e-3` or a per-class
    list `-1,2,3` would not reach the parameter's own check."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _PARAM_FLAGS and _is_negative_value(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _is_negative_value(text: str) -> bool:
    """Whether `text` is a negative number, or a comma list of numbers led by one."""
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return text.startswith("-")


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
    text = report_text(report)
    replace_files({
        out_dir / "report.csv": partial(write_log_csv, log),
        out_dir / "report_stats.csv": partial(write_report_csv, report),
        out_dir / "report.json": partial(write_json, payload),
        out_dir / "report.txt": lambda path: Path(path).write_text(text, encoding="utf-8"),
    })
    elapsed = time.perf_counter() - started

    print(text, end="")
    print(f"\n{len(log.records)} transactions, simulated clock {log.clock:.1f}, "
          f"{elapsed:.2f}s wall clock")
    print(f"reports written to {out_dir}/report.{{csv,json,txt}} "
          f"and {out_dir}/report_stats.csv")
    return 0


def _load_report(path: str) -> MetricsReport:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except UnicodeDecodeError as exc:
        raise OcbError(f"{path}: report is not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise OcbError(f"{path}: report is not readable JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise OcbError(f"{path}: report is not a JSON object")
    version = payload.get("format")
    if type(version) is not int or version != REPORT_FORMAT:  # true and 1.0 equal 1
        raise OcbError(f"{path}: unsupported report format {version!r}")
    try:
        report = MetricsReport.from_dict(payload["metrics"])
        report.fingerprint = read_json("str | None", "fingerprint", payload.get("fingerprint"))
    except (AttributeError, KeyError, TypeError, ValueError, ParameterError) as exc:
        raise OcbError(f"{path}: malformed report metrics: "
                       f"{type(exc).__name__}: {exc}") from None
    return report


def cmd_compare(args: argparse.Namespace) -> int:
    report_a = _load_report(args.report_a)
    report_b = _load_report(args.report_b)
    comparison = compare(report_a, report_b, force=args.force)
    text = comparison_text(comparison)
    print(text, end="")
    if args.out:
        replace_files({Path(args.out): partial(write_json, comparison.to_dict())})
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
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OcbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: this configuration needs more memory than is available",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
