"""Layered, host-speed-corrected benchmark of the ocb engine.

    python3 bench/run.py --workload default-none --seed 1 --seconds 5 --trace 0

Runs one workload in the order of `ocb run`. First it generates, saves,
loads and places the database SETUP_REPS times, for setup_s. Then a child
process loads the file and runs whole rounds until --seconds have passed.
A round runs each of the seed's transaction streams once (see
workloads.run_seeds): place_sequential, run_protocol, aggregate and the
four report writers. Every time is in host-speed-corrected seconds (see
hostclock.py). Every workload's outputs are checked (see checks.py). With
--trace 0 the last line is a JSON object with the end-to-end metrics. With
--trace 1 it holds the per-layer metrics of one more, traced round of the
first stream. Outputs go to bench-out/<workload>/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS, config_for, generate_command, import_ocb, run_command

BENCH = Path(__file__).resolve().parent
OUT = ROOT / "bench-out"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 160


def setup_runs(config, db_path: Path, clock) -> tuple[dict, list[str]]:
    """Generate, save, load and place SETUP_REPS times; median of each step."""
    from ocb import generate_database, load_database, place_sequential, save_database
    import checks

    steps = {"generate": [], "save": [], "load": [], "place": [], "setup": []}
    errors: list[str] = []
    for rep in range(SETUP_REPS):
        generated, a, b = clock.timed(generate_database, config.generator)
        _, c, d = clock.timed(save_database, generated, str(db_path))
        loaded, e, f = clock.timed(load_database, str(db_path))
        _, g, h = clock.timed(place_sequential, loaded, config.storage)
        times = [clock.corrected(a, b), clock.corrected(c, d),
                 clock.corrected(e, f), clock.corrected(g, h)]
        for step, t in zip(("generate", "save", "load", "place"), times):
            steps[step].append(t)
        steps["setup"].append(sum(times))
        if rep == 0:
            errors += checks.database_errors(generated, loaded)
            shape = {
                "generator.db_bytes": db_path.stat().st_size,
                "generator.objects": len(loaded.objects),
                "generator.links": sum(t is not None for o in loaded.objects
                                       for t in o.oref),
            }
        del generated, loaded
    medians = {step: statistics.median(v) for step, v in steps.items()}
    return dict(medians, **shape), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ocb layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_ocb()
    from hostclock import HostClock

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    db_path = out_dir / "ocb.db"
    config = config_for(args.workload, args.seed)
    clock = HostClock()
    setup, errors = setup_runs(config, db_path, clock)

    child = subprocess.run(
        [sys.executable, str(BENCH / "loadrun.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--db", str(db_path), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        sys.stderr.write(f"bench: load-and-run process exited with {child.returncode}\n")
        return 1
    run = json.loads(child.stdout.strip().splitlines()[-1])
    errors += run["errors"]

    streams = run["streams"]
    per_stream = [statistics.median(st["run_s"]) for st in streams]
    run_s = statistics.fmean(per_stream)
    report_s = statistics.fmean(
        statistics.median(a + w for a, w in zip(st["aggregate_s"], st["write_s"]))
        for st in streams)
    accesses_per_s = sum(st["accesses"] for st in streams) / sum(per_stream)
    attempted = run["cycles"] * sum(st["transactions"] for st in streams)
    if args.trace:
        attempted += streams[0]["transactions"]
    end_to_end = {
        "setup_s": (setup["setup"], "s"),
        "run_s": (run_s, "s"),
        "total_s": (setup["setup"] + run_s + report_s, "s"),
        "accesses_per_s": (accesses_per_s, "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    if args.trace:
        layer = {
            "generator.generate_s": setup["generate"],
            "generator.save_s": setup["save"],
            "generator.load_s": setup["load"],
            "generator.db_bytes": setup["generator.db_bytes"],
            "generator.objects": setup["generator.objects"],
            "generator.links": setup["generator.links"],
            "storage.place_s": setup["place"],
        }
        layer.update(run["trace"])
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    else:
        metrics = end_to_end

    print(f"workload {args.workload}  seed {args.seed}  {run['cycles']} rounds of "
          f"{len(streams)} streams  host slowdown {run['host_slowdown']:.3f}")
    for st in streams:
        print(f"  run seed {st['seed']}: {st['transactions']} transactions, "
              f"{st['accesses']} accesses, run_s {statistics.median(st['run_s']):.4f} s "
              f"corrected, {statistics.median(st['raw_run_s']):.4f} s raw")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    if args.trace:
        m = run["trace"]
        covered = m["workload.self_s"] + m["storage.self_s"] + m["policies.self_s"]
        print(f"  traced run_s {m['trace.run_s']:.4f} s = workload {m['workload.self_s']:.4f}"
              f" + storage {m['storage.self_s']:.4f} + policies {m['policies.self_s']:.4f}"
              f" (sum {covered:.4f}) + not covered {m['trace.uncovered_s']:.6f}")
    print(f"transactions attempted {attempted}, failed 0")
    db_digest = hashlib.sha256(db_path.read_bytes()).hexdigest()
    print(f"sha256 {db_digest}  ocb.db")
    for st in streams:
        if st["gain_factor"] is not None:
            print(f"run seed {st['seed']}: gain factor recomputed from report.csv "
                  f"{st['gain_factor']:.4f}")
        for name, digest in st["hashes"].items():
            print(f"sha256 {digest}  {name} (run seed {st['seed']})")
    print("the same files, rebuilt with the command line (from the repository root):")
    db_file = str(db_path.relative_to(ROOT))
    print(f"  {generate_command(args.workload, db_file)}")
    for st in streams:
        rebuilt = str((out_dir / f"rebuilt-{st['seed']}").relative_to(ROOT))
        print(f"  {run_command(args.workload, st['seed'], db_file, rebuilt)}")
    for problem in errors:
        print(f"CHECK FAILED: {problem}")
    if not errors:
        print("checks: all passed")

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
