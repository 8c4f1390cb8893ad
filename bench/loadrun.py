"""Child process of run.py: load the database, run timed rounds, check them.

It runs apart from the set-up so that its peak resident memory is that of
a process which loads and runs, as `ocb run --db` does. It prints one
JSON object with the round times, the check results and, with --trace 1,
the per-layer metrics of one traced round.

    python3 bench/loadrun.py --workload default-none --seed 1 --seconds 5 \
        --trace 0 --db bench-out/default-none/ocb.db --out bench-out/default-none
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, config_for, import_ocb, run_seeds

import_ocb()

import ocb.policies as policies_module  # noqa: E402
import ocb.workload as workload_module  # noqa: E402
from ocb import aggregate, load_database, make_policy, place_sequential, run_protocol  # noqa: E402
from ocb.cli import REPORT_FORMAT  # noqa: E402
from ocb.metrics import report_text, write_json, write_report_csv  # noqa: E402
from ocb.workload import write_log_csv  # noqa: E402

import checks  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

REPORT_FILES = ("report.csv", "report_stats.csv", "report.json", "report.txt")
TRAVERSALS = (("set_oriented_access", "set"), ("simple_traversal", "simple"),
              ("hierarchy_traversal", "hierarchy"),
              ("stochastic_traversal", "stochastic"))


class Hooks:
    """The policy as run_protocol sees it, with every placement checked.

    Each placement the policy hands to storage is checked for a valid
    packing inside a clock checkpoint, so the check costs no measured time.
    """

    def __init__(self, policy, clock, sizes, page_size):
        self.on_link_crossing = policy.on_link_crossing
        self.on_transaction_end = policy.on_transaction_end
        self._reorganize = policy.maybe_reorganize
        self._clock = clock
        self._sizes = sizes
        self._page_size = page_size
        self.packing_errors: list[str] = []
        self.placements = 0

    def maybe_reorganize(self, storage):
        placement = self._reorganize(storage)
        if placement is not None:
            self.placements += 1
            self._clock.checkpoint(lambda: self.packing_errors.extend(
                checks.packing_errors(placement, self._sizes, self._page_size)))
        return placement


def write_reports(log, report, config, out_dir: Path) -> None:
    """The four report files, written as `ocb run` writes them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_log_csv(log, str(out_dir / "report.csv"))
    write_report_csv(report, str(out_dir / "report_stats.csv"))
    payload = {
        "format": REPORT_FORMAT,
        "config": config.resolved_dict(),
        "fingerprint": report.fingerprint,
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


def file_hashes(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES}


class Round:
    """One run_protocol call, its aggregation and its four report files."""

    def __init__(self, db, config, clock, out_dir, storage, policy, protocol=run_protocol):
        sizes = {obj.id: obj.size for obj in db.objects}
        self.storage = storage
        self.hooks = Hooks(policy, clock, sizes, config.storage.page_size)
        self.log, start, end = clock.timed(protocol, db, storage, config.workload,
                                           self.hooks)
        self.run_s = clock.corrected(start, end)
        self.raw_run_s = end - start
        report, start, end = clock.timed(aggregate, self.log, config.gain_window,
                                         config.fingerprint())
        self.aggregate_s = clock.corrected(start, end)
        _, start, end = clock.timed(write_reports, self.log, report, config, out_dir)
        self.write_s = clock.corrected(start, end)
        self.hashes = file_hashes(out_dir)


def fresh_round(db, config, clock, out_dir) -> Round:
    storage = place_sequential(db, config.storage)
    policy = make_policy(config.policy, config.dstc)
    return Round(db, config, clock, out_dir, storage, policy)


def round_errors(rnd: Round, config, out_dir) -> tuple[list[str], float | None]:
    """The checks that need neither a trace nor another run, on one round."""
    errors = list(rnd.hooks.packing_errors)
    if rnd.hooks.placements != len(rnd.log.reorgs):
        errors.append("reorganizations do not match the placements handed out")
    errors += checks.accounting_errors(rnd.log, rnd.storage, config.policy)
    errors += checks.stats_errors(out_dir / "report.csv", out_dir / "report_stats.csv")
    gain_problems, gain = checks.gain_errors(out_dir)
    return errors + gain_problems, gain


def placement_errors(rnd: Round, db, config, name) -> list[str]:
    """The round's stream rerun, unmeasured, under policy none."""
    storage = place_sequential(db, config.storage)
    reversed_reference = WORKLOADS[name].reversed_reference
    if reversed_reference:
        storage.rewrite_placement(storage.pack_order(sorted(storage.placement,
                                                            reverse=True)))
    log = run_protocol(db, storage, config.workload, make_policy("none"))
    if checks.stream(log) != checks.stream(rnd.log):
        start = "descending-id" if reversed_reference else "sequential"
        return [f"transactions differ under policy none from {start} placement: "
                "traversals depend on placement"]
    return []


def traced_round(db, config, clock, out_dir, trace_dir) -> tuple[Round, dict, list[str]]:
    """One round with spans around every layer call, checked by an LRU replay."""
    tracer = Tracer()
    storage = place_sequential(db, config.storage)
    policy = make_policy(config.policy, config.dstc)
    initial = storage.placement
    accessed = array("i")
    tx_offsets = array("l")
    rewrites: list[tuple[int, dict]] = []
    counts: Counter = Counter()

    storage.access_object = tracer.wrap("storage.access", storage.access_object,
                                        note=accessed.append)
    storage.rewrite_placement = tracer.wrap(
        "storage.rewrite", storage.rewrite_placement,
        note=lambda placement: rewrites.append((len(tx_offsets) - 1, placement)))
    storage.pack_order = tracer.wrap("storage.pack", storage.pack_order)
    policy.on_link_crossing = tracer.wrap("policies.observe", policy.on_link_crossing)
    policy.on_transaction_end = tracer.wrap("policies.hooks", policy.on_transaction_end)
    policy.maybe_reorganize = tracer.wrap("policies.hooks", policy.maybe_reorganize)

    select = tracer.wrap("policies.select", policies_module.dstc_select)
    consolidate = tracer.wrap("policies.consolidate", policies_module.dstc_consolidate)
    build_units = tracer.wrap("policies.build_units", policies_module.dstc_build_units)

    def counted_select(state, params):
        filtered = select(state, params)
        counts["periods"] += 1
        counts["selected_pairs"] += len(filtered)
        return filtered

    def counted_consolidate(state, filtered, params):
        consolidate(state, filtered, params)
        counts["matrix_entries"] += len(state.consolidated_matrix)

    def counted_build_units(state, params):
        units = build_units(state, params)
        counts["units"] += len(units)
        counts["unit_objects"] += sum(map(len, units))
        return units

    def count_reorg(*_args):
        counts["reorgs"] += 1

    replacements = [
        (policies_module, "dstc_select", counted_select),
        (policies_module, "dstc_consolidate", counted_consolidate),
        (policies_module, "dstc_build_units", counted_build_units),
        (policies_module, "dstc_reorganize",
         tracer.wrap("policies.reorganize", policies_module.dstc_reorganize,
                     note=count_reorg)),
        (workload_module, "run_transaction",
         tracer.wrap("workload.transaction", workload_module.run_transaction,
                     note=lambda *_args: tx_offsets.append(len(accessed)))),
    ]
    for function, label in TRAVERSALS:
        replacements.append((workload_module, function,
                             tracer.wrap(f"workload.{label}",
                                         getattr(workload_module, function))))
    protocol = tracer.wrap("workload.protocol", run_protocol)
    with patched(*replacements):
        rnd = Round(db, config, clock, out_dir, storage, policy, protocol)
    tracer.write(trace_dir)

    durations = clock.durations(tracer.start, tracer.end)
    own = tracer.self_times(durations)
    get = lambda name: own.get(name, 0.0)  # noqa: E731

    sizes = {obj.id: obj.size for obj in db.objects}
    faults, touches, rewrite_io = checks.replay_lru(
        initial, sizes, config.storage.page_size, config.storage.buffer_pages,
        accessed, tx_offsets, rewrites)
    log = rnd.log
    errors = []
    if faults != [r.faults for r in log.records]:
        wrong = [i for i, (a, r) in enumerate(zip(faults, log.records)) if a != r.faults]
        errors.append(f"LRU replay: fault counts differ at transactions {wrong[:5]} "
                      f"(lengths {len(faults)} / {len(log.records)})")
    if sum(faults) != log.transaction_reads:
        errors.append("LRU replay: total faults != transaction_reads")
    if [(r, w) for r, w, _m in rewrite_io] != [(e.reads, e.writes) for e in log.reorgs]:
        errors.append("LRU replay: rewrite page I/O differs from reorganization events")

    workload_s = sum(get(f"workload.{part}") for part in
                     ("protocol", "transaction", "set", "simple", "hierarchy", "stochastic"))
    storage_s = get("storage.access") + get("storage.rewrite") + get("storage.pack")
    policies_s = sum(get(f"policies.{part}") for part in
                     ("observe", "hooks", "select", "consolidate", "build_units",
                      "reorganize"))
    tx_us = [d * 1e6 for d in tracer.of("workload.transaction", durations)]
    crossings = len(tracer.of("policies.observe", durations))
    metrics = {
        "storage.access_s": get("storage.access"),
        "storage.accesses": len(accessed),
        "storage.faults": sum(faults),
        "storage.hit_ratio": (touches - sum(faults)) / touches if touches else 0.0,
        "storage.rewrite_s": get("storage.rewrite"),
        "storage.pack_s": get("storage.pack"),
        "storage.rewrites": len(rewrites),
        "storage.objects_moved": sum(m for _r, _w, m in rewrite_io),
        "storage.overhead_reads": log.overhead_reads,
        "storage.overhead_writes": log.overhead_writes,
        "storage.self_s": storage_s,
        "workload.self_s": workload_s,
        "workload.protocol_self_s": get("workload.protocol") + get("workload.transaction"),
        "workload.set_s": get("workload.set"),
        "workload.simple_s": get("workload.simple"),
        "workload.hierarchy_s": get("workload.hierarchy"),
        "workload.stochastic_s": get("workload.stochastic"),
        "workload.transactions": len(log.records),
        "workload.crossings": crossings,
        "workload.tx_p50_us": statistics.median(tx_us),
        "workload.tx_p99_us": statistics.quantiles(tx_us, n=100)[98],
        "policies.observe_s": get("policies.observe"),
        "policies.observe_calls": crossings,
        "policies.hooks_s": get("policies.hooks"),
        "policies.select_s": get("policies.select"),
        "policies.consolidate_s": get("policies.consolidate"),
        "policies.build_units_s": get("policies.build_units"),
        "policies.reorganize_s": get("policies.reorganize"),
        "policies.periods": counts["periods"],
        "policies.selected_pairs": counts["selected_pairs"],
        "policies.matrix_entries": counts["matrix_entries"],
        "policies.units": counts["units"],
        "policies.unit_objects": counts["unit_objects"],
        "policies.reorgs": counts["reorgs"],
        "policies.self_s": policies_s,
        "metrics.aggregate_s": rnd.aggregate_s,
        "metrics.write_s": rnd.write_s,
        "trace.run_s": rnd.run_s,
        "trace.uncovered_s": rnd.run_s - (workload_s + storage_s + policies_s),
        "trace.spans": len(tracer),
    }
    return rnd, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--db", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out) / "reports"
    clock = HostClock()
    db = load_database(args.db)
    streams = []
    for seed in run_seeds(args.seed):
        config = config_for(args.workload, seed)
        config.generator = db.params
        streams.append({"seed": seed, "config": config, "run_s": [], "raw_run_s": [],
                        "aggregate_s": [], "write_s": [], "hashes": set()})

    errors: list[str] = []
    rnd = None
    deadline = perf_counter() + args.seconds
    cycles = 0
    while cycles == 0 or perf_counter() < deadline:
        for stream in streams:
            rnd = None  # drop the previous round before the next one allocates
            rnd = fresh_round(db, stream["config"], clock, out_dir)
            for key in ("run_s", "raw_run_s", "aggregate_s", "write_s"):
                stream[key].append(getattr(rnd, key))
            stream["hashes"].add(tuple(sorted(rnd.hashes.items())))
            problems, stream["gain_factor"] = round_errors(rnd, stream["config"], out_dir)
            errors += [p for p in problems if p not in errors]
            stream["transactions"] = len(rnd.log.records)
            stream["accesses"] = rnd.storage.objects_accessed
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += placement_errors(rnd, db, streams[-1]["config"], args.workload)

    result = {"cycles": cycles, "peak_rss_mb": peak_rss_mb, "trace": None}
    if args.trace:
        first = streams[0]
        traced, metrics, trace_errors = traced_round(db, first["config"], clock, out_dir,
                                                     Path(args.out) / "trace")
        errors += trace_errors
        first["hashes"].add(tuple(sorted(traced.hashes.items())))
        metrics["trace.overhead_s"] = traced.run_s - statistics.median(first["run_s"])
        result["trace"] = metrics
    for stream in streams:
        if len(stream["hashes"]) != 1:
            errors.append(f"run seed {stream['seed']}: rounds wrote different report files")
        stream["hashes"] = dict(stream["hashes"].pop())
        del stream["config"]
    result["streams"] = streams
    result["host_slowdown"] = clock.raw_rate()
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
