"""Correctness checks computed apart from the program.

Each check returns a list of problems (empty when it passes). None of them
compares against stored output: they recompute from first principles
(an LRU of the benchmark's own, a packing validator, sums over the
transaction log, report files parsed back) or test a property the method
must have (placement independence, ref/backref symmetry).
"""
from __future__ import annotations

import csv
import json
from collections import Counter


def pages_of(placement, sizes, page_size, oid) -> range:
    page = placement[oid][0]
    size = sizes[oid]
    run = -(-size // page_size) if size > page_size else 1
    return range(page, page + run)


def replay_lru(placement, sizes, page_size, buffer_pages, accessed, tx_offsets,
               rewrites):
    """Replay an access stream through a plain-dict LRU.

    accessed: object ids in access order; tx_offsets: index into accessed
    where each transaction starts; rewrites: (transaction index, new
    placement) applied after that transaction, dropping every page a moved
    object leaves or lands on from the buffer.

    Returns (faults per transaction, page touches, [(reads, writes,
    objects moved)] per rewrite).
    """
    buffer: dict[int, None] = {}  # insertion order = recency, oldest first
    faults = []
    touches = 0
    rewrite_io = []
    pending = list(rewrites)
    bounds = list(tx_offsets) + [len(accessed)]
    for tx in range(len(tx_offsets)):
        count = 0
        for oid in accessed[bounds[tx]:bounds[tx + 1]]:
            for page in pages_of(placement, sizes, page_size, oid):
                touches += 1
                if page in buffer:
                    del buffer[page]
                else:
                    count += 1
                    if len(buffer) >= buffer_pages:
                        del buffer[next(iter(buffer))]
                buffer[page] = None
        faults.append(count)
        while pending and pending[0][0] == tx:
            new = pending.pop(0)[1]
            moved = [oid for oid, pos in new.items() if pos != placement[oid]]
            left: set[int] = set()
            landed: set[int] = set()
            for oid in moved:
                left.update(pages_of(placement, sizes, page_size, oid))
                landed.update(pages_of(new, sizes, page_size, oid))
            for page in left | landed:
                buffer.pop(page, None)
            rewrite_io.append((len(left), len(landed), len(moved)))
            placement = new
    return faults, touches, rewrite_io


def packing_errors(placement, sizes, page_size) -> list[str]:
    """Every object placed once, within its page, overlapping nothing."""
    errors = []
    if set(placement) != set(sizes):
        errors.append("placement does not cover exactly the database's objects")
        return errors
    on_page: dict[int, list[tuple[int, int, int]]] = {}
    for oid, (page, offset) in placement.items():
        size = sizes[oid]
        if size > page_size:
            if offset != 0:
                errors.append(f"oversized object {oid} not at a page start")
            for p in pages_of(placement, sizes, page_size, oid):
                on_page.setdefault(p, []).append((0, page_size, oid))
        else:
            if offset < 0 or offset + size > page_size:
                errors.append(f"object {oid} overflows page {page}")
            on_page.setdefault(page, []).append((offset, offset + size, oid))
    for page, extents in on_page.items():
        extents.sort()
        for (_s0, end0, a), (start1, _e1, b) in zip(extents, extents[1:]):
            if start1 < end0:
                errors.append(f"objects {a} and {b} overlap on page {page}")
    return errors[:5]


def accounting_errors(log, storage, policy_name) -> list[str]:
    """Identities between the log, the storage counters and the clock."""
    errors = []
    io_cost = storage.params.io_cost
    cpu_cost = storage.params.cpu_cost
    records = log.records
    if sum(r.objects for r in records) != storage.objects_accessed:
        errors.append("sum of objects != storage.objects_accessed")
    faults = sum(r.faults for r in records)
    if not faults == log.transaction_reads == storage.transaction_reads:
        errors.append(f"sum of faults {faults} != transaction_reads "
                      f"{log.transaction_reads}")
    bad = [r.index for r in records
           if r.sim_time != r.faults * io_cost + r.objects * cpu_cost]
    if bad:
        errors.append(f"sim_time != faults*io_cost + objects*cpu_cost at {bad[:5]}")
    reads = sum(e.reads for e in log.reorgs)
    writes = sum(e.writes for e in log.reorgs)
    if (log.overhead_reads, log.overhead_writes) != (reads, writes):
        errors.append("overhead I/O != sum over reorganization events")
    if (storage.overhead_reads, storage.overhead_writes) != (reads, writes):
        errors.append("storage overhead counters != sum over reorganization events")
    if policy_name == "none" and (reads or writes or log.reorgs):
        errors.append("policy none spent overhead I/O or reorganized")
    clock = 0.0
    after = Counter(e.after_index for e in log.reorgs)
    events = iter(log.reorgs)
    for r in records:
        clock += r.sim_time
        for _ in range(after[r.index]):
            event = next(events)
            clock += (event.reads + event.writes) * io_cost
    if clock != log.clock:
        errors.append(f"clock {log.clock} != recomputed {clock}")
    return errors


def read_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def stats_errors(report_csv, stats_csv) -> list[str]:
    """report_stats.csv against totals recomputed from report.csv."""
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in read_rows(report_csv):
        groups.setdefault((row[0], "all"), []).append(row)
        groups.setdefault((row[0], row[1]), []).append(row)
    errors = []
    for phase, kind, count, tot_obj, mean_obj, tot_f, mean_f, mean_t in read_rows(stats_csv):
        rows = groups.get((phase, kind), [])
        n = len(rows)
        objects = sum(int(r[4]) for r in rows)
        faults = sum(int(r[5]) for r in rows)
        time = sum(float(r[6]) for r in rows)
        expected = (n, objects, faults) if n else (0, 0, 0)
        if (int(count), int(tot_obj), int(tot_f)) != expected:
            errors.append(f"{phase}/{kind}: totals differ from report.csv")
        means = ((objects / n, faults / n, time / n) if n else (0.0, 0.0, 0.0))
        for got, want in zip((mean_obj, mean_f, mean_t), means):
            if abs(float(got) - want) > 1e-9 * max(1.0, abs(want)):
                errors.append(f"{phase}/{kind}: mean {got} != recomputed {want}")
    return errors


def recomputed_gain(report_csv, reorg_indices, window):
    """Gain factor from report.csv rows and the reorganization positions."""
    if not reorg_indices:
        return None
    rows = read_rows(report_csv)
    first = min(reorg_indices)
    before = [int(r[5]) for r in rows[:first + 1]][-window:]
    after = [int(r[5]) for r in rows if r[0] == "HOT"][-window:]
    if not before or not after or sum(after) == 0:
        return None
    return (sum(before) / len(before)) / (sum(after) / len(after))


def gain_errors(out_dir) -> tuple[list[str], float | None]:
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    reported = payload["metrics"]["gain_factor"]
    gain = recomputed_gain(out_dir / "report.csv",
                           [e["after_index"] for e in payload["reorganizations"]],
                           payload["metrics"]["gain_window"])
    if (gain is None) != (reported is None) or (
            gain is not None and abs(gain - reported) > 1e-9 * gain):
        return [f"gain factor {reported} != recomputed {gain}"], gain
    return [], gain


def stream(log) -> list[tuple]:
    """The placement-independent part of each transaction."""
    return [(r.phase, r.type, r.direction, r.root, r.objects) for r in log.records]


def database_errors(generated, loaded) -> list[str]:
    """Loaded database equals the generated one; refs and backrefs agree."""
    errors = []
    if generated.params.to_dict() != loaded.params.to_dict():
        errors.append("loaded generator parameters differ")
    if [vars(c) for c in generated.classes] != [vars(c) for c in loaded.classes]:
        errors.append("loaded classes differ")
    if [vars(o) for o in generated.objects] != [vars(o) for o in loaded.objects]:
        errors.append("loaded objects differ")
    if generated.report.to_dict() != loaded.report.to_dict():
        errors.append("loaded generation report differs")
    forward = Counter()
    for obj in loaded.objects:
        for slot, target in enumerate(obj.oref):
            if target is not None:
                forward[(obj.id, slot, target)] += 1
    backward = Counter()
    for obj in loaded.objects:
        for source, slot in obj.backref:
            backward[(source, slot, obj.id)] += 1
    if forward != backward:
        errors.append("references and back references are not symmetric")
    return errors
