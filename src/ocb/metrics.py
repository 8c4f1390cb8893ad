"""Aggregation of experiment logs into per-phase, per-type reports.

The headline number is the gain factor: mean page faults over the last K
transactions before the first physical reorganization, divided by the mean
over the last K warm-phase transactions.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, field, fields

from .errors import ComparisonError, ParameterError
from .params import ParamGroup, bounded, read_json
from .workload import PHASES, TRANSACTION_TYPES, ExperimentLog

ALL = "all"
STAT_TYPES = (ALL,) + TRANSACTION_TYPES  # the types of each phase's stats
DEFAULT_GAIN_WINDOW = 500


@dataclass(frozen=True)
class TypeStats(ParamGroup):
    count: int = bounded(0, 0)
    total_objects: int = bounded(0, 0)
    mean_objects: float = bounded(0.0, 0)
    total_faults: int = bounded(0, 0)
    mean_faults: float = bounded(0.0, 0)
    mean_time: float = bounded(0.0, 0)


REPORT_CSV_COLUMNS = ("phase", "type", *(f.name for f in fields(TypeStats)))


@dataclass
class MetricsReport(ParamGroup):
    stats: dict[str, dict[str, TypeStats]] = field(default_factory=dict)
    overhead_reads: int = bounded(0, 0)
    overhead_writes: int = bounded(0, 0)
    gain_factor: float | None = bounded(None, 0)
    gain_window: int = bounded(DEFAULT_GAIN_WINDOW, 1)
    reorganizations: int = bounded(0, 0)
    fingerprint: str | None = None

    def phase_type(self, phase: str, kind: str = ALL) -> TypeStats:
        return self.stats.get(phase, {}).get(kind, TypeStats())

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        """Inverse of `to_dict`; a missing `fingerprint` reads as None. Raises
        ParameterError naming a field of the wrong JSON type or outside its
        bounds, or stats that do not hold each type of each phase."""
        d = {"fingerprint": None, **d}
        own = [f for f in fields(cls) if f.name != "stats"]
        values = {f.name: read_json(f.type, f.name, d[f.name]) for f in own}
        stats = d["stats"]
        if stats.keys() != set(PHASES) or any(kinds.keys() != set(STAT_TYPES)
                                              for kinds in stats.values()):
            raise ParameterError(f"stats must hold the phases {list(PHASES)}, each with "
                                 f"the types {list(STAT_TYPES)}")
        values["stats"] = {phase: {kind: TypeStats.from_dict(s) for kind, s in kinds.items()}
                           for phase, kinds in stats.items()}
        return cls(**values)


def _stats_of(records) -> TypeStats:
    n = len(records)
    if n == 0:
        return TypeStats()
    total_objects = sum(r.objects for r in records)
    total_faults = sum(r.faults for r in records)
    # left to right: sum() of floats is compensated from Python 3.12 on, so
    # its result, and the report bytes, would depend on the interpreter
    total_time = 0.0
    for r in records:
        total_time += r.sim_time
    return TypeStats(count=n, total_objects=total_objects,
                     mean_objects=total_objects / n,
                     total_faults=total_faults,
                     mean_faults=total_faults / n,
                     mean_time=total_time / n)


def compute_gain(log: ExperimentLog, window: int = DEFAULT_GAIN_WINDOW) -> float | None:
    """Before/after fault ratio around the first reorganization.

    None when no reorganization happened, either window is empty, or the
    after-window mean is zero.
    """
    if not log.reorgs or window < 1:
        return None
    first = min(e.after_index for e in log.reorgs)
    by_index = sorted(log.records, key=lambda r: r.index)
    before = [r for r in by_index if r.index <= first][-window:]
    after = [r for r in by_index if r.phase == "HOT"][-window:]
    if not before or not after:
        return None
    before_mean = sum(r.faults for r in before) / len(before)
    after_mean = sum(r.faults for r in after) / len(after)
    if after_mean <= 0:
        return None
    return before_mean / after_mean


def aggregate(log: ExperimentLog, gain_window: int = DEFAULT_GAIN_WINDOW,
              fingerprint: str | None = None) -> MetricsReport:
    """Arithmetic aggregation per phase and transaction type; deterministic.
    A `gain_window` that `MetricsReport.validate` rejects raises first."""
    report = MetricsReport(gain_window=gain_window, fingerprint=fingerprint)
    for phase in PHASES:
        phase_records = [r for r in log.records if r.phase == phase]
        kinds = {ALL: _stats_of(phase_records)}
        for kind in TRANSACTION_TYPES:
            kinds[kind] = _stats_of([r for r in phase_records if r.type == kind])
        report.stats[phase] = kinds
    report.overhead_reads = log.overhead_reads
    report.overhead_writes = log.overhead_writes
    report.reorganizations = len(log.reorgs)
    report.gain_factor = compute_gain(log, gain_window)
    return report


@dataclass
class Comparison:
    """Side-by-side deltas and ratios between two reports (a over b)."""

    rows: list[dict] = field(default_factory=list)
    gain_a: float | None = None
    gain_b: float | None = None
    forced: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(a: float, b: float) -> float | None:
    if a == b:
        return 1.0
    if b == 0:
        return None
    return a / b


def compare(report_a: MetricsReport, report_b: MetricsReport,
            force: bool = False) -> Comparison:
    """Compare two reports of the same workload; a's metrics over b's."""
    if report_a.fingerprint != report_b.fingerprint and not force:
        raise ComparisonError(
            "workload fingerprints differ "
            f"({report_a.fingerprint} vs {report_b.fingerprint}); "
            "use force to compare anyway")
    comparison = Comparison(gain_a=report_a.gain_factor, gain_b=report_b.gain_factor,
                            forced=report_a.fingerprint != report_b.fingerprint)
    for phase in PHASES:
        for kind in STAT_TYPES:
            a = report_a.phase_type(phase, kind)
            b = report_b.phase_type(phase, kind)
            if a.count == 0 and b.count == 0:
                continue
            comparison.rows.append({
                "phase": phase,
                "type": kind,
                "mean_faults_a": a.mean_faults,
                "mean_faults_b": b.mean_faults,
                "fault_ratio": _ratio(a.mean_faults, b.mean_faults),
                "mean_objects_a": a.mean_objects,
                "mean_objects_b": b.mean_objects,
                "object_ratio": _ratio(a.mean_objects, b.mean_objects),
                "time_ratio": _ratio(a.mean_time, b.mean_time),
            })
    return comparison


def write_report_csv(report: MetricsReport, path: str) -> None:
    """One row per phase and type: both, then that pair's `TypeStats` fields
    in declared order, as `REPORT_CSV_COLUMNS` names them; csv writes a
    float as its `repr`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS)
        writer.writerows((phase, kind, *astuple(report.phase_type(phase, kind)))
                         for phase in PHASES for kind in STAT_TYPES)


def report_text(report: MetricsReport) -> str:
    """Plain-text table: per-phase metrics plus the before/after gain line."""
    lines = []
    lines.append(f"{'phase':<6} {'type':<11} {'count':>7} {'mean objs':>10} "
                 f"{'mean faults':>12} {'mean time':>11}")
    for phase in PHASES:
        for kind in STAT_TYPES:
            s = report.phase_type(phase, kind)
            if s.count == 0 and kind != ALL:
                continue
            lines.append(f"{phase:<6} {kind:<11} {s.count:>7} {s.mean_objects:>10.2f} "
                         f"{s.mean_faults:>12.2f} {s.mean_time:>11.3f}")
    lines.append("")
    lines.append(f"clustering overhead reads:  {report.overhead_reads}")
    lines.append(f"clustering overhead writes: {report.overhead_writes}")
    lines.append(f"reorganizations:            {report.reorganizations}")
    if report.gain_factor is None:
        lines.append("gain factor:                n/a")
    else:
        lines.append(f"gain factor:                {report.gain_factor:.2f} "
                     f"(window {report.gain_window})")
    return "\n".join(lines) + "\n"


def comparison_text(comparison: Comparison) -> str:
    lines = []
    lines.append(f"{'phase':<6} {'type':<11} {'faults a':>10} {'faults b':>10} "
                 f"{'ratio':>8}")
    for row in comparison.rows:
        ratio = row["fault_ratio"]
        ratio_s = f"{ratio:.3f}" if ratio is not None else "n/a"
        lines.append(f"{row['phase']:<6} {row['type']:<11} "
                     f"{row['mean_faults_a']:>10.2f} {row['mean_faults_b']:>10.2f} "
                     f"{ratio_s:>8}")
    gain_a = f"{comparison.gain_a:.2f}" if comparison.gain_a is not None else "n/a"
    gain_b = f"{comparison.gain_b:.2f}" if comparison.gain_b is not None else "n/a"
    lines.append("")
    lines.append(f"gain factor a: {gain_a}")
    lines.append(f"gain factor b: {gain_b}")
    return "\n".join(lines) + "\n"


def write_json(payload: dict, path: str) -> None:
    """Canonical JSON writer shared by report emitters (stable bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
