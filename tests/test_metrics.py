import math
import random

import pytest

from ocb.errors import ComparisonError
from ocb.metrics import (
    REPORT_CSV_COLUMNS,
    MetricsReport,
    aggregate,
    compare,
    comparison_text,
    compute_gain,
    report_text,
    write_report_csv,
)
from ocb.workload import ExperimentLog, ReorgEvent, TransactionRecord


def record(index, phase, kind="simple", objects=5, faults=2, sim_time=None):
    return TransactionRecord(
        index=index, phase=phase, type=kind, direction="forward",
        root=1, objects=objects, faults=faults,
        sim_time=sim_time if sim_time is not None else faults * 1.0 + objects * 0.001)


def synthetic_log(before_faults, after_faults, window=500):
    """Cold window at `before_faults` per tx, reorg, hot at `after_faults`."""
    records = [record(i, "COLD", faults=before_faults) for i in range(window)]
    records += [record(window + i, "HOT", faults=after_faults) for i in range(window)]
    return ExperimentLog(records=records,
                         reorgs=[ReorgEvent(after_index=window - 1, reads=3, writes=3)])


def test_single_transaction_means():
    log = ExperimentLog(records=[record(0, "HOT", objects=5, faults=2)])
    report = aggregate(log)
    stats = report.phase_type("HOT")
    assert stats.count == 1
    assert stats.mean_objects == 5
    assert stats.mean_faults == 2
    assert report.phase_type("HOT", "simple").total_faults == 2


def test_gain_reproduces_published_arithmetic():
    assert aggregate(synthetic_log(66, 5)).gain_factor == pytest.approx(13.2)
    gain = aggregate(synthetic_log(31, 12)).gain_factor
    assert gain == pytest.approx(2.58, abs=0.01)


def test_gain_undefined_without_reorganization_or_with_zero_after():
    log = ExperimentLog(records=[record(i, "HOT") for i in range(10)])
    assert aggregate(log).gain_factor is None
    zero_after = synthetic_log(10, 0)
    assert aggregate(zero_after).gain_factor is None
    # reorganized in the cold run, with no warm transaction after it
    no_after = ExperimentLog(records=[record(i, "COLD") for i in range(20)],
                             reorgs=[ReorgEvent(after_index=9, reads=1, writes=1)])
    assert aggregate(no_after).gain_factor is None


def test_gain_windows_use_last_k():
    # faults ramp: only the last K before the reorg and last K hot count
    records = [record(i, "COLD", faults=100) for i in range(5)]
    records += [record(5 + i, "COLD", faults=66) for i in range(5)]
    records += [record(10 + i, "HOT", faults=9) for i in range(5)]
    records += [record(15 + i, "HOT", faults=5) for i in range(5)]
    log = ExperimentLog(records=records, reorgs=[ReorgEvent(9, 1, 1)])
    assert compute_gain(log, window=5) == pytest.approx(13.2)


def test_aggregate_invariant_to_row_order_within_phase():
    log = synthetic_log(20, 4)
    shuffled = ExperimentLog(records=list(log.records), reorgs=list(log.reorgs))
    random.Random(3).shuffle(shuffled.records)
    assert aggregate(shuffled).to_dict() == aggregate(log).to_dict()


def test_empty_log_aggregates_to_zeroes():
    report = aggregate(ExperimentLog())
    assert report.gain_factor is None
    assert report.phase_type("HOT").count == 0
    assert report.phase_type("COLD").mean_faults == 0.0


def test_totals_equal_sum_of_types():
    rng = random.Random(5)
    records = [record(i, "HOT", kind=rng.choice(["set", "simple", "hierarchy",
                                                 "stochastic"]),
                      objects=rng.randint(1, 50), faults=rng.randint(0, 9))
               for i in range(200)]
    report = aggregate(ExperimentLog(records=records))
    total = report.phase_type("HOT")
    assert total.total_objects == sum(
        report.phase_type("HOT", k).total_objects
        for k in ("set", "simple", "hierarchy", "stochastic"))
    assert total.count == 200


def test_mean_time_sums_left_to_right_on_every_interpreter():
    # a compensated sum, which sum() of floats is from Python 3.12 on, gives
    # 1.000000000000001 here; left to right, each 1e-16 is lost against 1.0
    times = [1.0] + [1e-16] * 10
    assert math.fsum(times) != 1.0
    log = ExperimentLog(records=[record(i, "HOT", sim_time=t) for i, t in enumerate(times)])
    assert aggregate(log).phase_type("HOT").mean_time == 1.0 / 11


def test_report_dict_round_trip():
    report = aggregate(synthetic_log(66, 5), fingerprint="abc123")
    clone = MetricsReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()


def test_compare_identical_reports_all_ratios_one():
    report = aggregate(synthetic_log(20, 5), fingerprint="f1")
    comparison = compare(report, report)
    assert comparison.rows
    for row in comparison.rows:
        assert row["fault_ratio"] == 1.0
        assert row["object_ratio"] == 1.0


def test_compare_half_faults_gives_ratio_two():
    report_a = aggregate(synthetic_log(20, 10), fingerprint="f1")
    report_b = aggregate(synthetic_log(10, 5), fingerprint="f1")
    comparison = compare(report_a, report_b)
    for row in comparison.rows:
        assert row["fault_ratio"] == pytest.approx(2.0)


def test_compare_rejects_mismatched_fingerprints():
    report_a = aggregate(synthetic_log(20, 10), fingerprint="f1")
    report_b = aggregate(synthetic_log(20, 10), fingerprint="f2")
    with pytest.raises(ComparisonError):
        compare(report_a, report_b)
    forced = compare(report_a, report_b, force=True)
    assert forced.forced is True


def test_text_outputs_render(tmp_path):
    report = aggregate(synthetic_log(66, 5), fingerprint="f1")
    text = report_text(report)
    assert "gain factor" in text
    assert "13.20" in text
    comparison = compare(report, report)
    assert "ratio" in comparison_text(comparison)
    write_report_csv(report, str(tmp_path / "report_stats.csv"))
    header = (tmp_path / "report_stats.csv").read_text().splitlines()[0]
    assert header == "phase,type,count,total_objects,mean_objects,total_faults,mean_faults,mean_time"


def test_report_csv_columns_are_the_file_contract():
    # derived from the TypeStats fields: renaming or reordering one changes the file
    assert REPORT_CSV_COLUMNS == ("phase", "type", "count", "total_objects", "mean_objects",
                                  "total_faults", "mean_faults", "mean_time")
