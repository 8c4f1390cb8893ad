"""Tests of the benchmark's own arithmetic and oracles.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostclock
from hostclock import NOMINAL_S, HostClock
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def clock_with(marks):
    clock = HostClock()
    clock.marks = list(marks)
    return clock


def test_corrected_time_scales_each_stretch_by_its_kernel_times():
    # kernel at nominal, then twice nominal, then nominal again
    clock = clock_with([(0.0, 1.0, NOMINAL_S), (2.0, 3.0, 2 * NOMINAL_S),
                        (5.0, 6.0, NOMINAL_S)])
    rate = 1 / 1.5  # nominal over the mean of (1, 2) nominal
    assert clock.at(1.0) == 0.0
    assert clock.at(1.5) == pytest.approx(0.5 * rate)
    # the clock stands still while a checkpoint runs
    assert clock.at(2.5) == pytest.approx(1.0 * rate)
    assert clock.at(3.0) == pytest.approx(1.0 * rate)
    assert clock.corrected(1.5, 5.5) == pytest.approx(0.5 * rate + 2.0 * rate)
    assert clock.durations([1.0, 1.5, 3.5], [2.0, 4.0, 4.0]) == pytest.approx(
        [rate, 0.5 * rate + 1.0 * rate, 0.5 * rate])
    with pytest.raises(ValueError):
        clock.at(0.5)
    with pytest.raises(ValueError):
        clock.at(6.5)


def test_timed_call_on_a_steady_host_reads_near_wall_time():
    clock = HostClock()
    _, start, end = clock.timed(hostclock.kernel)
    slowdown = clock.raw_rate()
    assert clock.corrected(start, end) == pytest.approx((end - start) / slowdown,
                                                        rel=0.5)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()

    def leaf():
        return 1

    def middle():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    traced_root = tracer.wrap("root", lambda: traced_middle())
    assert traced_root() == 2
    # spans are numbered in start order: root, middle, leaf, leaf
    assert list(tracer.parent) == [-1, 0, 1, 1]
    durations = [10.0, 6.0, 1.5, 2.0]
    assert tracer.self_times(durations) == {"leaf": 3.5, "middle": 2.5, "root": 4.0}
    assert tracer.of("leaf", durations) == [1.5, 2.0]


def test_lru_oracle_on_a_stream_worked_by_hand():
    page_size = 100
    sizes = {1: 40, 2: 40, 3: 60, 4: 50, 5: 150}
    # page 0: objects 1, 2; page 1: 3; page 2: 4; pages 3-4: object 5
    placement = {1: (0, 0), 2: (0, 40), 3: (1, 0), 4: (2, 0), 5: (3, 0)}
    # move object 4 next to 3 after the second transaction
    moved = {**placement, 4: (1, 60)}
    accessed = [1, 3, 4, 1,   # pages 0 1 2 0 with 2 buffer pages: 4 faults
                2, 4,         # page 0 hit, page 2 hit
                4, 3,         # page 1 fault (2 and 1 dropped), page 1 hit
                5, 1]         # pages 3, 4 and then 0: 3 faults
    faults, touches, io = checks.replay_lru(
        placement, sizes, page_size, 2, accessed, [0, 4, 6, 8], [(1, moved)])
    assert faults == [4, 0, 1, 3]
    assert touches == 11
    # object 4 left page 2 and landed on page 1: one read, one write
    assert io == [(1, 1, 1)]


def test_packing_check_finds_overlap_overflow_and_missing_objects():
    sizes = {1: 60, 2: 60, 3: 250}
    assert checks.packing_errors({1: (0, 0), 2: (1, 0), 3: (2, 0)}, sizes, 100) == []
    assert checks.packing_errors({1: (0, 0), 2: (0, 30), 3: (2, 0)}, sizes, 100)
    assert checks.packing_errors({1: (0, 0), 2: (0, 60), 3: (2, 0)}, sizes, 100)
    assert checks.packing_errors({1: (0, 0), 2: (3, 0), 3: (2, 0)}, sizes, 100)
    assert checks.packing_errors({1: (0, 0), 3: (2, 0)}, sizes, 100)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "club-dstc",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
