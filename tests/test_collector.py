"""The cyclic garbage collector: the engine's data holds no reference cycles,
`generate_database`, `load_database` and `run_protocol` suspend the collector
and give the caller its state back, and only the one helper in
`ocb._collector` switches it."""
import ast
import gc
from pathlib import Path

import pytest

from ocb.errors import FormatError, PlacementError
from ocb.generator import (
    GeneratorParams,
    generate_database,
    load_database,
    save_database,
)
from ocb.metrics import aggregate
from ocb.policies import DstcParams, NoClustering, make_policy
from ocb.storage import StorageParams, place_sequential
from ocb.workload import WorkloadParams, run_protocol

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocb"
SWITCHES = {"disable", "enable", "freeze", "set_threshold"}

# 6 classes, one of which is larger than a page; DSTC reorganizes every
# 40 transactions.
GENERATOR = GeneratorParams(nc=6, maxnref=3, basesize=(40, 60, 80, 120, 30, 700),
                            no=300, seed=4)
STORAGE = StorageParams(page_size=512, buffer_pages=6, spanning=True)
WORKLOAD = WorkloadParams(coldn=30, hotn=90, clientn=2, seed=4)
DSTC = DstcParams(observation_period=40, selection_threshold=1.0,
                  unit_link_threshold=0.5)


def set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    """Restore the caller's collector state after a test that switches it."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


def test_engine_steps_leave_no_cyclic_garbage(tmp_path, collector_state):
    gc.disable()
    gc.collect()
    path = str(tmp_path / "premise.ocb")
    unreachable = {}

    db = generate_database(GENERATOR)
    unreachable["generate"] = gc.collect()
    save_database(db, path)
    unreachable["save"] = gc.collect()
    db = load_database(path)
    unreachable["load"] = gc.collect()
    storage = place_sequential(db, STORAGE)
    unreachable["place"] = gc.collect()
    log = run_protocol(db, storage, WORKLOAD, make_policy("dstc", DSTC))
    unreachable["run_protocol"] = gc.collect()
    aggregate(log)
    unreachable["aggregate"] = gc.collect()

    assert max(o.size for o in db.objects) > STORAGE.page_size
    assert log.reorgs
    assert unreachable == dict.fromkeys(unreachable, 0)


def small_run_inputs(tmp_path):
    path = str(tmp_path / "small.ocb")
    save_database(generate_database(GeneratorParams(nc=3, maxnref=2, no=60, seed=2)), path)
    return path, WorkloadParams(coldn=5, hotn=10, seed=2)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_generation_restores_the_collector_state(collector_state, enabled):
    set_collector(enabled)
    generate_database(GENERATOR)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_load_and_run_restore_the_collector_state(tmp_path, collector_state, enabled):
    path, workload = small_run_inputs(tmp_path)
    set_collector(enabled)
    db = load_database(path)
    assert gc.isenabled() is enabled
    storage = place_sequential(db, StorageParams(buffer_pages=4))
    run_protocol(db, storage, workload, make_policy("dstc", DstcParams(observation_period=5)))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_failed_load_restores_the_collector_state(tmp_path, collector_state, enabled):
    path = tmp_path / "bad.ocb"
    path.write_text('OCBDB1\n{"format": 1}\n')
    set_collector(enabled)
    with pytest.raises(FormatError):
        load_database(str(path))
    assert gc.isenabled() is enabled


class InvalidPlacementPolicy(NoClustering):
    """Asks for a placement that covers only object 1, after `after` transactions."""

    def __init__(self, after: int):
        self.remaining = after

    def on_transaction_end(self) -> None:
        self.remaining -= 1

    def maybe_reorganize(self, storage):
        return {1: (0, 0)} if self.remaining == 0 else None


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_failed_run_restores_the_collector_state(tmp_path, collector_state, enabled):
    path, workload = small_run_inputs(tmp_path)
    db = load_database(path)
    storage = place_sequential(db, StorageParams(buffer_pages=4))
    set_collector(enabled)
    with pytest.raises(PlacementError):
        run_protocol(db, storage, workload, InvalidPlacementPolicy(after=7))
    assert gc.isenabled() is enabled


def collector_switches(tree: ast.AST) -> list[ast.AST]:
    """Every `gc.<switch>` attribute and every `from gc import` in `tree`."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in SWITCHES
                and isinstance(node.value, ast.Name) and node.value.id == "gc"):
            found.append(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append(node)
    return found


def test_only_one_helper_switches_the_collector():
    helper_module = PACKAGE / "_collector.py"
    sources = sorted(PACKAGE.glob("*.py"))
    assert helper_module in sources
    outside = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path == helper_module:
            helper = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "collector_paused"]
            assert len(helper) == 1
            allowed = set(map(id, ast.walk(helper[0])))
        lines = [node.lineno for node in collector_switches(tree)
                 if id(node) not in allowed]
        if lines:
            outside[path.name] = lines
    assert outside == {}
