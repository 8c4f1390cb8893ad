"""The cyclic garbage collector: the engine's data holds no reference cycles,
`generate_database`, `load_database` and `run_protocol` suspend the collector,
give the caller its state back and leave what they made in the oldest
generation, a caller's frozen objects stay frozen, and only the one helper in
`ocb._collector` switches the collector."""
import ast
import gc
import weakref
from pathlib import Path

import pytest

from helpers import placement_of
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
SWITCHES = {"collect", "disable", "enable", "freeze", "set_threshold", "unfreeze"}

# 6 classes, one of which is larger than a page; DSTC reorganizes every
# 40 transactions.
GENERATOR = GeneratorParams(nc=6, maxnref=3, basesize=(40, 60, 80, 120, 30, 700),
                            no=300, seed=4)
STORAGE = StorageParams(page_size=512, buffer_pages=6, spanning=True)
WORKLOAD = WorkloadParams(coldn=30, hotn=90, clientn=2, seed=4)
DSTC = DstcParams(observation_period=40, selection_threshold=1.0,
                  unit_link_threshold=0.5)
# CPython 3.12.1 starts with objects frozen; the helper then only pauses the
# collector
FROZEN_AT_START = gc.get_freeze_count()
skip_if_frozen_at_start = pytest.mark.skipif(
    FROZEN_AT_START > 0, reason="objects are frozen at start-up, so the engine "
    "steps only pause the collector")


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


def run_steps(tmp_path, last: str, call=lambda step, *args: step(*args)) -> list:
    """Run the engine steps up to `last` on a small database, each step that
    pauses the collector through `call`; return objects that the last step
    made."""
    path, workload = small_run_inputs(tmp_path)
    made = call(generate_database, GENERATOR).objects
    if last != "generate":
        db = call(load_database, path)
        made = db.objects
    if last == "run":
        storage = place_sequential(db, StorageParams(buffer_pages=4))
        policy = make_policy("dstc", DstcParams(observation_period=5))
        made = call(run_protocol, db, storage, workload, policy).records
    return made


@skip_if_frozen_at_start
@pytest.mark.parametrize("last", ["generate", "load", "run"])
def test_steps_leave_what_they_made_in_the_oldest_generation(tmp_path, collector_state,
                                                             last):
    gc.enable()
    made = run_steps(tmp_path, last)
    assert gc.get_count()[0] < gc.get_threshold()[0]
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
    sample = made[::7]
    assert sample and all(map(gc.is_tracked, sample))
    oldest = set(map(id, gc.get_objects(generation=2)))
    assert all(id(obj) in oldest for obj in sample)


class Node:
    pass


@skip_if_frozen_at_start
def test_garbage_the_caller_left_is_collected_not_promoted(collector_state):
    gc.enable()
    node = Node()
    node.self = node
    collected = weakref.ref(node)
    gc.collect(0)  # moves the node on to the middle generation
    del node
    generate_database(GENERATOR)
    assert collected() is None


@pytest.fixture
def thaw():
    """Thaw the objects a test froze."""
    yield
    gc.unfreeze()


def test_frozen_objects_stay_frozen(tmp_path, collector_state, thaw):
    """A step may free frozen objects (a reorganization replaces the
    placement), so the freeze count may fall, but it never rises and the
    objects that live on stay frozen."""
    gc.enable()
    witnesses = [[] for _ in range(3)]

    def call(step, *args):
        gc.freeze()
        frozen = gc.get_freeze_count()
        result = step(*args)
        assert 0 < gc.get_freeze_count() <= frozen
        assert not set(map(id, witnesses)) & set(map(id, gc.get_objects()))
        assert gc.isenabled()
        return result

    run_steps(tmp_path, "run", call)


class InvalidPlacementPolicy(NoClustering):
    """Asks for a placement that covers only object 1, after `after` transactions."""

    def __init__(self, after: int):
        self.remaining = after

    def on_transaction_end(self) -> None:
        self.remaining -= 1

    def maybe_reorganize(self, storage):
        return placement_of({1: (0, 0)}) if self.remaining == 0 else None


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
