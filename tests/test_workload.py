import pytest

from helpers import bfs_oracle, build_db, dfs_oracle, hierarchy_oracle, stochastic_oracle
from ocb.distributions import Constant, substream
from ocb.errors import ParameterError, RunError
from ocb.generator import GeneratorParams, generate_database
from ocb.storage import StorageParams, place_sequential
from ocb.workload import (
    WorkloadParams,
    choose_slot,
    hierarchy_traversal,
    read_log_csv,
    run_protocol,
    set_oriented_access,
    simple_traversal,
    stochastic_traversal,
    write_log_csv,
)


def storage_for(db, buffer_pages=512):
    return place_sequential(db, StorageParams(buffer_pages=buffer_pages))


def test_set_access_isolated_root():
    db = build_db([(1, [])])
    result = set_oriented_access(db, storage_for(db), 1, depth=5)
    assert result.objects_accessed == 1
    assert result.accessed == [1]


def test_set_access_binary_tree_depth_one():
    db = build_db([(1, [2, 3]), (1, []), (1, [])])
    result = set_oriented_access(db, storage_for(db), 1, depth=1)
    assert result.objects_accessed == 3
    assert result.accessed == [1, 2, 3]


def test_set_access_counts_duplicates_but_expands_once():
    # both 2 and 3 point at 4: BFS accesses 4 twice, expands it once
    db = build_db([(1, [2, 3]), (1, [4]), (1, [4]), (1, [2])])
    result = set_oriented_access(db, storage_for(db), 1, depth=3)
    assert result.accessed == [1, 2, 3, 4, 4, 2]
    assert result.objects_accessed == 6
    assert result.distinct_objects == 4


def test_simple_traversal_chain():
    db = build_db([(1, [2]), (1, [3]), (1, [4]), (1, [])])
    result = simple_traversal(db, storage_for(db), 1, depth=3)
    assert result.objects_accessed == 4
    assert result.accessed == [1, 2, 3, 4]


def test_simple_traversal_full_fanout_emulation():
    # complete 3-regular digraph on 4 objects: every object links to the
    # other three, so a 7-hop walk realizes the full fan-out tree
    db = build_db([(1, [oid for oid in range(1, 5) if oid != me])
                   for me in range(1, 5)])
    result = simple_traversal(db, storage_for(db), 1, depth=7)
    assert result.objects_accessed == 3280
    assert result.objects_accessed == sum(3 ** i for i in range(8))


def test_hierarchy_traversal_follows_one_type():
    db = build_db(
        [(1, [2, 6]), (1, [3, 6]), (1, [4, 6]), (1, [5, 6]), (1, [None, 6]), (1, [])],
        class_trefs=[[1, 2]])
    result = hierarchy_traversal(db, storage_for(db), 1, depth=5, ref_type=1)
    assert result.accessed == [1, 2, 3, 4, 5]
    only_other = hierarchy_traversal(db, storage_for(db), 1, depth=5, ref_type=3)
    assert only_other.accessed == [1]


def test_hierarchy_five_link_chain_counts_six():
    db = build_db([(1, [2]), (1, [3]), (1, [4]), (1, [5]), (1, [6]), (1, [])])
    result = hierarchy_traversal(db, storage_for(db), 1, depth=5, ref_type=1)
    assert result.objects_accessed == 6


def test_choose_slot_distribution():
    rng = substream(0, "law")
    n = 100_000
    counts = {}
    for _ in range(n):
        choice = choose_slot(rng, 4)
        counts[choice] = counts.get(choice, 0) + 1
    assert abs(counts[1] / n - 0.5) < 0.01
    assert abs(counts[2] / n - 0.25) < 0.01
    assert abs(counts[3] / n - 0.125) < 0.01
    assert abs(counts.get(None, 0) / n - 0.0625) < 0.01


def test_stochastic_zero_slots_stops_immediately():
    db = build_db([(1, [])])
    result = stochastic_traversal(db, storage_for(db), 1, depth=50,
                                  rng=substream(1, "s"))
    assert result.accessed == [1]


def test_stochastic_replays_against_oracle():
    db = generate_database(GeneratorParams(nc=3, maxnref=3, no=30, seed=9))
    for seed in range(5):
        result = stochastic_traversal(db, storage_for(db), 7, depth=50,
                                      rng=substream(seed, "sto"))
        expected = stochastic_oracle(db, 7, 50, substream(seed, "sto"))
        assert result.accessed == expected


def test_traversals_match_oracles_on_generated_db():
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=40, seed=12))
    storage = storage_for(db)
    for root in (1, 7, 40):
        for direction in ("forward", "reverse"):
            assert set_oriented_access(db, storage, root, 3, direction).accessed == \
                bfs_oracle(db, root, 3, direction)
            assert simple_traversal(db, storage, root, 3, direction).accessed == \
                dfs_oracle(db, root, 3, direction)
            assert hierarchy_traversal(db, storage, root, 5, 1, direction).accessed == \
                hierarchy_oracle(db, root, 5, 1, direction)


def test_reverse_uses_backrefs():
    db = build_db([(1, [3]), (1, [3]), (1, [])])
    result = set_oriented_access(db, storage_for(db), 3, depth=1, direction="reverse")
    assert result.accessed == [3, 1, 2]


def test_transaction_result_counts_faults():
    db = build_db([(1, [2]), (1, [])])
    for obj in db.objects:
        obj.size = 3000  # one page each
    storage = place_sequential(db, StorageParams(buffer_pages=4,
                                                 io_cost=1.0, cpu_cost=0.5))
    result = simple_traversal(db, storage, 1, depth=1)
    assert result.page_faults == 2
    assert result.simulated_time == 2 * 1.0 + 2 * 0.5


# -- protocol ------------------------------------------------------------


def protocol_params(**kw):
    defaults = dict(coldn=2, hotn=3, seed=5)
    defaults.update(kw)
    return WorkloadParams(**defaults)


def test_protocol_single_hot_set_transaction():
    db = build_db([(1, [2]), (1, [])])
    params = protocol_params(coldn=0, hotn=1, pset=1.0, psimple=0.0,
                             phier=0.0, pstoch=0.0)
    log = run_protocol(db, storage_for(db), params, None)
    assert len(log.records) == 1
    record = log.records[0]
    assert record.phase == "HOT" and record.type == "set"


def test_protocol_phases_and_counts():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=25, seed=2))
    params = protocol_params(coldn=4, hotn=6)
    log = run_protocol(db, storage_for(db), params, None)
    assert len(log.records) == 10
    assert [r.phase for r in log.records] == ["COLD"] * 4 + ["HOT"] * 6
    assert [r.index for r in log.records] == list(range(10))


def test_protocol_type_frequencies():
    db = build_db([(1, [])] * 4)  # no links: every transaction is one access
    params = protocol_params(coldn=0, hotn=10_000)
    log = run_protocol(db, storage_for(db), params, None)
    counts = {}
    for r in log.records:
        counts[r.type] = counts.get(r.type, 0) + 1
    for kind in ("set", "simple", "hierarchy", "stochastic"):
        assert abs(counts[kind] / 10_000 - 0.25) < 0.02


def test_protocol_empty_database_rejected():
    db = generate_database(GeneratorParams(nc=1, maxnref=0, no=0, seed=0))
    with pytest.raises(RunError):
        run_protocol(db, storage_for(db), protocol_params(), None)
    # zero transactions on an empty database is fine
    log = run_protocol(db, storage_for(db), protocol_params(coldn=0, hotn=0), None)
    assert log.records == []


def test_protocol_replayable():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=30, seed=4))
    log_a = run_protocol(db, storage_for(db), protocol_params(seed=11), None)
    log_b = run_protocol(db, storage_for(db), protocol_params(seed=11), None)
    log_c = run_protocol(db, storage_for(db), protocol_params(seed=12), None)
    assert log_a.records == log_b.records
    assert log_a.records != log_c.records


def test_protocol_constant_root_and_reverse_probability():
    db = build_db([(1, [2]), (1, [])])
    params = protocol_params(coldn=0, hotn=20, dist5=Constant(2),
                             reverse_probability=1.0)
    log = run_protocol(db, storage_for(db), params, None)
    assert all(r.root == 2 for r in log.records)
    assert all(r.direction == "reverse" for r in log.records)


def test_protocol_hierarchy_type_out_of_range():
    db = generate_database(GeneratorParams(nc=2, maxnref=1, no=5, nreft=2, seed=1))
    params = protocol_params(hierarchy_ref_type=9)
    with pytest.raises(ParameterError):
        run_protocol(db, storage_for(db), params, None)


def test_protocol_think_time_advances_clock():
    db = build_db([(1, [])] * 3)
    quiet = run_protocol(db, storage_for(db), protocol_params(seed=3), None)
    slow = run_protocol(db, storage_for(db), protocol_params(seed=3, think=5.0), None)
    assert slow.clock > quiet.clock
    again = run_protocol(db, storage_for(db), protocol_params(seed=3, think=5.0), None)
    assert slow.clock == again.clock


def test_protocol_multi_client_interleaves_deterministically():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=30, seed=4))
    params = protocol_params(coldn=2, hotn=2, clientn=3, seed=6)
    log = run_protocol(db, storage_for(db), params, None)
    assert len(log.records) == 12
    assert [r.client for r in log.records[:6]] == [1, 2, 3, 1, 2, 3]
    log_b = run_protocol(db, storage_for(db), params, None)
    assert log.records == log_b.records


def test_per_type_totals_sum_to_global():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=40, seed=8))
    log = run_protocol(db, storage_for(db), protocol_params(coldn=30, hotn=50), None)
    total_objects = sum(r.objects for r in log.records)
    by_type = {}
    for r in log.records:
        by_type[r.type] = by_type.get(r.type, 0) + r.objects
    assert sum(by_type.values()) == total_objects
    total_faults = sum(r.faults for r in log.records)
    assert total_faults == log.transaction_reads


def test_csv_round_trip(tmp_path):
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=25, seed=3))
    log = run_protocol(db, storage_for(db), protocol_params(coldn=3, hotn=4), None)
    path = tmp_path / "log.csv"
    write_log_csv(log, str(path))
    loaded = read_log_csv(str(path))
    assert [(r.phase, r.type, r.direction, r.root, r.objects, r.faults, r.sim_time)
            for r in loaded.records] == \
           [(r.phase, r.type, r.direction, r.root, r.objects, r.faults, r.sim_time)
            for r in log.records]
    # the CSV holds no client or distinct count, so none is made up
    assert all(r.client is None and r.distinct is None for r in loaded.records)
