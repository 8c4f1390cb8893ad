import csv
import random
import sys
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import (
    bfs_oracle,
    build_db,
    dfs_oracle,
    hierarchy_oracle,
    links_of,
    lru_oracle,
    stack_preorder,
    stochastic_oracle,
    typed_links_of,
)
from ocb import workload
from ocb.distributions import Constant, Special, Uniform, substream
from ocb.errors import ParameterError, RunError
from ocb.generator import GeneratorParams, generate_database
from ocb.metrics import aggregate
from ocb.policies import DstcParams, DstcPolicy, NoClustering
from ocb.storage import StorageParams, place_sequential
from ocb.workload import (
    CSV_COLUMNS,
    WorkloadParams,
    choose_slot,
    hierarchy_traversal,
    run_protocol,
    set_oriented_access,
    simple_traversal,
    stochastic_traversal,
    transaction_stream,
    write_log_csv,
)


def test_an_unknown_transaction_type_is_rejected():
    db = build_db([(1, [2]), (1, [])])
    with pytest.raises(ParameterError, match="^unknown transaction type 'bogus'$"):
        workload.run_transaction(db, WorkloadParams(), "bogus", 1, "forward",
                                 random.Random(0))


def storage_for(db, buffer_pages=512):
    return place_sequential(db, StorageParams(buffer_pages=buffer_pages))


def row_crossings(links, expanded):
    """The crossings of a walk over a link table: each expanded row, whole."""
    return [(a, t) for a in expanded for t in links[a]]


def walked(result, table):
    """(accessed, expanded, crossings) of a table walk over `table`, which it
    must return itself, not a copy."""
    accessed, links, expanded = result
    assert links is table
    return accessed, expanded, row_crossings(links, expanded)


def test_set_access_isolated_root():
    db = build_db([(1, [])])
    assert walked(set_oriented_access(db, 1, depth=5), db.link_table()) == ([1], [1], [])


def test_set_access_binary_tree_depth_one():
    db = build_db([(1, [2, 3]), (1, []), (1, [])])
    assert walked(set_oriented_access(db, 1, depth=1), db.link_table()) == \
        ([1, 2, 3], [1], [(1, 2), (1, 3)])


def test_set_access_counts_duplicates_but_expands_once():
    # both 2 and 3 point at 4: BFS accesses 4 twice, expands it once
    db = build_db([(1, [2, 3]), (1, [4]), (1, [4]), (1, [2])])
    assert walked(set_oriented_access(db, 1, depth=3), db.link_table()) == \
        ([1, 2, 3, 4, 4, 2], [1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4), (4, 2)])


def test_simple_traversal_chain():
    db = build_db([(1, [2]), (1, [3]), (1, [4]), (1, [])])
    assert walked(simple_traversal(db, 1, depth=3), db.link_table()) == \
        ([1, 2, 3, 4], [1, 2, 3], [(1, 2), (2, 3), (3, 4)])


def test_simple_traversal_full_fanout_emulation():
    # complete 3-regular digraph on 4 objects: every object links to the
    # other three, so a 7-hop walk realizes the full fan-out tree
    db = build_db([(1, [oid for oid in range(1, 5) if oid != me])
                   for me in range(1, 5)])
    accessed, expanded, crossings = walked(simple_traversal(db, 1, depth=7),
                                           db.link_table())
    assert len(accessed) == 3280
    assert len(expanded) == sum(3 ** i for i in range(7))  # every inner node
    assert len(crossings) == 3279
    assert len(accessed) == sum(3 ** i for i in range(8))


def test_hierarchy_traversal_follows_one_type():
    db = build_db(
        [(1, [2, 6]), (1, [3, 6]), (1, [4, 6]), (1, [5, 6]), (1, [None, 6]), (1, [])],
        class_trefs=[[1, 2]])
    # 5 is expanded too: it lies 4 hops deep, and its type-1 row is empty
    assert walked(hierarchy_traversal(db, 1, depth=5, ref_type=1),
                  db.link_table(False, 1)) == \
        ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert walked(hierarchy_traversal(db, 1, depth=5, ref_type=3),
                  db.link_table(False, 3)) == ([1], [1], [])


def test_hierarchy_five_link_chain_counts_six():
    db = build_db([(1, [2]), (1, [3]), (1, [4]), (1, [5]), (1, [6]), (1, [])])
    accessed, _links, expanded = hierarchy_traversal(db, 1, depth=5, ref_type=1)
    assert len(accessed) == 6
    assert expanded == [1, 2, 3, 4, 5]


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
    assert stochastic_traversal(db, 1, depth=50, rng=substream(1, "s")) == \
        ([1], db.link_table(), [])


def test_stochastic_replays_against_oracle():
    db = generate_database(GeneratorParams(nc=3, maxnref=3, no=30, seed=9))
    for direction in ("forward", "reverse"):
        for seed in range(5):
            # a path: nothing expanded, and its direction's cached table
            accessed, links, expanded = stochastic_traversal(
                db, 7, depth=50, direction=direction, rng=substream(seed, "sto"))
            assert links is db.link_table(direction == "reverse") and expanded == []
            assert accessed == stochastic_oracle(db, 7, 50, substream(seed, "sto"),
                                                 direction)


def test_traversals_match_oracles_on_generated_db():
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=40, seed=12))
    for root in (1, 7, 40):
        for direction in ("forward", "reverse"):
            assert set_oriented_access(db, root, 3, direction)[0] == \
                bfs_oracle(db, root, 3, direction)
            assert simple_traversal(db, root, 3, direction)[0] == \
                dfs_oracle(db, root, 3, direction)
            assert hierarchy_traversal(db, root, 5, 1, direction)[0] == \
                hierarchy_oracle(db, root, 5, 1, direction)


def test_reverse_uses_backrefs():
    db = build_db([(1, [3]), (1, [3]), (1, [])])
    assert walked(set_oriented_access(db, 3, depth=1, direction="reverse"),
                  db.link_table(True)) == ([3, 1, 2], [3], [(3, 1), (3, 2)])


# -- the traversal engine against the oracles, event by event -------------
#
# A traversal returns its accesses in order, and its crossings as whole
# link-table rows, one per expanded node, or as a path. So the accesses and
# the expansions are compared with the oracle's as ordered streams, and the
# crossings as a multiset. How accesses interleave with crossings is not
# part of the design: the policy and the buffer see a transaction only
# after its walk.


def engine_events(db, kind, root, depth, direction, ref_type=1, seed=0):
    """(accesses, expansions, crossing multiset) of one traversal, built
    from oracle-style events."""
    if kind == "set":
        accessed, links, expanded = set_oriented_access(db, root, depth, direction)
    elif kind == "simple":
        accessed, links, expanded = simple_traversal(db, root, depth, direction)
    elif kind == "hierarchy":
        accessed, links, expanded = hierarchy_traversal(db, root, depth, ref_type,
                                                        direction)
    else:
        accessed, links, expanded = stochastic_traversal(db, root, depth, direction,
                                                         rng=substream(seed, "engine"))
    assert links is db.link_table(direction == "reverse",
                                  ref_type if kind == "hierarchy" else None)
    if expanded:
        crossings = row_crossings(links, expanded)
    else:
        # a path: a stochastic walk, or any walk at depth 0
        assert kind == "stochastic" or depth == 0
        crossings = list(zip(accessed, accessed[1:]))
    # every access after the root is the target of exactly one crossing
    assert len(crossings) == len(accessed) - 1
    return ([("access", oid) for oid in accessed],
            [("expand", oid) for oid in expanded],
            Counter(("cross", source, target) for source, target in crossings))


def split_events(events):
    """An oracle's interleaved events as (accesses, expansions, crossing
    multiset), the first two in order."""
    return ([e for e in events if e[0] == "access"],
            [e for e in events if e[0] == "expand"],
            Counter(e for e in events if e[0] == "cross"))


def oracle_events(db, kind, root, depth, direction, ref_type=1, seed=0):
    events = []
    if kind == "set":
        bfs_oracle(db, root, depth, direction, events)
    elif kind == "simple":
        dfs_oracle(db, root, depth, direction, events)
    elif kind == "hierarchy":
        hierarchy_oracle(db, root, depth, ref_type, direction, events)
    else:
        stochastic_oracle(db, root, depth, substream(seed, "engine"), direction, events)
    return split_events(events)


@st.composite
def cyclic_dbs(draw):
    """Small databases whose links of both reference types may close cycles."""
    trefs = draw(st.lists(st.lists(st.integers(1, 2), min_size=1, max_size=3),
                          min_size=1, max_size=3))
    count = draw(st.integers(4, 12))
    specs = []
    for _ in range(count):
        cid = draw(st.integers(1, len(trefs)))
        # a drawn 0 is a NULL slot
        targets = draw(st.lists(st.integers(0, count).map(lambda t: t or None),
                                min_size=len(trefs[cid - 1]),
                                max_size=len(trefs[cid - 1])))
        specs.append((cid, targets))
    return build_db(specs, class_trefs=trefs, nreft=2)


# seeds whose walk takes slot 1 at its first hop (see choose_slot)
FIRST_SLOT_SEEDS = [seed for seed in range(1001)
                    if substream(seed, "engine").random() < 0.5]


@settings(max_examples=200)
@given(db=cyclic_dbs(), data=st.data())
def test_traversal_events_match_oracles(db, data):
    depth = data.draw(st.integers(1, 5))  # depth 0 has its own test below
    ref_type = data.draw(st.sampled_from(sorted({t for c in db.classes for t in c.tref})))
    seed = data.draw(st.sampled_from(FIRST_SLOT_SEEDS))
    for direction in ("forward", "reverse"):
        # a root with a link of the drawn type, so that most hierarchy and
        # stochastic walks cross at least one link
        linked = [oid for oid in range(1, len(db.objects) + 1)
                  if typed_links_of(db, oid, ref_type, direction)]
        root = data.draw(st.sampled_from(linked or range(1, len(db.objects) + 1)))
        for kind in ("set", "simple", "hierarchy", "stochastic"):
            args = (db, kind, root, depth, direction, ref_type, seed)
            assert engine_events(*args) == oracle_events(*args), (kind, direction)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_depth_zero_accesses_only_the_root(direction):
    # every object links onward and back, so only the depth stops the walks
    db = build_db([(1, [2, 3]), (1, [3, 1]), (1, [1, 2])])
    for root in (1, 2, 3):
        for kind in ("set", "simple", "hierarchy", "stochastic"):
            args = (db, kind, root, 0, direction, 1, root)
            assert engine_events(*args) == oracle_events(*args) == \
                ([("access", root)], [], Counter())


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_depth_first_walks_past_the_recursion_limit(direction):
    # 1 -> 2 -> 3 -> 1 is a cycle of type 1; 1 also links to 4 by type 2
    db = build_db([(1, [2, 4]), (1, [3]), (1, [1]), (1, [])], class_trefs=[[1, 2]])
    depth = sys.getrecursionlimit() + 100
    root = 4 if direction == "reverse" else 1
    simple = engine_events(db, "simple", root, depth, direction)
    assert simple == split_events(stack_preorder(
        lambda oid: [t for _k, t in links_of(db, oid, direction)], root, depth))
    hierarchy = engine_events(db, "hierarchy", 1, depth, direction)
    assert hierarchy == split_events(stack_preorder(
        lambda oid: typed_links_of(db, oid, 1, direction), 1, depth))
    # the type-1 cycle alone: one access per hop, never cut short
    accesses, expansions, _crossings = hierarchy
    assert len(accesses) == depth + 1
    assert len(expansions) == depth
    assert engine_events(db, "set", root, depth, direction) == \
        oracle_events(db, "set", root, depth, direction)


def test_protocol_counts_faults_and_simulated_time():
    db = build_db([(1, [2]), (1, [])])
    for obj in db.objects:
        obj.size = 3000  # one page each
    storage = place_sequential(db, StorageParams(buffer_pages=4,
                                                 io_cost=1.0, cpu_cost=0.5))
    params = WorkloadParams(coldn=0, hotn=1, simdepth=1, pset=0.0, psimple=1.0,
                            phier=0.0, pstoch=0.0, dist5=Constant(1))
    log = run_protocol(db, storage, params, NoClustering())
    [record] = log.records
    assert record.objects == 2
    assert record.faults == 2
    assert record.sim_time == 2 * 1.0 + 2 * 0.5 == 3.0
    assert log.clock == 3.0


# -- protocol ------------------------------------------------------------


def protocol_params(**kw):
    defaults = dict(coldn=2, hotn=3, seed=5)
    defaults.update(kw)
    return WorkloadParams(**defaults)


def test_protocol_single_hot_set_transaction():
    db = build_db([(1, [2]), (1, [])])
    params = protocol_params(coldn=0, hotn=1, pset=1.0, psimple=0.0,
                             phier=0.0, pstoch=0.0)
    log = run_protocol(db, storage_for(db), params, NoClustering())
    assert len(log.records) == 1
    record = log.records[0]
    assert record.phase == "HOT" and record.type == "set"


def test_protocol_phases_and_counts():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=25, seed=2))
    params = protocol_params(coldn=4, hotn=6)
    log = run_protocol(db, storage_for(db), params, NoClustering())
    assert len(log.records) == 10
    assert [r.phase for r in log.records] == ["COLD"] * 4 + ["HOT"] * 6
    assert [r.index for r in log.records] == list(range(10))


def test_protocol_type_frequencies():
    db = build_db([(1, [])] * 4)  # no links: every transaction is one access
    params = protocol_params(coldn=0, hotn=10_000)
    log = run_protocol(db, storage_for(db), params, NoClustering())
    counts = {}
    for r in log.records:
        counts[r.type] = counts.get(r.type, 0) + 1
    for kind in ("set", "simple", "hierarchy", "stochastic"):
        assert abs(counts[kind] / 10_000 - 0.25) < 0.02


def test_protocol_empty_database_rejected():
    db = generate_database(GeneratorParams(nc=1, maxnref=0, no=0, seed=0))
    with pytest.raises(RunError):
        run_protocol(db, storage_for(db), protocol_params(), NoClustering())
    with pytest.raises(RunError):
        transaction_stream(db, protocol_params())  # at the call, not at next()
    # zero transactions on an empty database is fine
    log = run_protocol(db, storage_for(db), protocol_params(coldn=0, hotn=0), NoClustering())
    assert log.records == []


def test_protocol_replayable():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=30, seed=4))
    log_a = run_protocol(db, storage_for(db), protocol_params(seed=11), NoClustering())
    log_b = run_protocol(db, storage_for(db), protocol_params(seed=11), NoClustering())
    log_c = run_protocol(db, storage_for(db), protocol_params(seed=12), NoClustering())
    assert log_a.records == log_b.records
    assert log_a.records != log_c.records


def test_protocol_constant_root_and_reverse_probability():
    db = build_db([(1, [2]), (1, [])])
    params = protocol_params(coldn=0, hotn=20, dist5=Constant(2),
                             reverse_probability=1.0)
    log = run_protocol(db, storage_for(db), params, NoClustering())
    assert all(r.root == 2 for r in log.records)
    assert all(r.direction == "reverse" for r in log.records)


def test_protocol_hierarchy_type_out_of_range():
    db = generate_database(GeneratorParams(nc=2, maxnref=1, no=5, nreft=2, seed=1))
    params = protocol_params(hierarchy_ref_type=9)
    with pytest.raises(ParameterError):
        run_protocol(db, storage_for(db), params, NoClustering())
    with pytest.raises(ParameterError):
        transaction_stream(db, params)  # at the call, not at next()


def test_protocol_think_time_advances_clock():
    db = build_db([(1, [])] * 3)
    quiet = run_protocol(db, storage_for(db), protocol_params(seed=3), NoClustering())
    slow = run_protocol(db, storage_for(db), protocol_params(seed=3, think=5.0), NoClustering())
    assert slow.clock > quiet.clock
    again = run_protocol(db, storage_for(db), protocol_params(seed=3, think=5.0), NoClustering())
    assert slow.clock == again.clock


def test_protocol_multi_client_interleaves_deterministically():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=30, seed=4))
    params = protocol_params(coldn=2, hotn=2, clientn=3, seed=6)
    log = run_protocol(db, storage_for(db), params, NoClustering())
    assert len(log.records) == 12
    assert [client for _, client, *_ in transaction_stream(db, params)] == [1, 2, 3] * 4
    log_b = run_protocol(db, storage_for(db), params, NoClustering())
    assert log.records == log_b.records


def test_the_replay_logs_the_stream_under_every_placement_and_policy():
    # a walk never reads the placement and a policy never changes which
    # objects a walk visits, so the logical run is a function of the
    # database and the parameters alone
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=300, seed=8))
    params = protocol_params(coldn=30, hotn=90, clientn=2, reverse_probability=0.3,
                             think=0.5, seed=3)
    stream = list(transaction_stream(db, params))
    again = transaction_stream(db, params)
    assert [walk[0] for *_, walk, _ in stream] == [walk[0] for *_, walk, _ in again]
    expected = [(phase, kind, direction, root, len(accessed))
                for phase, _client, kind, direction, root, (accessed, _, _), _ in stream]

    # 30 pages against a 4-page buffer, so the placement changes the faults
    storage_params = StorageParams(page_size=512, buffer_pages=4)

    def shuffled():
        storage = place_sequential(db, storage_params)
        order = list(storage.placement)
        random.Random(5).shuffle(order)
        storage.rewrite_placement(storage.pack_order(order))
        return storage

    assert shuffled().placement != place_sequential(db, storage_params).placement
    faults = set()
    for make_storage in (lambda: place_sequential(db, storage_params), shuffled):
        for policy in (NoClustering(), DstcPolicy(DstcParams(observation_period=20))):
            log = run_protocol(db, make_storage(), params, policy)
            assert [(r.phase, r.type, r.direction, r.root, r.objects)
                    for r in log.records] == expected
            assert bool(log.reorgs) == isinstance(policy, DstcPolicy)
            faults.add(tuple(r.faults for r in log.records))
    assert len(faults) == 4  # the physical replays all differ


# sticky roots: after its first, uniform draw each client keeps its root
STICKY = dict(coldn=6, hotn=9, clientn=2, dist5=Special(0, 1.0), think=0.5, seed=7)
ONE_TYPE = {kind: {name: float(name == f"p{kind}")
                   for name in ("pset", "psimple", "phier", "pstoch")}
            for kind in ("set", "simple", "hier", "stoch")}


def sticky_db():
    return generate_database(GeneratorParams(nc=4, maxnref=3, no=120, seed=8))


@pytest.mark.parametrize("reverse_probability", [0.0, 1.0, 0.5])
@pytest.mark.parametrize("mix", ["set", "simple", "hier", "stoch", "all"])
def test_a_reused_walk_leaves_the_stream_as_walking_it_again(monkeypatch, mix,
                                                             reverse_probability):
    db = sticky_db()
    params = WorkloadParams(**STICKY, **ONE_TYPE.get(mix, {}),
                            reverse_probability=reverse_probability)
    stream = list(transaction_stream(db, params))
    run_transaction = workload.run_transaction
    # the reference walks every transaction: it drops the previous one
    monkeypatch.setattr(workload, "run_transaction",
                        lambda *args: run_transaction(*args[:6]))
    reference = list(transaction_stream(db, params))
    assert len(stream) == len(reference) == 30
    for item, expected in zip(stream, reference):
        assert item == expected
    if mix == "stoch":
        # each repeat is walked again with the client's next draws
        assert len({tuple(walk[0]) for *_, walk, _ in stream}) > 2


def test_a_client_walks_its_repeated_simple_transaction_once(monkeypatch):
    calls = Counter()
    simple = workload.simple_traversal

    def counted(db, root, depth, direction):
        calls[root, direction] += 1
        return simple(db, root, depth, direction)

    monkeypatch.setattr(workload, "simple_traversal", counted)
    db = sticky_db()
    stream = list(transaction_stream(db, WorkloadParams(**STICKY, **ONE_TYPE["simple"])))
    roots = {client: root for _, client, _, _, root, _, _ in stream}
    assert len(stream) == 30 and len(roots) == 2
    assert calls == Counter((root, "forward") for root in roots.values())
    # a reused walk is the previous one, the same lists: hooks must not change them
    first = {}
    for _, client, _, _, _, walk, _ in stream:
        assert walk is first.setdefault(client, walk)


def test_per_type_totals_sum_to_global():
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=40, seed=8))
    storage = storage_for(db)
    log = run_protocol(db, storage, protocol_params(coldn=30, hotn=50), NoClustering())
    total_objects = sum(r.objects for r in log.records)
    by_type = {}
    for r in log.records:
        by_type[r.type] = by_type.get(r.type, 0) + r.objects
    assert sum(by_type.values()) == total_objects
    total_faults = sum(r.faults for r in log.records)
    assert total_faults == storage.transaction_reads


def test_a_run_after_a_hand_rewrite_logs_no_overhead():
    # the storage's counters are lifetime totals; a run's log counts its own I/O
    db = generate_database(GeneratorParams(no=2000, seed=1))
    storage = place_sequential(db, StorageParams())
    reads, writes = storage.rewrite_placement(
        storage.pack_order(sorted(storage.placement, reverse=True)))
    assert reads > 0 and writes > 0
    log = run_protocol(db, storage, WorkloadParams(coldn=20, hotn=20, seed=1),
                       NoClustering())
    assert not log.reorgs
    assert (log.overhead_reads, log.overhead_writes) == (0, 0)
    report = aggregate(log)
    assert (report.overhead_reads, report.overhead_writes) == (0, 0)


def test_two_runs_on_one_storage_each_log_their_own_faults():
    db = generate_database(GeneratorParams(no=2000, seed=1))
    storage = place_sequential(db, StorageParams(buffer_pages=8))
    logs = [run_protocol(db, storage, WorkloadParams(coldn=20, hotn=20, seed=seed),
                         NoClustering())
            for seed in (1, 2)]
    for log in logs:
        assert log.transaction_reads == sum(r.faults for r in log.records) > 0
    assert sum(log.transaction_reads for log in logs) == storage.transaction_reads


@st.composite
def oracle_runs(draw):
    """A small database, its storage and a run's parameters and policy: some
    objects span pages, the buffer holds 1-8 pages, and DSTC periods are short
    enough that most DSTC runs reorganize."""
    db = generate_database(GeneratorParams(
        nc=draw(st.integers(1, 6)), maxnref=draw(st.integers(1, 4)),
        basesize=draw(st.integers(1, 300)), no=draw(st.integers(5, 60)),
        seed=draw(st.integers(0, 2**16))))
    storage = place_sequential(db, StorageParams(
        page_size=draw(st.sampled_from([256, 512, 4096])),
        buffer_pages=draw(st.integers(1, 8))))
    weights = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    weights = weights if any(weights) else [1, 1, 1, 1]
    params = WorkloadParams(
        coldn=draw(st.integers(0, 10)), hotn=draw(st.integers(10, 40)),
        **{name: w / sum(weights) for name, w in
           zip(("pset", "psimple", "phier", "pstoch"), weights)},
        reverse_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        clientn=draw(st.integers(1, 3)),
        dist5=draw(st.sampled_from([Uniform(), Special(0, 0.9)])),
        seed=draw(st.integers(0, 2**16)))
    if draw(st.sampled_from(["dstc", "none"])) == "dstc":
        policy = DstcPolicy(DstcParams(
            observation_period=draw(st.integers(2, 8)),
            max_unit_size=draw(st.sampled_from([0, 1, 8, 64]))))
    else:
        policy = NoClustering()
    return db, storage, params, policy


@settings(max_examples=200)
@given(oracle_runs())
def test_a_whole_run_matches_the_lru_oracle(run):
    # every record's faults and every reorganization's I/O, replayed from the
    # logical stream and the placements the run installed
    db, storage, params, policy = run
    initial = dict(storage.placement)
    installed = []
    rewrite = storage.rewrite_placement

    def recording(placement):
        installed.append((storage.objects_accessed, placement))
        return rewrite(placement)

    storage.rewrite_placement = recording
    log = run_protocol(db, storage, params, policy)
    event(f"reorganized: {bool(log.reorgs)}")
    walks = [accessed for *_, (accessed, _, _), _ in transaction_stream(db, params)]
    ends = list(accumulate(map(len, walks)))  # accesses done after each transaction
    after = [ends.index(done) for done, _ in installed]
    steps = []
    for accessed, end in zip(walks, ends):
        steps += accessed
        steps += [placement for done, placement in installed if done == end]
    sizes = {obj.id: obj.size for obj in db.objects}
    reads, rewrite_io, _ = lru_oracle(initial, sizes, storage.params.page_size,
                                      storage.params.buffer_pages, steps)
    faults = [sum(reads[start:end]) for start, end in zip([0, *ends], ends)]
    assert [r.faults for r in log.records] == faults
    assert [(e.reads, e.writes) for e in log.reorgs] == rewrite_io
    assert [e.after_index for e in log.reorgs] == after


def test_csv_round_trip(tmp_path):
    db = generate_database(GeneratorParams(nc=3, maxnref=2, no=25, seed=3))
    log = run_protocol(db, storage_for(db), protocol_params(coldn=3, hotn=4), NoClustering())
    path = tmp_path / "report.csv"
    write_log_csv(log, str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_COLUMNS
    assert rows == [[r.phase, r.type, r.direction, str(r.root), str(r.objects),
                     str(r.faults), repr(r.sim_time)] for r in log.records]
    # repr writes the shortest text that reads back as the same float
    assert all(float(row[6]) == r.sim_time for row, r in zip(rows, log.records))
