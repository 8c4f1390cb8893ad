from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_db, reference_build_units
from ocb import policies
from ocb.errors import ParameterError
from ocb.generator import GeneratorParams, generate_database
from ocb.policies import (
    DstcParams,
    DstcPolicy,
    DstcState,
    NoClustering,
    dstc_build_units,
    dstc_consolidate,
    dstc_observe,
    dstc_reorganize,
    dstc_select,
    make_policy,
)
from ocb.storage import StorageParams, place_sequential
from ocb.workload import WorkloadParams, run_protocol


# -- observation ---------------------------------------------------------


def test_observe_counts_crossings():
    state = DstcState()
    for _ in range(3):
        dstc_observe(state, 1, 2)
    assert state.observation_matrix == {(1, 2): 3}


def test_observe_keeps_direction_and_skips_self_links():
    state = DstcState()
    dstc_observe(state, 2, 1)
    dstc_observe(state, 1, 2)
    dstc_observe(state, 5, 5)
    assert state.observation_matrix == {(2, 1): 1, (1, 2): 1}


def test_observe_matches_recount_oracle():
    db = generate_database(GeneratorParams(nc=3, maxnref=3, no=30, seed=15))
    storage = place_sequential(db, StorageParams())
    crossings = []

    class Recorder(NoClustering):
        def on_link_crossing(self, source, slot, target):
            crossings.append((source, target))

    recorder = Recorder()
    params = WorkloadParams(coldn=10, hotn=10, seed=3)
    run_protocol(db, storage, params, recorder)

    state = DstcState()
    for source, target in crossings:
        dstc_observe(state, source, target)
    oracle = Counter(pair for pair in crossings if pair[0] != pair[1])
    assert state.observation_matrix == dict(oracle)


# -- selection -----------------------------------------------------------


def test_select_drops_below_threshold_and_clears():
    state = DstcState()
    state.observation_matrix = {(1, 2): 3, (3, 4): 1}
    filtered = dstc_select(state, DstcParams(selection_threshold=2))
    assert filtered == {(1, 2): 3}
    assert state.observation_matrix == {}


def test_select_threshold_zero_is_identity():
    state = DstcState()
    state.observation_matrix = {(1, 2): 1, (8, 9): 4}
    filtered = dstc_select(state, DstcParams(selection_threshold=0))
    assert filtered == {(1, 2): 1, (8, 9): 4}


@given(st.dictionaries(
    st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda p: p[0] != p[1]),
    st.integers(1, 10), max_size=20),
    st.integers(0, 5))
def test_select_matches_filter_oracle(matrix, threshold):
    state = DstcState()
    state.observation_matrix = dict(matrix)
    filtered = dstc_select(state, DstcParams(selection_threshold=threshold))
    assert filtered == {p: c for p, c in matrix.items() if c >= threshold}


# -- consolidation -------------------------------------------------------


def test_consolidate_weight_one_replaces():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 9.0, (3, 4): 1.0}
    dstc_consolidate(state, {(1, 2): 4}, DstcParams(consolidation_weight=1.0))
    assert state.consolidated_matrix == {(1, 2): 4.0}


def test_consolidate_weight_zero_keeps_old():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 9.0}
    dstc_consolidate(state, {(1, 2): 4, (5, 6): 7}, DstcParams(consolidation_weight=0.0))
    assert state.consolidated_matrix == {(1, 2): 9.0}


def test_consolidate_two_periods_hand_computed():
    # pair seen 4 then 2 with w = 0.5: weight 2.0 after both periods
    state = DstcState()
    params = DstcParams(consolidation_weight=0.5)
    dstc_consolidate(state, {(1, 2): 4}, params)
    assert state.consolidated_matrix[(1, 2)] == pytest.approx(2.0)
    dstc_consolidate(state, {(1, 2): 2}, params)
    assert state.consolidated_matrix[(1, 2)] == pytest.approx(2.0)


def test_consolidate_absent_pairs_decay():
    state = DstcState()
    params = DstcParams(consolidation_weight=0.5)
    dstc_consolidate(state, {(1, 2): 8}, params)
    dstc_consolidate(state, {}, params)
    assert state.consolidated_matrix[(1, 2)] == pytest.approx(2.0)


@given(st.lists(st.dictionaries(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 20), max_size=6), min_size=1, max_size=6),
    st.floats(0.05, 0.95))
def test_consolidation_matches_closed_form(periods, weight):
    state = DstcState()
    params = DstcParams(consolidation_weight=weight)
    for filtered in periods:
        dstc_consolidate(state, filtered, params)
    pairs = {p for filtered in periods for p in filtered}
    k = len(periods)
    for pair in pairs:
        expected = sum(weight * (1 - weight) ** (k - 1 - i) * periods[i].get(pair, 0)
                       for i in range(k))
        got = state.consolidated_matrix.get(pair, 0.0)
        assert got == pytest.approx(expected, abs=1e-9)


# -- unit building -------------------------------------------------------


def test_build_units_greedy_example():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 5.0, (2, 3): 4.0}
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0))
    assert units == [[1, 2, 3]]


def test_build_units_below_threshold_empty():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 0.5, (3, 4): 0.9}
    assert dstc_build_units(state, DstcParams(unit_link_threshold=1.0)) == []


def test_build_units_disjoint_pairs_two_units():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 5.0, (3, 4): 4.0}
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0))
    assert units == [[1, 2], [3, 4]]


def test_build_units_respects_capacity():
    state = DstcState()
    state.consolidated_matrix = {(1, k): 5.0 for k in range(2, 12)}
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0,
                                               max_unit_size=4))
    assert len(units[0]) == 4
    members = [m for u in units for m in u]
    assert len(members) == len(set(members))


def test_build_units_unbounded_covers_component():
    state = DstcState()
    state.consolidated_matrix = {(1, 2): 5.0, (3, 2): 4.0, (3, 4): 3.0}
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0,
                                               max_unit_size=0))
    assert len(units) == 1
    assert sorted(units[0]) == [1, 2, 3, 4]


@given(st.dictionaries(
    st.tuples(st.integers(1, 25), st.integers(1, 25)).filter(lambda p: p[0] != p[1]),
    st.floats(0.1, 9.0), max_size=30))
def test_build_units_disjoint_and_deterministic(matrix):
    state_a = DstcState()
    state_a.consolidated_matrix = dict(matrix)
    state_b = DstcState()
    state_b.consolidated_matrix = dict(reversed(list(matrix.items())))
    params = DstcParams(unit_link_threshold=1.0)
    units_a = dstc_build_units(state_a, params)
    units_b = dstc_build_units(state_b, params)
    assert units_a == units_b
    members = [m for u in units_a for m in u]
    assert len(members) == len(set(members))


# weights drawn from a short list force ties; the float range breaks them
unit_weights = st.one_of(st.sampled_from((0.5, 1.0, 2.0, 3.0)), st.floats(0.1, 9.0))


@st.composite
def unit_matrices(draw):
    """Consolidated matrices with ties, self pairs, 2-cycles and a chain."""
    nodes = st.integers(1, 8)  # few ids, so climbs meet claimed and on-path parents
    matrix = {}
    for pair in draw(st.lists(st.tuples(nodes, nodes), max_size=25)):
        matrix[pair] = draw(unit_weights)  # a == b gives a self pair
    for a, b in draw(st.lists(st.tuples(nodes, nodes), max_size=4)):
        matrix[(a, b)] = draw(unit_weights)
        matrix[(b, a)] = draw(unit_weights)
    start = draw(st.integers(1, 30))
    for k in range(draw(st.integers(0, 40))):
        link = (start + k, start + k + 1)
        if draw(st.booleans()):
            link = link[::-1]
        matrix[link] = draw(unit_weights)
    return matrix


@settings(max_examples=200)
@given(unit_matrices(), st.sampled_from((0, 1, 2, 3, 64)),
       st.sampled_from((0.0, 1.0, 2.0, 2.5)))
def test_build_units_matches_reference_oracle(matrix, cap, threshold):
    params = DstcParams(unit_link_threshold=threshold, max_unit_size=cap)
    expected = reference_build_units(DstcState(consolidated_matrix=dict(matrix)),
                                     params)
    state = DstcState(consolidated_matrix=dict(matrix))
    assert dstc_build_units(state, params) == expected
    assert state.clustering_units == expected


@pytest.mark.parametrize("cap", [64, 8, 0])
def test_dstc_run_units_match_reference_every_period(monkeypatch, cap):
    # the policy calls each phase through the module, so a wrapper sees
    # every period's consolidated matrix
    build_units = policies.dstc_build_units
    built = []

    def checked_build_units(state, params):
        expected = reference_build_units(
            DstcState(consolidated_matrix=dict(state.consolidated_matrix)), params)
        units = build_units(state, params)
        assert units == expected
        built.append(units)
        return units

    monkeypatch.setattr(policies, "dstc_build_units", checked_build_units)
    db = generate_database(GeneratorParams(nc=5, maxnref=4, no=400, seed=21))
    storage = place_sequential(db, StorageParams(buffer_pages=8))
    params = WorkloadParams(coldn=100, hotn=300, seed=5)
    policy = DstcPolicy(DstcParams(observation_period=50, max_unit_size=cap))
    run_protocol(db, storage, params, policy)
    assert len(built) == 8
    assert any(built)


# -- reorganization ------------------------------------------------------


def sized_db(count, size=3000, links=None):
    db = build_db([(1, links.get(oid, []) if links else []) for oid in range(1, count + 1)])
    for obj in db.objects:
        obj.size = size
    return db


def test_reorganize_without_units_is_identity():
    db = sized_db(6, size=100)
    storage = place_sequential(db, StorageParams())
    state = DstcState()
    placement = dstc_reorganize(state, storage)
    reads, writes = storage.rewrite_placement(placement)
    assert (reads, writes) == (0, 0)


def test_reorganize_coresides_unit_members():
    db = sized_db(4, size=1500)  # two objects per 4096-byte page
    storage = place_sequential(db, StorageParams())
    assert storage.placement[1][0] != storage.placement[4][0]
    state = DstcState()
    state.clustering_units = [[1, 4]]
    placement = dstc_reorganize(state, storage)
    storage.rewrite_placement(placement)
    assert storage.placement[1][0] == storage.placement[4][0]
    assert storage.overhead_reads > 0 and storage.overhead_writes > 0


def test_hierarchy_chain_workload_improves_after_reorganization():
    # a strided chain spreads consecutive hops over distinct pages; after
    # clustering, the hot chain collapses onto one page
    stride = 37
    count = 400
    links = {oid: [oid + stride] for oid in range(1, count - stride)}
    db = sized_db(count, size=400, links=links)
    storage = place_sequential(db, StorageParams(buffer_pages=2))
    params = WorkloadParams(coldn=30, hotn=30, phier=1.0, pset=0.0,
                            psimple=0.0, pstoch=0.0, hiedepth=5,
                            dist5=__import__("ocb.distributions", fromlist=["Constant"]).Constant(1),
                            seed=9)
    policy = DstcPolicy(DstcParams(observation_period=10, selection_threshold=1))
    log = run_protocol(db, storage, params, policy)
    assert log.reorgs, "expected at least one reorganization"
    first_cold = log.records[0].faults
    last_hot = log.records[-1].faults
    assert first_cold > 0
    assert last_hot <= first_cold


# -- policy wiring -------------------------------------------------------


def test_make_policy_names():
    assert isinstance(make_policy("none"), NoClustering)
    assert isinstance(make_policy("dstc"), DstcPolicy)
    with pytest.raises(ParameterError):
        make_policy("magic")


def test_policy_transparency_and_overhead_isolation():
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=60, seed=33))
    wl = WorkloadParams(coldn=40, hotn=40, seed=13)

    storage_none = place_sequential(db, StorageParams(buffer_pages=8))
    log_none = run_protocol(db, storage_none, wl, make_policy("none"))
    storage_dstc = place_sequential(db, StorageParams(buffer_pages=8))
    policy = DstcPolicy(DstcParams(observation_period=20))
    log_dstc = run_protocol(db, storage_dstc, wl, policy)

    # same transactions visit the same objects; only faults may differ
    semantic_none = [(r.type, r.root, r.direction, r.objects, r.distinct)
                     for r in log_none.records]
    semantic_dstc = [(r.type, r.root, r.direction, r.objects, r.distinct)
                     for r in log_dstc.records]
    assert semantic_none == semantic_dstc

    assert log_none.overhead_reads == 0 and log_none.overhead_writes == 0
    assert log_dstc.overhead_reads > 0 and log_dstc.overhead_writes > 0
    assert sum(r.faults for r in log_dstc.records) == log_dstc.transaction_reads


def test_dstc_policy_periods_and_trigger():
    policy = DstcPolicy(DstcParams(observation_period=5, reorganize_trigger=2))
    db = sized_db(4, size=100, links={1: [2], 2: [3]})
    storage = place_sequential(db, StorageParams())
    for tx in range(1, 21):
        policy.on_link_crossing(1, 0, 2)
        policy.on_link_crossing(2, 0, 3)
        policy.on_transaction_end()
        placement = policy.maybe_reorganize(storage)
        if tx % 10 == 0:
            assert placement is not None
            storage.rewrite_placement(placement)
        else:
            assert placement is None
