from collections import Counter
from itertools import chain, pairwise
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bfs_oracle,
    build_db,
    dfs_oracle,
    hierarchy_oracle,
    reference_build_units,
    stochastic_oracle,
)
from ocb.distributions import substream
from ocb import policies, workload
from ocb.errors import ParameterError, RunError
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
from ocb.workload import WorkloadParams, run_protocol, run_transaction


# a key base above every id the tests below put in a matrix by hand
BASE = 128


def encode(state, matrix):
    """Key a (source, target) matrix by `state`'s ints."""
    return {a * state.base + b: value for (a, b), value in matrix.items()}


def decode(state, matrix):
    """The (source, target)-keyed copy of one of `state`'s matrices, in order."""
    return {divmod(key, state.base): value for key, value in matrix.items()}


def reference_units(state, params):
    """reference_build_units on a decoded, tuple-keyed copy of `state`'s matrix."""
    copy = SimpleNamespace(consolidated_matrix=decode(state, state.consolidated_matrix))
    return reference_build_units(copy, params)


# -- observation ---------------------------------------------------------


def crossings_of(accessed, links, expanded):
    """One transaction's crossings, one pair each: every target of each
    expanded row, or, with none expanded, a path's consecutive pairs."""
    if not expanded:
        return list(pairwise(accessed))
    return [(a, t) for a in expanded for t in links[a]]


def observe_oracle(transactions):
    """Count each transaction's non-self crossings, one pair at a time."""
    counts = Counter()
    for transaction in transactions:
        for source, target in crossings_of(*transaction):
            if source != target:
                counts[source, target] += 1
    return counts


def selected(state):
    """The period's (source, target)-keyed counts, all kept: `dstc_select`
    at threshold 1 keeps every observed count, and clears the period."""
    filtered = dstc_select(state, DstcParams(selection_threshold=1))
    assert state.observation_matrix == {}
    assert not any(expanded for _links, expanded, _clean in state.expansions.values())
    return decode(state, filtered)


def test_observe_counts_crossings():
    state = DstcState()
    # one transaction: 1 crosses to 2 three times, over one row
    links = [(), (2, 2, 2), ()]
    dstc_observe(state, [1, 2, 2, 2], links, [1])
    assert state.base == 4  # the least power of two at or above 3 rows
    assert state.observation_matrix == Counter()  # rows are keyed at selection
    filtered = dstc_select(state, DstcParams(selection_threshold=1))
    assert filtered == {1 * 4 + 2: 3}
    assert decode(state, filtered) == {(1, 2): 3}


def test_observe_keeps_direction_and_skips_self_links():
    state = DstcState()
    links = [(), (2,), (1,), (), (), (5, 5, 1)]
    dstc_observe(state, [2, 1, 2, 5, 5], links, [])  # a path
    dstc_observe(state, [5, 5, 5, 1], links, [5])  # a row with self links
    assert selected(state) == {(2, 1): 1, (1, 2): 1, (2, 5): 1, (5, 1): 1}


@st.composite
def link_tables(draw, ids, size):
    """A link table of `size` + 1 rows over `ids`; row 0 is empty."""
    rows = draw(st.lists(st.lists(ids, max_size=4).map(tuple),
                         min_size=size, max_size=size))
    return [(), *rows]


@st.composite
def walks(draw, size):
    """One (accessed, links, expanded) transaction over ids 1..`size`, with
    a link table of its own of `size` + 1 rows: a path, which reads no row
    of it, or whole rows of it."""
    ids = st.integers(1, size)
    links = draw(link_tables(ids, size))
    if draw(st.booleans()):
        return draw(st.lists(ids, min_size=1, max_size=12)), links, []
    expanded = draw(st.lists(ids, min_size=1, max_size=6))
    return ([expanded[0], *chain.from_iterable(links[a] for a in expanded)],
            links, expanded)


@given(st.lists(walks(4), min_size=1, max_size=5))
def test_observe_matches_per_pair_oracle(transactions):
    # ids drawn from 1..4, so self-links are frequent
    state = DstcState()
    for transaction in transactions:
        dstc_observe(state, *transaction)
    assert state.base == 8  # fixed by the first table's 5 rows
    assert selected(state) == observe_oracle(transactions)


def test_observe_fixes_base_once_and_rejects_a_longer_table():
    state = DstcState()
    dstc_observe(state, [1, 2], [(), (2,), (), ()], [])  # ids 1..3
    assert state.base == 4
    dstc_observe(state, [2, 1], [(), (), (1,)], [])  # a shorter table fits
    assert state.base == 4
    with pytest.raises(RunError, match="key base 4"):
        dstc_observe(state, [4, 1], [(), (), (), (), (1,)], [4])
    assert state.base == 4
    assert decode(state, state.observation_matrix) == {(1, 2): 1, (2, 1): 1}


def test_dstc_run_on_a_preset_sized_database_fixes_base_at_2_15():
    db = generate_database(GeneratorParams(seed=1))
    assert len(db.objects) == 20_000
    storage = place_sequential(db, StorageParams())
    policy = DstcPolicy(DstcParams(observation_period=10, selection_threshold=1))
    params = WorkloadParams(coldn=10, hotn=20, seed=2, reverse_probability=0.5)
    log = run_protocol(db, storage, params, policy)
    assert log.reorgs
    assert policy.state.base == 32768
    assert max(policy.state.consolidated_matrix) < 2 ** 30


def test_observe_matches_recount_oracle():
    db = generate_database(GeneratorParams(nc=3, maxnref=3, no=30, seed=15))
    storage = place_sequential(db, StorageParams())
    transactions = []

    class Recorder(NoClustering):
        def on_link_crossing(self, accessed, links, expanded):
            transactions.append((list(accessed), links, list(expanded)))

    recorder = Recorder()
    params = WorkloadParams(coldn=10, hotn=10, seed=3)
    run_protocol(db, storage, params, recorder)
    assert len(transactions) == 20

    state = DstcState()
    for transaction in transactions:
        dstc_observe(state, *transaction)
    assert selected(state) == observe_oracle(transactions)


KINDS = ("set", "simple", "hierarchy", "stochastic")
DIRECTIONS = ("forward", "reverse")


def oracle_crossings(db, kind, root, direction, params, rng):
    """The crossings of one transaction, from the brute-force traversal oracles."""
    events = []
    if kind == "set":
        bfs_oracle(db, root, params.setdepth, direction, events)
    elif kind == "simple":
        dfs_oracle(db, root, params.simdepth, direction, events)
    elif kind == "hierarchy":
        hierarchy_oracle(db, root, params.hiedepth, params.hierarchy_ref_type,
                         direction, events)
    else:
        stochastic_oracle(db, root, params.stodepth, rng, direction, events)
    return [event[1:] for event in events if event[0] == "cross"]


@st.composite
def flush_periods(draw):
    """A database and one period's (kind, direction, root) stream over it.

    Ids 1..small link only among themselves, and object 1 links to itself;
    ids small+1..top, all above 16, link only among themselves. The period
    runs every kind in both directions among the small ids first, so their
    rows are recorded before any walk reaches an id above 16, then roots at
    the large ids."""
    small = draw(st.integers(3, 10))
    top = draw(st.integers(17, 40))

    def slots(ids):
        return st.lists(ids.map(lambda t: t or None), min_size=3, max_size=3)

    specs = [(1, [1, *draw(slots(st.integers(0, small)))[1:]])]
    specs += [(1, draw(slots(st.integers(0, small)))) for _ in range(2, small + 1)]
    specs += [(1, draw(slots(st.integers(small + 1, top) | st.just(0))))
              for _ in range(small + 1, top + 1)]
    db = build_db(specs, class_trefs=[[1, 2, 1]], nreft=2)
    roots = st.integers(1, small)
    early = [(kind, direction, draw(roots)) for kind in KINDS for direction in DIRECTIONS]
    early += draw(st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(DIRECTIONS),
                                     roots), min_size=4, max_size=12))
    late = draw(st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(DIRECTIONS),
                                   st.integers(17, top)), min_size=2, max_size=8))
    return db, draw(st.permutations(early)), late


@settings(max_examples=100)
@given(flush_periods(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000))
def test_period_flush_matches_per_crossing_oracle(period, depth, stodepth, seed):
    db, early, late = period
    params = WorkloadParams(setdepth=depth, simdepth=depth, hiedepth=depth + 1,
                            stodepth=stodepth, hierarchy_ref_type=1)
    state = DstcState()
    transactions = []
    for step, (kind, direction, root) in enumerate(early + late):
        if step == len(early):
            # every kind ran in both directions, and each table walk
            # expands its root: all four tables hold rows
            assert len(state.expansions) == 4
        label = f"flush-{step}"
        transaction = run_transaction(db, params, kind, root, direction,
                                      substream(seed, label))
        assert Counter(crossings_of(*transaction)) == Counter(
            oracle_crossings(db, kind, root, direction, params, substream(seed, label)))
        dstc_observe(state, *transaction)
        transactions.append(transaction)
    # fixed by the first walk's table, one row per object plus row 0
    assert state.base == 1 << len(db.objects).bit_length()
    assert selected(state) == observe_oracle(transactions)
# -- selection -----------------------------------------------------------


def test_select_drops_below_threshold_and_clears():
    state = DstcState(base=BASE)
    state.observation_matrix = Counter(encode(state, {(1, 2): 3, (3, 4): 1}))
    filtered = dstc_select(state, DstcParams(selection_threshold=2))
    assert decode(state, filtered) == {(1, 2): 3}
    assert state.observation_matrix == {}


def test_select_threshold_zero_is_identity():
    state = DstcState(base=BASE)
    state.observation_matrix = Counter(encode(state, {(1, 2): 1, (8, 9): 4}))
    filtered = dstc_select(state, DstcParams(selection_threshold=0))
    assert decode(state, filtered) == {(1, 2): 1, (8, 9): 4}


@given(st.dictionaries(
    st.tuples(st.integers(1, 30), st.integers(1, 30)).filter(lambda p: p[0] != p[1]),
    st.integers(1, 10), min_size=1, max_size=20),
    st.integers(0, 5))
def test_select_matches_filter_oracle(matrix, threshold):
    state = DstcState(base=BASE)
    state.observation_matrix = Counter(encode(state, matrix))
    filtered = dstc_select(state, DstcParams(selection_threshold=threshold))
    assert decode(state, filtered) == {p: c for p, c in matrix.items() if c >= threshold}


@st.composite
def selection_periods(draw):
    """Two periods of transactions over a full link table and a hierarchy
    table that keeps some of each full row's links, ids 1..size.

    Row 1 repeats a target and row 2 links to itself. Each period walks
    both tables over the same expanded ids at least once, and paths that
    mostly follow full-table links, so their pairs land on row keys."""
    size = draw(st.integers(3, 12))
    ids = st.integers(1, size)
    full = [(), *(tuple(draw(st.lists(ids, min_size=1, max_size=5))) for _ in range(size))]
    full[1] += full[1][:1]
    full[2] += (2,)
    hierarchy = [tuple(t for t in row if draw(st.booleans())) for row in full]

    def walk(links, expanded):
        return [*expanded, *chain.from_iterable(links[a] for a in expanded)], links, expanded

    def path():
        accessed = [draw(ids)]
        for _ in range(draw(st.integers(1, 6))):
            row = full[accessed[-1]]
            accessed.append(draw(st.sampled_from(row) if draw(st.integers(0, 3)) else ids))
        return accessed, full, []

    def transaction():
        kind = draw(st.sampled_from((full, hierarchy, None)))
        if kind is None:
            return path()
        return walk(kind, draw(st.lists(ids, min_size=1, max_size=6)))

    def period(min_size):
        shared = draw(st.lists(ids, min_size=1, max_size=6))
        transactions = [walk(full, shared), walk(hierarchy, shared),
                        *(transaction() for _ in range(draw(st.integers(min_size, 10))))]
        return draw(st.permutations(transactions))

    return [period(3), period(1)]


@settings(max_examples=100)
@given(selection_periods())
def test_select_matches_per_crossing_oracle(periods):
    for threshold in (0, 1, 2, 2.5, 3):
        params = DstcParams(selection_threshold=threshold)
        state = DstcState()
        for period in periods:
            for transaction in period:
                dstc_observe(state, *transaction)
            filtered = dstc_select(state, params)
            assert decode(state, filtered) == {
                pair: count for pair, count in observe_oracle(period).items()
                if count >= threshold}
            assert all(type(count) is int for count in filtered.values())
            assert state.observation_matrix == {}
            assert not any(expanded for _links, expanded, _clean
                           in state.expansions.values())


# -- consolidation -------------------------------------------------------


def test_consolidate_weight_one_replaces():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 9.0, (3, 4): 1.0})
    dstc_consolidate(state, encode(state, {(1, 2): 4}), DstcParams(consolidation_weight=1.0))
    assert decode(state, state.consolidated_matrix) == {(1, 2): 4.0}


def test_consolidate_weight_zero_keeps_old():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 9.0})
    dstc_consolidate(state, encode(state, {(1, 2): 4, (5, 6): 7}),
                     DstcParams(consolidation_weight=0.0))
    assert decode(state, state.consolidated_matrix) == {(1, 2): 9.0}


def test_consolidate_two_periods_hand_computed():
    # pair seen 4 then 2 with w = 0.5: weight 2.0 after both periods
    state = DstcState(base=BASE)
    params = DstcParams(consolidation_weight=0.5)
    dstc_consolidate(state, encode(state, {(1, 2): 4}), params)
    assert decode(state, state.consolidated_matrix)[1, 2] == pytest.approx(2.0)
    dstc_consolidate(state, encode(state, {(1, 2): 2}), params)
    assert decode(state, state.consolidated_matrix)[1, 2] == pytest.approx(2.0)


def test_consolidate_absent_pairs_decay():
    state = DstcState(base=BASE)
    params = DstcParams(consolidation_weight=0.5)
    dstc_consolidate(state, encode(state, {(1, 2): 8}), params)
    dstc_consolidate(state, {}, params)
    assert decode(state, state.consolidated_matrix)[1, 2] == pytest.approx(2.0)


# a period may be empty, but not every period: an all-empty run checks nothing
@given(st.lists(st.dictionaries(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda p: p[0] != p[1]),
    st.integers(0, 20), max_size=6), min_size=1, max_size=6).filter(any),
    st.floats(0.05, 0.95))
def test_consolidation_matches_closed_form(periods, weight):
    state = DstcState(base=BASE)
    params = DstcParams(consolidation_weight=weight)
    for filtered in periods:
        dstc_consolidate(state, encode(state, filtered), params)
    consolidated = decode(state, state.consolidated_matrix)
    pairs = {p for filtered in periods for p in filtered}
    assert consolidated.keys() <= pairs
    k = len(periods)
    for pair in pairs:
        expected = sum(weight * (1 - weight) ** (k - 1 - i) * periods[i].get(pair, 0)
                       for i in range(k))
        got = consolidated.get(pair, 0.0)
        assert got == pytest.approx(expected, abs=1e-9)


# -- unit building -------------------------------------------------------


def test_build_units_greedy_example():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 5.0, (2, 3): 4.0})
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0))
    assert units == [[1, 2, 3]]


def test_build_units_below_threshold_empty():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 0.5, (3, 4): 0.9})
    assert dstc_build_units(state, DstcParams(unit_link_threshold=1.0)) == []


def test_build_units_disjoint_pairs_two_units():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 5.0, (3, 4): 4.0})
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0))
    assert units == [[1, 2], [3, 4]]


def test_build_units_respects_capacity():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, k): 5.0 for k in range(2, 12)})
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0,
                                               max_unit_size=4))
    assert len(units[0]) == 4
    members = [m for u in units for m in u]
    assert len(members) == len(set(members))


def test_build_units_unbounded_covers_component():
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, {(1, 2): 5.0, (3, 2): 4.0, (3, 4): 3.0})
    units = dstc_build_units(state, DstcParams(unit_link_threshold=1.0,
                                               max_unit_size=0))
    assert len(units) == 1
    assert sorted(units[0]) == [1, 2, 3, 4]


@given(st.dictionaries(
    st.tuples(st.integers(1, 25), st.integers(1, 25)).filter(lambda p: p[0] != p[1]),
    st.floats(0.1, 9.0), min_size=3, max_size=30))
def test_build_units_disjoint_and_deterministic(matrix):
    state_a = DstcState(base=BASE)
    state_a.consolidated_matrix = encode(state_a, matrix)
    state_b = DstcState(base=BASE)
    state_b.consolidated_matrix = encode(state_b, dict(reversed(list(matrix.items()))))
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
    expected = reference_build_units(SimpleNamespace(consolidated_matrix=dict(matrix)),
                                     params)
    state = DstcState(base=BASE)
    state.consolidated_matrix = encode(state, matrix)
    assert dstc_build_units(state, params) == expected
    assert state.clustering_units == expected


# cap 1 keeps no unit at all, so it is left out here
@given(unit_matrices(), st.sampled_from((0, 2, 3, 64)),
       st.sampled_from((0.0, 1.0, 2.0, 2.5)), st.integers(1, 40))
def test_build_units_independent_of_base(matrix, cap, threshold, extra_bits):
    params = DstcParams(unit_link_threshold=threshold, max_unit_size=cap)
    # the least power of two above every id, and that times 2**extra_bits
    narrow = DstcState(base=1 << max(chain.from_iterable(matrix), default=0).bit_length())
    narrow.consolidated_matrix = encode(narrow, matrix)
    wide = DstcState(base=narrow.base << extra_bits)
    wide.consolidated_matrix = encode(wide, matrix)
    units = dstc_build_units(narrow, params)
    assert dstc_build_units(wide, params) == units
    assert units == reference_build_units(SimpleNamespace(consolidated_matrix=dict(matrix)),
                                          params)


@pytest.mark.parametrize("cap", [64, 0])
def test_build_units_on_sparse_ids(cap):
    # one heavy edge between ids 3 and 2**20 - 1 under a base of 2**40:
    # lists sized by base, not by the largest id, could not be allocated
    matrix = {(3, 2 ** 20 - 1): 5.0}
    params = DstcParams(max_unit_size=cap)
    state = DstcState(base=2 ** 40)
    state.consolidated_matrix = encode(state, matrix)
    units = dstc_build_units(state, params)
    assert units == reference_build_units(SimpleNamespace(consolidated_matrix=matrix), params)
    assert units == [[3, 2 ** 20 - 1]]


@pytest.mark.parametrize("cap", [64, 0])
def test_rebase_past_one_digit_keys(cap):
    # a chain walked first among small ids, then across 2**15 and up to 2**20,
    # under a base fixed at 2**21 as a database of 2**20 objects would fix it
    params = DstcParams(selection_threshold=1, max_unit_size=cap)
    # the small chain is walked as rows of a link table, the large one as a
    # path, which reads no row of its table
    small = list(range(1, 40))
    chain_links = [(), *((oid + 1,) for oid in small[:-1]), ()]
    large = [2 ** 15 - 3, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 7, 70_000, 2 ** 20]
    stream = [(small, chain_links, small[:-1])] * 2 + [(large, chain_links, [])] * 2
    state = DstcState(base=2 ** 21)
    built = []
    for start in (0, 2):  # two periods of two transactions each
        period = stream[start:start + 2]
        for transaction in period:
            dstc_observe(state, *transaction)
        filtered = dstc_select(state, params)  # threshold 1 keeps every count
        assert decode(state, filtered) == observe_oracle(period)
        dstc_consolidate(state, filtered, params)
        expected = reference_units(state, params)
        assert dstc_build_units(state, params) == expected
        built.append(expected)
    assert state.base == 2 ** 21
    assert max(state.consolidated_matrix) >= 2 ** 30  # past one-digit ints
    # the small chain decays below the unit threshold in the second period
    assert built == [[small], [large]]


def test_build_units_matches_reference_on_a_preset_sized_period():
    # the first period of a default-sized run: 80 088 consolidated pairs,
    # with climbs of up to thousands of steps; cap 8, whose oracle takes
    # seconds here, is pinned end to end in test_config_cli instead
    db = generate_database(GeneratorParams(seed=1))
    assert len(db.objects) == 20_000
    storage = place_sequential(db, StorageParams())
    policy = DstcPolicy()
    run_protocol(db, storage, WorkloadParams(coldn=1000, hotn=0, seed=1), policy)
    state = policy.state
    assert len(state.consolidated_matrix) == 80_088
    for cap in (64, 0):
        params = DstcParams(max_unit_size=cap)
        assert dstc_build_units(state, params) == reference_units(state, params)


@pytest.mark.parametrize("cap", [64, 8, 0])
def test_dstc_run_units_match_reference_every_period(monkeypatch, cap):
    # the policy calls each phase through the module, so a wrapper sees
    # every period's consolidated matrix
    build_units = policies.dstc_build_units
    built = []

    def checked_build_units(state, params):
        expected = reference_units(state, params)
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
    # a strided chain spreads consecutive hops over different pages; after
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
    assert not isinstance(make_policy("dstc"), NoClustering)
    with pytest.raises(ParameterError):
        make_policy("magic")


def test_policy_overhead_isolation():
    # that both runs log the same transactions is
    # tests/test_workload.py::test_the_replay_logs_the_stream_under_every_placement_and_policy
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=60, seed=33))
    wl = WorkloadParams(coldn=40, hotn=40, seed=13)

    storage_none = place_sequential(db, StorageParams(buffer_pages=8))
    log_none = run_protocol(db, storage_none, wl, make_policy("none"))
    storage_dstc = place_sequential(db, StorageParams(buffer_pages=8))
    policy = DstcPolicy(DstcParams(observation_period=20))
    log_dstc = run_protocol(db, storage_dstc, wl, policy)

    assert log_none.overhead_reads == 0 and log_none.overhead_writes == 0
    assert log_dstc.overhead_reads > 0 and log_dstc.overhead_writes > 0
    # the log's totals are its own sums; the storages counted the same I/O apart
    assert (storage_none.overhead_reads, storage_none.overhead_writes) == (0, 0)
    assert (log_dstc.overhead_reads, log_dstc.overhead_writes) == (
        storage_dstc.overhead_reads, storage_dstc.overhead_writes)
    assert sum(r.faults for r in log_dstc.records) == storage_dstc.transaction_reads


def test_dstc_policy_periods_and_trigger():
    policy = DstcPolicy(DstcParams(observation_period=5, reorganize_trigger=2))
    db = sized_db(4, size=100, links={1: [2], 2: [3]})
    storage = place_sequential(db, StorageParams())
    for tx in range(1, 21):
        policy.on_link_crossing([1, 2, 3], db.link_table(), [1, 2])
        policy.on_transaction_end()
        placement = policy.maybe_reorganize(storage)
        if tx % 10 == 0:
            assert placement is not None
            storage.rewrite_placement(placement)
        else:
            assert placement is None


def test_protocol_calls_the_phases_through_the_module_globals(monkeypatch):
    # a layered profile wraps exactly these names; a run that bypassed one
    # would leave its wrapper with no calls and no time
    calls = Counter()
    events = []

    def count_calls(module, name):
        function = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            events.append(name)
            return function(*args)

        monkeypatch.setattr(module, name, counted)

    for name in ("dstc_select", "dstc_consolidate", "dstc_build_units", "dstc_reorganize"):
        count_calls(policies, name)
    count_calls(workload, "run_transaction")
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=120, seed=8))
    storage = place_sequential(db, StorageParams(buffer_pages=4))
    access, rewrite = storage.access_object, storage.rewrite_placement

    def counted_access(oid):
        events.append("access_object")
        return access(oid)

    def counted_rewrite(placement):
        events.append("rewrite_placement")
        return rewrite(placement)

    storage.access_object, storage.rewrite_placement = counted_access, counted_rewrite
    policy = DstcPolicy(DstcParams(observation_period=10))
    log = run_protocol(db, storage, WorkloadParams(coldn=20, hotn=30, seed=4), policy)
    assert len(log.records) == 50 and log.reorgs
    periods = len(log.records) // 10
    assert calls == {"dstc_select": periods, "dstc_consolidate": periods,
                     "dstc_build_units": periods, "dstc_reorganize": len(log.reorgs),
                     "run_transaction": len(log.records)}
    # the stream walks one transaction at a time: each walk's accesses, and
    # the rewrite its period may end in, come before the next walk, so a
    # profile attributes both to the last `run_transaction` call
    rewritten = {reorg.after_index for reorg in log.reorgs}
    expected = []
    for record in log.records:
        expected += (["run_transaction"] + ["access_object"] * record.objects
                     + ["rewrite_placement"] * (record.index in rewritten))
    replay = ("run_transaction", "access_object", "rewrite_placement")
    assert [event for event in events if event in replay] == expected
