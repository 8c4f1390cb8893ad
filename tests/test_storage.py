import hashlib
import json
import random
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    build_db,
    first_fit_oracle,
    lru_oracle,
    placement_valid_oracle,
    reference_pack_order,
    reference_placement_error,
)
from ocb.cli import main
from ocb.errors import PlacementError
from ocb.generator import GeneratorParams, generate_database
from ocb.policies import make_policy
from ocb.storage import Placement, StorageParams, StorageState, place_sequential
from ocb.workload import WorkloadParams, run_protocol


def sized_db(sizes):
    db = build_db([(1, []) for _ in sizes])
    for obj, size in zip(db.objects, sizes):
        obj.size = size
    return db


def flat_db(count, size=100):
    return sized_db([size] * count)


def test_small_objects_share_page_zero():
    state = place_sequential(flat_db(10, 100), StorageParams())
    assert all(page == 0 for page, _ in state.placement.values())
    assert {p for oid in state.placement for p in state.pages_of(oid)} == {0}


def test_two_big_objects_split_pages():
    state = place_sequential(flat_db(2, 3000), StorageParams())
    assert state.placement[1] == (0, 0)
    assert state.placement[2][0] == 1
    assert {p for oid in state.placement for p in state.pages_of(oid)} == {0, 1}


def test_default_database_packs_like_oracle():
    db = generate_database(GeneratorParams(seed=23))
    params = StorageParams()
    state = place_sequential(db, params)
    sizes = {o.id: o.size for o in db.objects}
    oracle = first_fit_oracle([o.id for o in db.objects], sizes, params.page_size)
    assert state.placement == oracle
    fill = {}
    for oid in state.placement:
        for page in state.pages_of(oid):
            fill[page] = fill.get(page, 0) + sizes[oid]
    assert all(used <= params.page_size for used in fill.values())


def test_oversized_object_gets_dedicated_run():
    db = flat_db(3, 100)
    db.objects[1].size = 5000  # needs two pages
    state = place_sequential(db, StorageParams())
    assert list(state.pages_of(2)) == [state.placement[2][0],
                                       state.placement[2][0] + 1]
    run_pages = set(state.pages_of(2))
    for oid in (1, 3):
        assert state.placement[oid][0] not in run_pages
    # both pages of the run fault on access
    assert state.access_object(2) is True
    assert state.transaction_reads == 2


def test_oversized_object_error_when_spanning_disabled():
    db = flat_db(1, 5000)
    with pytest.raises(PlacementError):
        place_sequential(db, StorageParams(spanning=False))


def test_cold_then_warm_access():
    state = place_sequential(flat_db(5), StorageParams(buffer_pages=4))
    assert state.access_object(1) is True
    assert state.transaction_reads == 1
    assert state.access_object(1) is False
    assert state.transaction_reads == 1


def test_unknown_object_raises():
    state = place_sequential(sized_db([100, 5000, 3000]), StorageParams(buffer_pages=2))
    for oid in (1, 2, 3):
        state.access_object(oid)
    before = (state.transaction_reads, state.objects_accessed,
              state.overhead_reads, state.overhead_writes, list(state._buffer))
    # ids past the last, below the first (-1 would index the page map's
    # tail) and of another type
    for oid in (99, 4, 0, -1, "1"):
        with pytest.raises(KeyError) as raised:
            state.access_object(oid)
        assert raised.value.args == (f"unknown object id {oid}",)
        assert (state.transaction_reads, state.objects_accessed,
                state.overhead_reads, state.overhead_writes,
                list(state._buffer)) == before


# the placement's lists are indexed by id, so a huge id would size them
@pytest.mark.parametrize("sizes", [{0: 10}, {2: 10}, {1: 10, 3: 10},
                                   {1: 10, 2: 10, 10**12: 10}])
def test_object_ids_must_run_from_one_without_gaps(sizes):
    with pytest.raises(PlacementError, match="object ids must be 1.."):
        StorageState(StorageParams(), sizes)


def test_alternating_two_pages_thrash():
    db = flat_db(2, 3000)  # one object per page
    state = place_sequential(db, StorageParams(buffer_pages=1))
    n = 25
    for _ in range(n):
        assert state.access_object(1) is True
        assert state.access_object(2) is True
    assert state.transaction_reads == 2 * n


@pytest.mark.parametrize("k", [1, 3, 7])
def test_lru_cycle_faults_only_first_round(k):
    db = flat_db(k, 3000)
    state = place_sequential(db, StorageParams(buffer_pages=k))
    for oid in range(1, k + 1):
        assert state.access_object(oid) is True
    for _round in range(3):
        for oid in range(1, k + 1):
            assert state.access_object(oid) is False
    assert state.transaction_reads == k


def frame_bound(sizes, page_size, buffer_pages):
    """Frames of an always-full buffer: buffer_pages, or fewer when no
    placement of these objects can occupy that many pages."""
    return min(buffer_pages, sum(max(1, -(-size // page_size)) for size in sizes))


def assert_buffer_holds(state, pages, frames):
    """The buffer holds `pages`, least recent first, behind sentinels only."""
    buffer = list(state._buffer)
    assert len(buffer) == frames
    assert buffer[len(buffer) - len(pages):] == pages
    assert all(entry < 0 for entry in buffer[:len(buffer) - len(pages)])


def test_buffer_never_exceeds_capacity():
    # 20 one-page objects: the frame bound binds above 20 buffer pages
    for buffer_pages in (1, 5, 20, 30):
        state = place_sequential(flat_db(20, 3000), StorageParams(buffer_pages=buffer_pages))
        frames = frame_bound([3000] * 20, 4096, buffer_pages)
        reversed_order = state.pack_order(list(range(20, 0, -1)))
        for step in (3, 1, 4, 1, 5, 9, 2, 6, reversed_order, 5, 3, 5, 8, 9, 7, 9):
            if isinstance(step, Mapping):
                state.rewrite_placement(step)
            else:
                state.access_object(step)
            assert len(state._buffer) == frames
            assert sum(page >= 0 for page in state._buffer) <= buffer_pages


def test_identity_rewrite_costs_nothing():
    state = place_sequential(flat_db(8), StorageParams())
    reads, writes = state.rewrite_placement(dict(state.placement))
    assert (reads, writes) == (0, 0)
    assert state.overhead_reads == 0 and state.overhead_writes == 0


def test_single_move_counts_read_and_write():
    db = flat_db(2, 3000)
    state = place_sequential(db, StorageParams())
    new_placement = dict(state.placement)
    new_placement[2] = (2, 0)
    reads, writes = state.rewrite_placement(new_placement)
    assert reads >= 1 and writes >= 1
    assert state.overhead_reads == reads and state.overhead_writes == writes


def test_full_reorganization_matches_move_plan_oracle():
    db = generate_database(GeneratorParams(nc=5, maxnref=2, no=400, seed=31))
    state = place_sequential(db, StorageParams())
    old_placement = dict(state.placement)
    order = sorted(old_placement, key=lambda oid: -oid)  # reverse id order
    new_placement = state.pack_order(order)
    reads, writes = state.rewrite_placement(new_placement)
    moved = [oid for oid in old_placement if old_placement[oid] != new_placement[oid]]
    assert reads == len({old_placement[m][0] for m in moved})
    assert writes == len({new_placement[m][0] for m in moved})


def test_rewrite_invalidates_moved_pages():
    db = flat_db(2, 3000)
    state = place_sequential(db, StorageParams())
    state.access_object(1)
    state.access_object(2)
    new_placement = {1: (0, 0), 2: (5, 0)}
    state.rewrite_placement(new_placement)
    assert state.access_object(2) is True  # page 5 was never buffered
    assert state.access_object(1) is False  # page 0 untouched by the move


def test_counter_separation():
    db = flat_db(4, 3000)
    state = place_sequential(db, StorageParams(buffer_pages=2))
    state.access_object(1)
    assert (state.overhead_reads, state.overhead_writes) == (0, 0)
    tx_before = state.transaction_reads
    new_placement = dict(state.placement)
    new_placement[3], new_placement[4] = new_placement[4], new_placement[3]
    state.rewrite_placement(new_placement)
    assert state.transaction_reads == tx_before
    assert state.overhead_reads > 0 and state.overhead_writes > 0
    overhead = (state.overhead_reads, state.overhead_writes)
    state.access_object(2)
    assert state.transaction_reads == tx_before + 1
    assert (state.overhead_reads, state.overhead_writes) == overhead


def test_rewrite_rejects_partial_or_overfull_placements():
    state = place_sequential(flat_db(3, 100), StorageParams())
    with pytest.raises(PlacementError):
        state.rewrite_placement({1: (0, 0)})
    overfull = {1: (0, 0), 2: (0, 4000), 3: (1, 0)}
    with pytest.raises(PlacementError):
        state.rewrite_placement(overfull)
    # a page run must start at offset 0 of its first page
    state = place_sequential(sized_db([10, 10, 250]), StorageParams(page_size=100))
    with pytest.raises(PlacementError, match="oversized object 3"):
        state.rewrite_placement({1: (0, 0), 2: (0, 10), 3: (1, 40)})
    assert (state.overhead_reads, state.overhead_writes) == (0, 0)
    # objects may not overlap, start before their page or lie before page 0
    state.access_object(1)
    state.access_object(3)
    before = (state.transaction_reads, state.overhead_reads, state.overhead_writes,
              list(state._buffer))
    for placement, message in [
            ({1: (0, 0), 2: (0, 5), 3: (1, 0)}, "overlap from offset 5 of page 0"),
            ({1: (0, -5), 2: (0, 10), 3: (1, 0)}, "object 1 .* offset -5 of page 0"),
            ({1: (-3, 0), 2: (0, 10), 3: (1, 0)}, "object 1 .* offset 0 of page -3"),
            # a page run takes its whole last page, not just its object's bytes
            ({1: (0, 0), 2: (3, 60), 3: (1, 0)}, "overlap from offset 60 of page 3")]:
        with pytest.raises(PlacementError, match=message):
            state.rewrite_placement(placement)
        assert (state.transaction_reads, state.overhead_reads, state.overhead_writes,
                list(state._buffer)) == before


# a handful of objects on tiny pages, so positions often collide; pages
# from -1 and offsets from -1 to the page size, sizes up to two pages
@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_rewrite_accepts_exactly_the_placements_the_byte_oracle_accepts(page_size, data):
    sizes = data.draw(st.lists(st.integers(0, 2 * page_size), min_size=1, max_size=5),
                      label="sizes")
    state = place_sequential(sized_db(sizes), StorageParams(page_size=page_size))
    placement = {oid: data.draw(st.tuples(st.integers(-1, 4), st.integers(-1, page_size)),
                                label=f"object {oid}")
                 for oid in range(1, len(sizes) + 1)}
    by_id = dict(enumerate(sizes, start=1))
    valid = placement_valid_oracle(placement, by_id, page_size)
    message = reference_placement_error(placement, by_id, page_size)
    assert (message is None) == valid
    if valid:
        state.rewrite_placement(placement)
        assert state.placement == placement
    else:
        with pytest.raises(PlacementError) as exc:
            state.rewrite_placement(placement)
        assert str(exc.value) == message


def test_simulated_time_is_monotone_in_counters():
    params = StorageParams(io_cost=2.0, cpu_cost=0.5)
    state = place_sequential(flat_db(3, 3000), StorageParams(
        page_size=4096, buffer_pages=2, io_cost=2.0, cpu_cost=0.5))
    state.access_object(1)
    time_one = state.transaction_reads * params.io_cost + state.objects_accessed * params.cpu_cost
    state.access_object(2)
    time_two = state.transaction_reads * params.io_cost + state.objects_accessed * params.cpu_cost
    assert time_two > time_one


# one to three objects are the hand-made cases above; here they were a
# tenth of the draws
@given(st.lists(st.integers(1, 400), min_size=4, max_size=60),
       st.integers(1, 6), st.data())
def test_random_packings_match_oracle(sizes, page_scale, data):
    page_size = 128 * page_scale
    db = build_db([(1, []) for _ in sizes])
    for obj, size in zip(db.objects, sizes):
        obj.size = size
    state = place_sequential(db, StorageParams(page_size=page_size))
    by_id = {o.id: o.size for o in db.objects}
    oracle = first_fit_oracle(list(by_id), by_id, page_size)
    assert state.placement == oracle
    # so does a shuffled subset of the objects, as a rewrite may pack
    order = data.draw(st.permutations(list(by_id)), label="order")[:data.draw(
        st.integers(0, len(by_id)), label="subset")]
    assert dict(state.pack_order(order)) == first_fit_oracle(order, by_id, page_size)


# page sizes from one byte up; each object is empty, a page multiple, fits
# a page or spans a run of pages
@settings(max_examples=300)
@given(st.sampled_from([1, 2, 3, 7, 64, 4096]), st.data())
def test_packing_places_as_before_zero_sizes_were_handled(page_size, data):
    sizes = data.draw(st.lists(st.one_of(
        st.just(0),
        st.integers(1, 4).map(lambda k: k * page_size),
        st.integers(0, page_size),
        st.integers(page_size + 1, 3 * page_size)), min_size=1, max_size=40),
        label="sizes")
    state = place_sequential(sized_db(sizes), StorageParams(page_size=page_size))
    ids = list(range(1, len(sizes) + 1))
    assert state.placement == reference_pack_order(state, ids)
    # a shuffled subset of the objects, as a rewrite may pack
    order = data.draw(st.permutations(ids), label="order")[:data.draw(
        st.integers(0, len(ids)), label="subset")]
    packed = state.pack_order(order)
    assert packed == reference_pack_order(state, order)
    # it places the order's objects, in its order, and no others
    assert list(packed) == order and len(packed) == len(order)
    for oid in set(ids) - set(order):
        assert oid not in packed
        with pytest.raises(KeyError):
            packed[oid]


PAGE = 128
# object sizes: at most four share a page, some span a run of two to four pages
object_sizes = st.lists(st.one_of(st.integers(PAGE // 4, PAGE),
                                  st.integers(PAGE + 1, 4 * PAGE)),
                        min_size=3, max_size=25)


# up to 25 objects occupy at most 100 pages, so the frame bound often binds
@settings(max_examples=200)
@given(object_sizes, st.integers(1, 64), st.data())
def test_access_matches_lru_oracle_across_rewrites(sizes, buffer_pages, data):
    state = place_sequential(sized_db(sizes), StorageParams(page_size=PAGE,
                                                            buffer_pages=buffer_pages))
    ids = list(range(1, len(sizes) + 1))
    steps = data.draw(st.lists(st.sampled_from(ids), min_size=10, max_size=80))
    # rewrites to the first-fit packing of a shuffled order, between accesses
    rewrites = data.draw(st.lists(st.tuples(st.integers(0, len(steps)),
                                            st.permutations(ids)),
                                  min_size=1, max_size=3))
    for position, order in sorted(rewrites, key=lambda r: r[0], reverse=True):
        steps.insert(position, order)
    initial = state.placement
    oracle_steps = []
    faults = []
    rewrite_io = []
    for step in steps:
        if isinstance(step, list):
            placement = state.pack_order(step)
            rewrite_io.append(state.rewrite_placement(placement))
            oracle_steps.append(placement)
        else:
            faults.append(state.access_object(step))
            oracle_steps.append(step)
    reads, oracle_rewrite_io, buffer = lru_oracle(
        initial, dict(zip(ids, sizes)), PAGE, buffer_pages, oracle_steps)
    assert faults == [count > 0 for count in reads]
    assert state.transaction_reads == sum(reads)
    assert state.objects_accessed == len(reads)
    assert rewrite_io == oracle_rewrite_io
    assert state.overhead_reads == sum(r for r, _w in rewrite_io)
    assert state.overhead_writes == sum(w for _r, w in rewrite_io)
    assert_buffer_holds(state, buffer, frame_bound(sizes, PAGE, buffer_pages))


# a rewrite to a dict takes the path of a rewrite to the equal Placement
@given(object_sizes, st.integers(1, 8), st.data())
def test_a_dict_rewrites_as_the_equal_placement(sizes, buffer_pages, data):
    ids = list(range(1, len(sizes) + 1))
    params = StorageParams(page_size=PAGE, buffer_pages=buffer_pages)
    before, after = (data.draw(st.lists(st.sampled_from(ids), max_size=30), label=label)
                     for label in ("before", "after"))
    order = data.draw(st.permutations(ids), label="order")
    states = []
    for as_dict in (False, True):
        state = place_sequential(sized_db(sizes), params)
        for oid in before:
            state.access_object(oid)
        placement = state.pack_order(order)
        assert isinstance(placement, Placement)
        io = state.rewrite_placement(dict(placement) if as_dict else placement)
        faults = [state.access_object(oid) for oid in after]
        states.append((io, faults, state.transaction_reads, state.objects_accessed,
                       state.overhead_reads, state.overhead_writes, list(state._buffer),
                       dict(state.placement), state._page_of))
    assert states[0] == states[1]


@given(object_sizes, st.data())
def test_lru_inclusion_faults_never_grow_with_the_buffer(sizes, data):
    ids = list(range(1, len(sizes) + 1))
    accesses = data.draw(st.lists(st.sampled_from(ids), min_size=10, max_size=80))
    reads = []
    for buffer_pages in range(1, 9):
        state = place_sequential(sized_db(sizes), StorageParams(page_size=PAGE,
                                                                buffer_pages=buffer_pages))
        for oid in accesses:
            state.access_object(oid)
        reads.append(state.transaction_reads)
    assert reads == sorted(reads, reverse=True)


def test_lru_inclusion_through_run_protocol():
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=300, seed=8))
    params = WorkloadParams(coldn=30, hotn=90, seed=3)
    reads = []
    for buffer_pages in (1, 2, 3, 5, 8, 13, 21):
        storage = place_sequential(db, StorageParams(buffer_pages=buffer_pages))
        reads.append(run_protocol(db, storage, params, make_policy("none")).transaction_reads)
    assert reads == sorted(reads, reverse=True)
    assert reads[0] > reads[-1]


def test_huge_buffer_holds_one_frame_per_page_a_placement_can_occupy(tmp_path):
    # buffer_pages far above any page count: the buffer is as large as the
    # pages the objects can occupy, and it never evicts, as LRU over
    # buffer_pages frames would not
    db = generate_database(GeneratorParams(nc=4, maxnref=3, no=300, seed=8))
    sizes = {obj.id: obj.size for obj in db.objects}
    state = place_sequential(db, StorageParams(buffer_pages=10**12))
    frames = frame_bound(sizes.values(), 4096, 10**12)
    assert len(state._buffer) == frames < 10**12
    initial = state.placement
    order = list(sizes)
    random.Random(5).shuffle(order)
    rng = random.Random(7)
    steps = [rng.choice(order) for _ in range(400)]
    steps.insert(200, state.pack_order(order))
    faults = []
    for step in steps:
        if isinstance(step, Mapping):
            state.rewrite_placement(step)
        else:
            faults.append(state.access_object(step))
    reads, _rewrites, buffer = lru_oracle(initial, sizes, 4096, 10**12, steps)
    assert faults == [count > 0 for count in reads]
    assert state.transaction_reads == sum(reads)
    assert_buffer_holds(state, buffer, frames)
    assert main(["run", "--no", "300", "--coldn", "20", "--hotn", "20",
                 "--buffer-pages", "1000000000000", "--out-dir", str(tmp_path)]) == 0


# The A3 club run, shrunk to 2000 objects of two classes: 5000-byte objects
# that span two 4096-byte pages and 1500-byte ones that share a page. A
# 250-transaction period gives twelve DSTC rewrites of the placement.
SPANNING_CLUB_RUN = [
    "run", "--preset", "dstc-club", "--basesize", "1500,5000", "--dist3", "uniform",
    "--no", "2000", "--psimple", "1", "--pset", "0", "--phier", "0", "--pstoch", "0",
    "--clientn", "4", "--dist5", "special:0:0.995", "--dist4", "special:1000:0.9",
    "--coldn", "300", "--hotn", "500", "--buffer-pages", "16",
    "--observation-period", "250", "--policy", "dstc", "--seed", "1",
]
SPANNING_CLUB_SHA256 = {
    "report.csv": "3020086827b7305939432e4855c4894b9e8f30b476c982a7367e5bea43da7c9a",
    "report_stats.csv": "fc5cae90ac783e475cf8567db5cb2fec6789fc263875be11b5c0ba16631aa62e",
    "report.json": "191257d7d90c246506195b00ab7338923a467ca2fededd00686ac2ff9f411064",
    "report.txt": "9b0c3c28f9b1d3d377666b0215bb63d4d79d5de2e4a417a7f6eba8fe0c51af89",
}


def test_dstc_run_with_spanning_objects_keeps_its_report_bytes(tmp_path):
    # Reorganization code must leave every simulated result byte-identical;
    # the benchmark's databases have no object larger than a page, so this
    # run pins the spanning path through packing, rewrites and the buffer.
    assert main([*SPANNING_CLUB_RUN, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["reorganizations"]) >= 10
    config = payload["config"]
    db = generate_database(GeneratorParams.from_dict(config["generator"]))
    sizes = {obj.size for obj in db.objects}
    assert max(sizes) > config["storage"]["page_size"] >= min(sizes)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in SPANNING_CLUB_SHA256} == SPANNING_CLUB_SHA256
