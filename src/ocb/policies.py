"""Clustering policies: the no-op baseline and five-phase dynamic clustering.

`NoClustering` states the hooks the protocol calls, and `_POLICIES` is
the one table that maps a policy name to a policy: `make_policy` builds
from it and `check_policy_name` checks a name against it.

The dynamic policy observes inter-object link crossings per period, keeps
only significant counts, blends them into a persistent consolidated matrix,
agglomerates heavy pairs into clustering units, and periodically rewrites
the physical placement so unit members become page neighbors.

Each matrix keys a crossing pair (a, b) by one int, `a * base + b`, where
`base` is the least power of two above every object id, fixed once from
the first link table observed (see `DstcState`). Sorted keys are in (a, b)
order, so unit building sorts ints, not tuples, and decodes them with a
shift and a mask. With ids below 2**15 every key stays below 2**30, a
one-digit CPython int: it hashes to itself, and the list sort takes its
int fast path.

Observation records whole link rows, not crossings. Selection keys the
rows of the table with the most expanded ids in bulk where it can, and
unit building works on lists indexed by object id, sized by the largest
id among its edges.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, filterfalse, pairwise, repeat
from operator import and_, rshift

from .errors import ParameterError, RunError
from .params import ParamGroup, bounded


class NoClustering:
    """Baseline, and the hook surface every policy provides to the protocol.

    `on_link_crossing(accessed, links, expanded)` runs once per
    transaction, after its walk and before its accesses go through the
    buffer. It receives the walk's result as the traversal returns it (see
    `ocb.workload`), with its direction's link table: a walk crossed the
    pairs (a, t) for a in `expanded` and t in `links[a]`, or, expanding
    none, the consecutive pairs of `accessed`. `on_transaction_end` and
    `maybe_reorganize` run after every transaction. Hooks must not change
    which objects a traversal visits, nor the lists and tables they are
    handed; they may only affect physical placement and overhead I/O. The
    tables are the database's own, and a client's set, simple or hierarchy
    transaction that repeats its previous one in type, root and direction
    hands over the previous walk's lists again, not a copy. This one never
    touches placement and never spends overhead I/O.
    """

    def on_link_crossing(self, accessed: list[int], links: list[tuple[int, ...]],
                         expanded: list[int]) -> None:
        pass

    def on_transaction_end(self) -> None:
        pass

    def maybe_reorganize(self, storage):
        """Return a new placement mapping to apply, or None to leave it alone."""
        return None


@dataclass(frozen=True)
class DstcParams(ParamGroup):
    observation_period: int = bounded(1000, 1)  # transactions per observation period
    selection_threshold: float = bounded(2.0, 0)  # minimum crossings kept by selection
    consolidation_weight: float = bounded(0.5, 0, 1)  # blend of fresh stats into the matrix
    unit_link_threshold: float = bounded(1.0, 0)  # minimum weight to enter a unit
    reorganize_trigger: int = bounded(1, 1)  # periods between physical reorganizations
    max_unit_size: int = bounded(64, 0)  # objects per unit; 0 grows whole components


@dataclass
class DstcState:
    """Crossing statistics and the clustering units built from them.

    Both matrices key the pair (a, b) as `a * base + b`. `base` is 0 until
    the first observation fixes it: the least power of two at or above the
    length of its link table (one row per id, and row 0), so above every
    id. Both presets have 20 000 objects, so their `base` is 32 768 and
    every key a one-digit int; larger ids give multi-digit keys.

    Whole link rows a period crossed are not keyed one crossing at a time:
    `expansions` maps each link table's id() to the table, a Counter of the
    ids whose rows the period crossed, and a cache of which of its rows are
    clean (see `dstc_select`). `dstc_select` keys the rows and clears the
    Counters; an entry, and so its cache, lives as long as the state.
    """

    observation_matrix: Counter[int] = field(default_factory=Counter)
    consolidated_matrix: dict[int, float] = field(default_factory=dict)
    clustering_units: list[list[int]] = field(default_factory=list)
    base: int = 0
    expansions: dict[int, tuple[list[tuple[int, ...]], Counter[int], dict[int, bool]]] = (
        field(default_factory=dict))


def dstc_observe(state: DstcState, accessed: list[int],
                 links: list[tuple[int, ...]], expanded: list[int]) -> None:
    """Phase 1: record one transaction's link crossings.

    The rows `links[a]` of the ids a in `expanded` are only counted here,
    per table, and `dstc_select` keys them at period end. A walk that
    expanded none is a path, and its consecutive pairs are keyed at once.
    Pairs keep their crossing direction; unit ordering exploits it.
    Self-links carry no co-location information and are ignored. The first
    call fixes `base`; a later table too long for it raises RunError rather
    than mis-key its ids.
    """
    base = state.base
    if len(links) > base:
        if base:
            raise RunError(f"a link table of {len(links)} rows does not fit "
                           f"the key base {base} fixed by the first one")
        base = state.base = 1 << (len(links) - 1).bit_length()
    if not expanded:
        state.observation_matrix.update(
            [a * base + b for a, b in pairwise(accessed) if a != b])
    else:
        entry = state.expansions.get(id(links))
        if entry is None:
            entry = state.expansions[id(links)] = (links, Counter(), {})
        entry[1].update(expanded)


def dstc_select(state: DstcState, params: DstcParams) -> dict[int, int]:
    """Phase 2: count the period's crossings, keep only pairs crossed often
    enough, and clear the period.

    An id a whose row was expanded n times adds n to the key of (a, t) for
    each t != a in `links[a]`. A row is clean when its targets are distinct
    and none is a itself: each of its keys then gets exactly n from it. In
    the table with the most expanded ids, a clean row whose n reaches the
    threshold goes into `filtered` in one C-level update, and a clean row
    below it is never keyed. Every other contribution (its unclean rows,
    the other tables' rows and the path pairs in `observation_matrix`) is
    summed per key; each of those keys then adds the n of its clean row, if
    that row was expanded too. The counts are a multiset, so the order they
    are added in changes no count. A row's cleanness is computed once per
    table and id, and cached in the table's `expansions` entry.
    """
    threshold = params.selection_threshold
    base = state.base
    counts = state.observation_matrix
    get = counts.get

    def count_rows(links, rows):
        for a, n in rows:
            row = a * base
            for t in links[a]:
                if t != a:
                    key = row + t
                    counts[key] = get(key, 0) + n

    # the clean rows of the table with the most expanded ids are keyed in
    # bulk, every other row is summed into `counts`; a state with no table
    # gets an empty one
    entries = sorted(state.expansions.values(), key=lambda entry: len(entry[1]),
                     reverse=True) or [((), Counter(), {})]
    (links, expanded, clean), others = entries[0], entries[1:]
    filtered: dict[int, int] = {}
    add = filtered.update
    is_clean = clean.get
    unclean = []
    for a, n in expanded.items():
        row_clean = is_clean(a)
        if row_clean is None:
            targets = links[a]
            row_clean = clean[a] = a not in targets and len(set(targets)) == len(targets)
        if not row_clean:
            unclean.append((a, n))
        elif n >= threshold:
            add(zip(map((a * base).__add__, links[a]), repeat(n)))
    count_rows(links, unclean)
    for other_links, other_expanded, _clean in others:
        count_rows(other_links, other_expanded.items())
        other_expanded.clear()

    shift = base.bit_length() - 1
    mask = base - 1
    row_n = expanded.get
    for key, count in counts.items():
        a = key >> shift
        n = row_n(a)
        if n is not None and clean[a] and (key & mask) in links[a]:
            count += n
        if count >= threshold:
            filtered[key] = count
    expanded.clear()
    counts.clear()
    return filtered


def dstc_consolidate(state: DstcState, filtered: dict[int, int],
                     params: DstcParams) -> None:
    """Phase 3: blend the period's stats into the persistent matrix.

    consolidated = (1 - w) * consolidated + w * filtered; pairs absent from
    the period decay by (1 - w) and are dropped once negligible.
    """
    w = params.consolidation_weight
    keep = 1.0 - w
    matrix = state.consolidated_matrix
    dead = []
    for pair, weight in matrix.items():
        weight *= keep
        matrix[pair] = weight
        if weight < 1e-12:
            dead.append(pair)
    for pair in dead:
        del matrix[pair]
    if w > 0.0:
        for pair, count in filtered.items():
            matrix[pair] = matrix.get(pair, 0.0) + w * count


def dstc_build_units(state: DstcState, params: DstcParams) -> list[list[int]]:
    """Phase 4: agglomerate heavy pairs into ordered clustering units.

    Greedy agglomeration: consolidated pairs at or above the unit link
    threshold, heaviest first (ties by object id), each seed a unit that
    grows breadth-first along the heaviest outgoing crossings until
    max_unit_size members are claimed. Bounding units keeps each one a
    compact neighborhood, so a depth-limited traversal stays within a
    handful of pages; max_unit_size = 0 grows whole components instead,
    following crossings in both directions.

    Before a unit grows, its seed climbs to an entry point. Each step is
    one scan of the node's parents (incoming crossings), heaviest first,
    ties going to the lowest id: the climb moves to the first that is
    neither claimed nor already on the current climb, and it stops where
    no such parent is left.

    The edges are the matrix's own int keys, sorted, which is (a, b)
    order, and then, stably, by weight, heaviest first. They are decoded
    once, into a list of sources (a shift) and one of targets (a mask), and
    one pass fills both adjacency lists with plain ids: outgoing[a] comes
    out in (-weight, b) order and incoming[b] in (-weight, a) order, so no
    list is sorted again, and only growth with max_unit_size = 0, which
    merges the two, looks weights up. The adjacency lists and `claimed` are
    indexed by object id and sized by the largest id among the edges, not
    by `base`.
    """
    threshold = params.unit_link_threshold
    matrix = state.consolidated_matrix
    shift = state.base.bit_length() - 1
    edges = sorted(key for key, weight in matrix.items() if weight >= threshold)
    edges.sort(key=matrix.__getitem__, reverse=True)
    sources = list(map(rshift, edges, repeat(shift)))
    targets = list(map(and_, edges, repeat(state.base - 1)))

    size = max(max(sources, default=0), max(targets, default=0)) + 1
    # a list only for the ids with edges: one [] for every id up front is slower
    outgoing: list[list[int] | None] = [None] * size
    incoming: list[list[int] | None] = [None] * size
    for a, b in zip(sources, targets):
        children = outgoing[a]
        if children is None:
            outgoing[a] = [b]
        else:
            children.append(b)
        parents = incoming[b]
        if parents is None:
            incoming[b] = [a]
        else:
            parents.append(a)

    cap = params.max_unit_size
    follow_incoming = cap == 0
    empty: list[int] = []
    claimed = bytearray(size)
    units: list[list[int]] = []

    def entry_point(seed: int) -> int:
        # Climb unclaimed incoming crossings (heaviest first) so the unit
        # starts where traversals enter the hot structure, not mid-tree.
        node = seed
        path = {seed}
        while True:
            for parent in incoming[node] or empty:
                if parent not in path and not claimed[parent]:
                    break
            else:
                return node
            node = parent
            path.add(node)

    def grow(seed: int) -> list[int]:
        unit = [seed]
        claimed[seed] = 1
        cursor = 0
        while cursor < len(unit) and (cap == 0 or len(unit) < cap):
            node = unit[cursor]
            cursor += 1
            neighbors = outgoing[node] or empty
            if follow_incoming:
                neighbors = [other for _neg_w, other in sorted(
                    [(-matrix[node << shift | b], b) for b in neighbors]
                    + [(-matrix[a << shift | node], a) for a in incoming[node] or empty])]
            for other in neighbors:
                if claimed[other]:
                    continue
                claimed[other] = 1
                unit.append(other)
                if cap and len(unit) >= cap:
                    break
        return unit

    # seeds in pair order, a before b; `claimed` is read as each is reached
    for seed in filterfalse(claimed.__getitem__, chain.from_iterable(zip(sources, targets))):
        units.append(grow(entry_point(seed)))

    units = [u for u in units if len(u) > 1]
    state.clustering_units = units
    return units


def dstc_reorganize(state: DstcState, storage) -> Mapping[int, tuple[int, int]]:
    """Phase 5: lay units out contiguously, then everything else by id."""
    order = list(chain.from_iterable(state.clustering_units))
    order += sorted(storage.placement.keys() - set(order))
    return storage.pack_order(order)


class DstcPolicy:
    """Wire the five phases into the protocol's hook surface (see
    `NoClustering`). Its `params`, checked when made, are frozen."""

    def __init__(self, params: DstcParams | None = None):
        self.params = params or DstcParams()
        self.state = DstcState()
        # one call per transaction: the hook is dstc_observe itself
        self.on_link_crossing = partial(dstc_observe, self.state)
        self._transactions = 0
        self._periods_pending = 0

    def on_transaction_end(self) -> None:
        self._transactions += 1
        if self._transactions % self.params.observation_period == 0:
            filtered = dstc_select(self.state, self.params)
            dstc_consolidate(self.state, filtered, self.params)
            dstc_build_units(self.state, self.params)
            self._periods_pending += 1

    def maybe_reorganize(self, storage):
        if self._periods_pending < self.params.reorganize_trigger:
            return None
        self._periods_pending = 0
        if not self.state.clustering_units:
            return None
        return dstc_reorganize(self.state, storage)


# each policy by name, built from the run's DstcParams (None for the
# defaults); the only place that knows the names
_POLICIES = {"none": lambda _dstc_params: NoClustering(), "dstc": DstcPolicy}


def check_policy_name(name: str) -> None:
    """Raise ParameterError unless a policy is called `name`; builds none."""
    if name not in _POLICIES:
        raise ParameterError(f"unknown policy {name!r} "
                             f"(expected {' or '.join(map(repr, _POLICIES))})")


def make_policy(name: str,
                dstc_params: DstcParams | None = None) -> NoClustering | DstcPolicy:
    """The policy called `name`."""
    check_policy_name(name)
    return _POLICIES[name](dstc_params)
