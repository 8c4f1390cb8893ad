"""Clustering policies: the no-op baseline and five-phase dynamic clustering.

The dynamic policy observes inter-object link crossings per period, keeps
only significant counts, blends them into a persistent consolidated matrix,
agglomerates heavy pairs into clustering units, and periodically rewrites
the physical placement so unit members become page neighbors.

Each matrix keys a crossing pair (a, b) by one int, `a * base + b`, where
`base` is a power of two above every object id seen so far, held in
`DstcState`. When an observed id reaches `base`, it grows to the next power
of two above that id, and both matrices are re-keyed in insertion order.
Sorted keys are in (a, b) order, so unit building sorts ints, not tuples.
With ids below 2**15 every key stays below 2**30, a one-digit CPython int:
it hashes to itself, and the list sort takes its int fast path.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, filterfalse, pairwise, repeat

from .errors import ParameterError, require_finite
from .params import ParamGroup


class ClusteringPolicy:
    """Hook surface invoked by the protocol runner.

    `on_link_crossing(accessed, links, expanded)` runs once per
    transaction, after its walk and before its accesses go through the
    buffer. It receives the walk's result as the traversal returns it (see
    `ocb.workload`): with a link table, the walk crossed the pairs (a, t)
    for a in `expanded` and t in `links[a]`; with `links` None, it crossed
    the consecutive pairs of `accessed`. `on_transaction_end` and
    `maybe_reorganize` run after every transaction. Hooks must not change
    which objects a traversal visits, nor the lists and tables they are
    handed; they may only affect physical placement and overhead I/O.
    """

    name = "none"

    def on_link_crossing(self, accessed: list[int], links: list[tuple[int, ...]] | None,
                         expanded: list[int]) -> None:
        pass

    def on_transaction_end(self) -> None:
        pass

    def maybe_reorganize(self, storage):
        """Return a new placement dict to apply, or None to leave it alone."""
        return None


class NoClustering(ClusteringPolicy):
    """Baseline: never touches placement, never spends overhead I/O."""


@dataclass
class DstcParams(ParamGroup):
    observation_period: int = 1000  # transactions per observation period
    selection_threshold: float = 2.0  # minimum crossings kept by selection
    consolidation_weight: float = 0.5  # blend of fresh stats into the matrix
    unit_link_threshold: float = 1.0  # minimum weight to enter a unit
    reorganize_trigger: int = 1  # periods between physical reorganizations
    max_unit_size: int = 64  # objects per unit; 0 grows whole components

    def validate(self) -> None:
        require_finite(selection_threshold=self.selection_threshold,
                       consolidation_weight=self.consolidation_weight,
                       unit_link_threshold=self.unit_link_threshold)
        if self.observation_period < 1:
            raise ParameterError("observation_period must be >= 1")
        if self.selection_threshold < 0 or self.unit_link_threshold < 0:
            raise ParameterError("thresholds must be >= 0")
        if not 0.0 <= self.consolidation_weight <= 1.0:
            raise ParameterError("consolidation_weight outside [0, 1]")
        if self.reorganize_trigger < 1:
            raise ParameterError("reorganize_trigger must be >= 1")
        if self.max_unit_size < 0:
            raise ParameterError("max_unit_size must be >= 0")


@dataclass
class DstcState:
    """Crossing statistics and the clustering units built from them.

    Both matrices key the pair (a, b) as `a * base + b`; `pair(key)` is
    `divmod(key, base)`. `base` starts at 1, and `grow` raises it to the
    next power of two above an observed id that reaches it, re-keying both
    matrices in insertion order. Both presets have 20 000 objects, so their
    `base` ends at 32 768 and every key stays a one-digit int below 2**30;
    larger ids still decode correctly, with multi-digit keys.

    Whole link rows a period crossed are not keyed one crossing at a time:
    `expansions` maps each link table's id() to the table and a Counter of
    the ids whose rows were crossed, and `flush` adds them to
    `observation_matrix`. They hold plain ids, so `grow` leaves them alone.
    """

    observation_matrix: Counter[int] = field(default_factory=Counter)
    consolidated_matrix: dict[int, float] = field(default_factory=dict)
    clustering_units: list[list[int]] = field(default_factory=list)
    base: int = 1
    expansions: dict[int, tuple[list[tuple[int, ...]], Counter[int]]] = field(
        default_factory=dict)

    def key(self, a: int, b: int) -> int:
        return a * self.base + b

    def pair(self, key: int) -> tuple[int, int]:
        return divmod(key, self.base)

    def grow(self, top: int) -> None:
        """Raise `base` above id `top`, re-keying both matrices in order."""
        old = self.base
        if top < old:
            return
        new = self.base = 1 << top.bit_length()

        def rekey(matrix):
            return {a * new + b: value for (a, b), value
                    in zip(map(divmod, matrix, repeat(old)), matrix.values())}

        self.observation_matrix = Counter(rekey(self.observation_matrix))
        self.consolidated_matrix = rekey(self.consolidated_matrix)

    def flush(self) -> None:
        """Count the recorded row expansions into `observation_matrix`.

        An id a expanded n times in a table adds n to key(a, t) for every
        t != a in its row, then the expansions are cleared. Every t was
        accessed, so `base` is already above it.
        """
        counts = self.observation_matrix
        get = counts.get
        base = self.base
        for links, expanded in self.expansions.values():
            for a, n in expanded.items():
                row = a * base
                for t in links[a]:
                    if t != a:
                        key = row + t
                        counts[key] = get(key, 0) + n
        self.expansions.clear()


def dstc_observe(state: DstcState, accessed: list[int],
                 links: list[tuple[int, ...]] | None, expanded: list[int]) -> None:
    """Phase 1: record one transaction's link crossings.

    A walk over a link table crossed the whole row `links[a]` of each a in
    `expanded`; those ids are only counted here, per table, and
    `DstcState.flush` keys their rows at period end. A walk without a table
    (`links` None) is a path, and its consecutive pairs are keyed at once.
    Pairs keep their crossing direction; unit ordering exploits it.
    Self-links carry no co-location information and are ignored. A key
    decodes as long as its target is below `base`, and every target is
    accessed, so one max() per transaction is the only check.
    """
    base = state.base
    top = max(accessed) if accessed else 0
    if top >= base:
        state.grow(top)
        base = state.base
    if links is None:
        state.observation_matrix.update(
            [a * base + b for a, b in pairwise(accessed) if a != b])
    elif expanded:
        entry = state.expansions.get(id(links))
        if entry is None:
            entry = state.expansions[id(links)] = (links, Counter())
        entry[1].update(expanded)


def dstc_select(state: DstcState, params: DstcParams) -> dict[int, int]:
    """Phase 2: count the period's crossings, keep only pairs crossed often
    enough, and clear the period.

    The first step is `state.flush()`, which keys the period's row
    expansions; the counts are a multiset, so the order they are added in
    changes no count."""
    state.flush()
    threshold = params.selection_threshold
    filtered = {pair: count for pair, count in state.observation_matrix.items()
                if count >= threshold}
    state.observation_matrix.clear()
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
    if keep == 0.0:
        matrix.clear()
    else:
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

    Before a unit grows, its seed climbs to an entry point: at each step
    the climb moves to the heaviest parent (incoming crossing) that is
    neither claimed nor already on the current climb, ties going to the
    lowest id, and it stops where no such parent is left.

    The edges are the matrix's own int keys, sorted, which is (a, b)
    order, and then, stably, by weight, heaviest first. They are decoded
    into (a, b) pairs once, and one pass fills both adjacency maps with
    plain ids: outgoing[a] comes out in (-weight, b) order and incoming[b]
    in (-weight, a) order, so no list is sorted again, and only growth with
    max_unit_size = 0, which merges the two, looks weights up. A per-node
    cursor into incoming[node] moves past claimed parents for good, since
    nothing is unclaimed within one call.
    The cost is thus linear in the edges plus the climb steps, plus the
    parents on the current climb that a step passes over.
    """
    threshold = params.unit_link_threshold
    matrix = state.consolidated_matrix
    base = state.base
    edges = sorted(key for key, weight in matrix.items() if weight >= threshold)
    edges.sort(key=matrix.__getitem__, reverse=True)
    pairs = list(map(divmod, edges, repeat(base)))

    outgoing: dict[int, list[int]] = {}
    incoming: dict[int, list[int]] = {}
    out_get = outgoing.get
    in_get = incoming.get
    for a, b in pairs:
        # get-then-append: setdefault(x, []) would allocate a list per edge
        children = out_get(a)
        if children is None:
            outgoing[a] = [b]
        else:
            children.append(b)
        parents = in_get(b)
        if parents is None:
            incoming[b] = [a]
        else:
            parents.append(a)

    cap = params.max_unit_size
    follow_incoming = cap == 0
    empty: list[int] = []
    claimed: set[int] = set()
    units: list[list[int]] = []
    # incoming[node][:parent_cursor[node]] holds only claimed parents
    parent_cursor: dict[int, int] = {}

    def entry_point(seed: int) -> int:
        # Climb unclaimed incoming crossings (heaviest first) so the unit
        # starts where traversals enter the hot structure, not mid-tree.
        node = seed
        path = {seed}
        while True:
            parents = incoming.get(node, empty)
            count = len(parents)
            i = start = parent_cursor.get(node, 0)
            while i < count and parents[i] in claimed:
                i += 1
            if i != start:
                parent_cursor[node] = i
            # parents on the climb are passed over without moving the cursor
            while i < count:
                parent = parents[i]
                if parent not in path and parent not in claimed:
                    break
                i += 1
            else:
                return node
            node = parent
            path.add(node)

    def grow(seed: int) -> list[int]:
        unit = [seed]
        claimed.add(seed)
        cursor = 0
        while cursor < len(unit) and (cap == 0 or len(unit) < cap):
            node = unit[cursor]
            cursor += 1
            neighbors = outgoing.get(node, empty)
            if follow_incoming:
                neighbors = [other for _neg_w, other in sorted(
                    [(-matrix[node * base + b], b) for b in neighbors]
                    + [(-matrix[a * base + node], a) for a in incoming.get(node, empty)])]
            for other in neighbors:
                if other in claimed:
                    continue
                claimed.add(other)
                unit.append(other)
                if cap and len(unit) >= cap:
                    break
        return unit

    # seeds in pair order, a before b; `claimed` is read as each is reached
    for seed in filterfalse(claimed.__contains__, chain.from_iterable(pairs)):
        units.append(grow(entry_point(seed)))

    units = [u for u in units if len(u) > 1]
    state.clustering_units = units
    return units


def dstc_reorganize(state: DstcState, storage) -> dict[int, tuple[int, int]]:
    """Phase 5: lay units out contiguously, then everything else by id."""
    order = list(chain.from_iterable(state.clustering_units))
    order += sorted(storage.placement.keys() - set(order))
    return storage.pack_order(order)


class DstcPolicy(ClusteringPolicy):
    """Wire the five phases into the protocol's hook surface."""

    name = "dstc"

    def __init__(self, params: DstcParams | None = None):
        self.params = params or DstcParams()
        self.params.validate()
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


def make_policy(name: str, dstc_params: DstcParams | None = None) -> ClusteringPolicy:
    if name == "none":
        return NoClustering()
    if name == "dstc":
        return DstcPolicy(dstc_params)
    raise ParameterError(f"unknown policy {name!r} (expected 'none' or 'dstc')")
