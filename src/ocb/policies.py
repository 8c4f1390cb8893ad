"""Clustering policies: the no-op baseline and five-phase dynamic clustering.

The dynamic policy observes inter-object link crossings per period, keeps
only significant counts, blends them into a persistent consolidated matrix,
agglomerates heavy pairs into clustering units, and periodically rewrites
the physical placement so unit members become page neighbors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParameterError


class ClusteringPolicy:
    """Hook surface invoked by the protocol runner.

    Hooks must not change which objects a traversal visits; they may only
    affect physical placement and overhead I/O.
    """

    name = "none"

    def on_link_crossing(self, source: int, slot: int, target: int) -> None:
        pass

    def on_transaction_end(self) -> None:
        pass

    def maybe_reorganize(self, storage):
        """Return a new placement dict to apply, or None to leave it alone."""
        return None


class NoClustering(ClusteringPolicy):
    """Baseline: never touches placement, never spends overhead I/O."""


@dataclass
class DstcParams:
    observation_period: int = 1000  # transactions per observation period
    selection_threshold: float = 2.0  # minimum crossings kept by selection
    consolidation_weight: float = 0.5  # blend of fresh stats into the matrix
    unit_link_threshold: float = 1.0  # minimum weight to enter a unit
    reorganize_trigger: int = 1  # periods between physical reorganizations
    max_unit_size: int = 64  # objects per unit; 0 grows whole components

    def validate(self) -> None:
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

    def to_dict(self) -> dict:
        return {
            "observation_period": self.observation_period,
            "selection_threshold": self.selection_threshold,
            "consolidation_weight": self.consolidation_weight,
            "unit_link_threshold": self.unit_link_threshold,
            "reorganize_trigger": self.reorganize_trigger,
            "max_unit_size": self.max_unit_size,
        }


@dataclass
class DstcState:
    """Crossing statistics and the clustering units built from them."""

    observation_matrix: dict[tuple[int, int], int] = field(default_factory=dict)
    consolidated_matrix: dict[tuple[int, int], float] = field(default_factory=dict)
    clustering_units: list[list[int]] = field(default_factory=list)


def dstc_observe(state: DstcState, source: int, target: int) -> None:
    """Phase 1: count one crossing of the (source, target) link.

    Pairs keep their crossing direction; unit ordering exploits it.
    Self-links carry no co-location information and are ignored.
    """
    if source == target:
        return
    pair = (source, target)
    matrix = state.observation_matrix
    matrix[pair] = matrix.get(pair, 0) + 1


def dstc_select(state: DstcState, params: DstcParams) -> dict[tuple[int, int], int]:
    """Phase 2: keep only pairs crossed often enough, clear the period."""
    threshold = params.selection_threshold
    filtered = {pair: count for pair, count in state.observation_matrix.items()
                if count >= threshold}
    state.observation_matrix.clear()
    return filtered


def dstc_consolidate(state: DstcState, filtered: dict[tuple[int, int], int],
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
        for pair in matrix:
            matrix[pair] *= keep
            if matrix[pair] < 1e-12:
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

    The edges are sorted once, as (-weight, a, b) tuples, and one pass
    over them fills both adjacency maps with those same tuples: outgoing[a]
    comes out in (-weight, b) order and incoming[b] in (-weight, a) order,
    so no list is sorted again. A per-node cursor into incoming[node]
    moves past claimed parents for good, since nothing is unclaimed within
    one call. The cost is thus linear in the edges plus the climb steps,
    plus the parents on the current climb that a step passes over.
    """
    threshold = params.unit_link_threshold
    edges = [(-weight, a, b) for (a, b), weight in state.consolidated_matrix.items()
             if weight >= threshold]
    edges.sort()

    outgoing: dict[int, list[tuple[float, int, int]]] = {}
    incoming: dict[int, list[tuple[float, int, int]]] = {}
    for edge in edges:
        outgoing.setdefault(edge[1], []).append(edge)
        incoming.setdefault(edge[2], []).append(edge)

    cap = params.max_unit_size
    follow_incoming = cap == 0
    empty: list[tuple[float, int, int]] = []
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
            i = parent_cursor.get(node, 0)
            while i < count and parents[i][1] in claimed:
                i += 1
            parent_cursor[node] = i
            # parents on the climb are passed over without moving the cursor
            while i < count:
                parent = parents[i][1]
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
            neighbors = [(w, b) for w, _a, b in outgoing.get(node, empty)]
            if follow_incoming:
                neighbors += [(w, a) for w, a, _b in incoming.get(node, empty)]
                neighbors.sort()
            for _neg_w, other in neighbors:
                if other in claimed:
                    continue
                claimed.add(other)
                unit.append(other)
                if cap and len(unit) >= cap:
                    break
        return unit

    for _neg_w, a, b in edges:
        for seed in (a, b):
            if seed not in claimed:
                units.append(grow(entry_point(seed)))

    units = [u for u in units if len(u) > 1]
    state.clustering_units = units
    return units


def dstc_reorganize(state: DstcState, storage) -> dict[int, tuple[int, int]]:
    """Phase 5: lay units out contiguously, then everything else by id."""
    in_unit: set[int] = set()
    order: list[int] = []
    for unit in state.clustering_units:
        order.extend(unit)
        in_unit.update(unit)
    order.extend(oid for oid in sorted(storage.placement) if oid not in in_unit)
    return storage.pack_order(order)


class DstcPolicy(ClusteringPolicy):
    """Wire the five phases into the protocol's hook surface."""

    name = "dstc"

    def __init__(self, params: DstcParams | None = None):
        self.params = params or DstcParams()
        self.params.validate()
        self.state = DstcState()
        self._transactions = 0
        self._periods_pending = 0

    def on_link_crossing(self, source: int, slot: int, target: int) -> None:
        dstc_observe(self.state, source, target)

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
