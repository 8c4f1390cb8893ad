"""Hand-built databases and independent oracles used across the test suite.

The oracles re-derive expected behavior from the raw link structure (or
from first principles) without touching the engine's traversal, packing,
or clustering code paths.
"""
from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping
from itertools import compress, islice
from operator import lt

from ocb.distributions import Constant, Distribution, Special, Uniform, substream
from ocb.errors import ParameterError
from ocb.generator import (
    ClassDescriptor,
    Database,
    GenerationReport,
    GeneratorParams,
    ObjectInstance,
)
from ocb.storage import Placement


def build_db(object_specs, class_trefs=None, nreft=4, basesize=50, seed=0,
             acyclic_types=frozenset(), inheritance_types=frozenset()):
    """Construct a Database from explicit objects.

    object_specs: list of (class_id, [target_id or None, ...]) in object-id
    order (ids start at 1). class_trefs: per-class list of reference type
    ids; defaults to type 1 for every slot, sized to the widest object of
    that class.
    """
    nc = max((spec[0] for spec in object_specs), default=1)
    widths = {cid: 0 for cid in range(1, nc + 1)}
    for cid, targets in object_specs:
        widths[cid] = max(widths[cid], len(targets))
    if class_trefs is None:
        class_trefs = [[1] * widths[cid] for cid in range(1, nc + 1)]
    classes = []
    for cid in range(1, nc + 1):
        tref = list(class_trefs[cid - 1])
        classes.append(ClassDescriptor(
            id=cid, tref=tref, cref=[1] * len(tref), basesize=basesize,
            instance_size=basesize))
    objects = []
    for oid, (cid, targets) in enumerate(object_specs, start=1):
        cls = classes[cid - 1]
        oref = list(targets) + [None] * (len(cls.tref) - len(targets))
        objects.append(ObjectInstance(id=oid, class_id=cid, oref=oref,
                                      size=cls.instance_size))
    for obj in objects:
        for slot, target in enumerate(obj.oref):
            if target is not None:
                objects[target - 1].backref.append((obj.id, slot))
    params = GeneratorParams(
        nc=nc,
        maxnref=tuple(len(c.tref) for c in classes),
        basesize=basesize,
        no=len(objects),
        nreft=nreft,
        seed=seed,
        acyclic_types=acyclic_types,
        inheritance_types=inheritance_types,
    )
    return Database(params=params, classes=classes, objects=objects)


def links_of(db, oid, direction):
    obj = db.objects[oid - 1]
    if direction == "reverse":
        return [(slot, source) for source, slot in obj.backref]
    return [(slot, target) for slot, target in enumerate(obj.oref)
            if target is not None]


def bfs_oracle(db, root, depth, direction="forward", events=None):
    """Breadth-first access order: expand each object once, re-access dups.

    With `events`, also appends ("access", oid) and ("cross", source, target)
    in the order a traversal must access objects and cross links, and
    ("expand", oid) before oid's links are crossed, all of them; the same
    holds for the other traversal oracles.
    """
    events = [] if events is None else events
    accessed = []
    expanded = set()
    queue = deque([(root, 0)])
    while queue:
        oid, hops = queue.popleft()
        accessed.append(oid)
        events.append(("access", oid))
        if oid in expanded:
            continue
        expanded.add(oid)
        if hops == depth:
            continue
        events.append(("expand", oid))
        for _slot, nxt in links_of(db, oid, direction):
            events.append(("cross", oid, nxt))
            queue.append((nxt, hops + 1))
    return accessed


def dfs_oracle(db, root, depth, direction="forward", events=None):
    """Depth-first preorder over all slots, duplicates included."""
    events = [] if events is None else events
    accessed = []

    def walk(oid, hops):
        accessed.append(oid)
        events.append(("access", oid))
        if hops == depth:
            return
        events.append(("expand", oid))
        for _slot, nxt in links_of(db, oid, direction):
            events.append(("cross", oid, nxt))
            walk(nxt, hops + 1)

    walk(root, 0)
    return accessed


def typed_links_of(db, oid, ref_type, direction="forward"):
    """Targets (or reversed, sources) of oid's links of one reference type."""
    obj = db.objects[oid - 1]
    if direction == "reverse":
        return [s for s, k in obj.backref
                if db.classes[db.objects[s - 1].class_id - 1].tref[k] == ref_type]
    tref = db.classes[obj.class_id - 1].tref
    return [t for k, t in enumerate(obj.oref)
            if t is not None and tref[k] == ref_type]


def hierarchy_oracle(db, root, depth, ref_type, direction="forward", events=None):
    """Depth-first preorder restricted to slots of one reference type."""
    events = [] if events is None else events
    accessed = []

    def walk(oid, hops):
        accessed.append(oid)
        events.append(("access", oid))
        if hops == depth:
            return
        events.append(("expand", oid))
        for nxt in typed_links_of(db, oid, ref_type, direction):
            events.append(("cross", oid, nxt))
            walk(nxt, hops + 1)

    walk(root, 0)
    return accessed


def stack_preorder(children, root, depth):
    """Depth-first preorder of `children(oid)` on a list used as a stack.

    Needs no recursion, so it checks walks deeper than the interpreter's
    recursion limit. Returns the interleaved access/cross event list.
    """
    events = []
    stack = [(None, root, 0)]
    while stack:
        source, oid, hops = stack.pop()
        if source is not None:
            events.append(("cross", source, oid))
        events.append(("access", oid))
        if hops < depth:
            events.append(("expand", oid))
            stack.extend((oid, nxt, hops + 1) for nxt in reversed(children(oid)))
    return events


def stochastic_oracle(db, root, depth, rng, direction="forward", events=None):
    """Replay of the geometric slot law with an identically-seeded stream."""
    events = [] if events is None else events
    accessed = [root]
    events.append(("access", root))
    oid = root
    for _hop in range(depth):
        if direction == "reverse":
            choices = [source for source, _slot in db.objects[oid - 1].backref]
        else:
            choices = list(db.objects[oid - 1].oref)
        u = rng.random()
        chosen = None
        threshold = 0.0
        half = 1.0
        for n in range(1, len(choices) + 1):
            half *= 0.5
            threshold = 1.0 - half
            if u < threshold:
                chosen = n
                break
        if chosen is None:
            break
        target = choices[chosen - 1]
        if target is None:
            break
        events.append(("cross", oid, target))
        events.append(("access", target))
        accessed.append(target)
        oid = target
    return accessed


def first_fit_oracle(order, sizes, page_size):
    """Naive first-fit packing; oversized objects get dedicated page runs.

    Returns each object's (page, byte offset); an object starts where the
    bytes already packed onto its page end, and a page run starts at 0.
    """
    pages = []  # remaining bytes per page
    placement = {}
    for oid in order:
        size = sizes[oid]
        if size > page_size:
            start = len(pages)
            run = (size + page_size - 1) // page_size
            pages.extend([0] * run)
            placement[oid] = (start, 0)
            continue
        for pid in range(len(pages)):
            if pages[pid] >= size:
                placement[oid] = (pid, page_size - pages[pid])
                pages[pid] -= size
                break
        else:
            placement[oid] = (len(pages), 0)
            pages.append(page_size - size)
    return placement


def placement_valid_oracle(placement, sizes, page_size):
    """Whether a placement is valid, decided byte by byte.

    Every object marks the (page, byte) pairs it occupies: one that fits on
    a page its `size` bytes from its offset, which must keep them on that
    page; a larger one every byte of its ceil(size / page_size) pages, and
    it must start at offset 0. No page below 0 exists, and no pair may be
    marked twice.
    """
    occupied = set()
    for oid, (page, offset) in placement.items():
        size = sizes[oid]
        if page < 0:
            return False
        if size > page_size:
            if offset != 0:
                return False
            run = range(page, page + (size + page_size - 1) // page_size)
            extent = {(p, byte) for p in run for byte in range(page_size)}
        else:
            if offset < 0 or offset + size > page_size:
                return False
            extent = {(page, byte) for byte in range(offset, offset + size)}
        if occupied & extent:
            return False
        occupied |= extent
    return True


def reference_placement_error(placement, sizes, page_size):
    """`StorageState._validate_placement`'s per-object checks and overlap
    scan as they were written before its extent tables, kept verbatim as
    the oracle of its messages.

    `placement` maps every object id to (page, offset) in placing order;
    page runs are derived from `sizes` as a spanning `StorageState` derives
    them. Returns the message the check raises, or None when it accepts.
    """
    runs = {oid: -(-size // page_size) for oid, size in sizes.items() if size > page_size}
    starts, ends = [], []
    for oid, (page, offset) in placement.items():
        run = runs.get(oid)
        if run is None:
            length = sizes[oid]
            if page < 0 or not 0 <= offset <= page_size - length:
                return (f"object {oid} ({length} bytes) does not fit "
                        f"at offset {offset} of page {page}")
        elif offset or page < 0:
            return (f"oversized object {oid} must start at offset 0 of "
                    f"a page >= 0, not at offset {offset} of page {page}")
        else:
            length = run * page_size
        start = page * page_size + offset
        starts.append(start)
        ends.append(start + length)
    starts.sort()
    ends.sort()
    overlap = next(compress(islice(starts, 1, None),
                            map(lt, islice(starts, 1, None), ends)), None)
    if overlap is not None:
        page, offset = divmod(overlap, page_size)
        return f"objects overlap from offset {offset} of page {page}"
    return None


def placement_of(positions):
    """The `Placement` of a dict of object id -> (page, offset), in its order."""
    pages = [None] * (max(positions, default=0) + 1)
    offsets = pages.copy()
    for oid, (page, offset) in positions.items():
        pages[oid], offsets[oid] = page, offset
    return Placement(positions, pages, offsets)


def lru_oracle(placement, sizes, page_size, buffer_pages, accesses):
    """LRU page buffer on a plain list, least recently used page first.

    accesses holds object ids and, between them, whole new placements (mappings):
    a new placement drops from the buffer every page that an object it moves
    leaves or lands on. Each object touches its run of pages in order.
    Returns (pages read by each access, a fault when > 0; for each new
    placement, the (pages left, pages landed) counts; final buffer order).
    """

    def pages(where, oid):
        first = where[oid][0]
        return range(first, first + max(1, -(-sizes[oid] // page_size)))

    buffer = []
    reads = []
    rewrites = []
    for step in accesses:
        if isinstance(step, Mapping):
            left, landed = set(), set()
            for oid, position in step.items():
                if position != placement[oid]:
                    left.update(pages(placement, oid))
                    landed.update(pages(step, oid))
            dropped = left | landed
            buffer = [page for page in buffer if page not in dropped]
            rewrites.append((len(left), len(landed)))
            placement = step
            continue
        count = 0
        for page in pages(placement, step):
            if page in buffer:
                buffer.remove(page)
            else:
                count += 1
                if len(buffer) == buffer_pages:
                    del buffer[0]
            buffer.append(page)
        reads.append(count)
    return reads, rewrites, buffer


def kahn_is_dag(nodes, edges):
    """Topological-sort cycle check, independent of the generator's DFS."""
    indeg = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    queue = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while queue:
        n = queue.pop()
        seen += 1
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return seen == len(nodes)


def reference_enforce_consistency(schema, params):
    """The schema repair re-derived from the edge list, as the oracle of
    `enforce_consistency`; `schema` is left as it is.

    Slots are visited in scan order: classes by ascending id, slots by
    ascending index. A slot of an acyclic type is nulled when the reach of
    its target, a fixed point over the type's remaining edges, holds the
    slot's own class or fails `kahn_is_dag`. An instance size is the base
    size plus the base sizes of the class's ancestors: the other classes
    reached from it backwards over the inheritance-typed edges.

    Returns (every class's cref, every instance size, the nulled slots as
    (class id, slot index, what the reach holds)).
    """
    crefs = [list(cls.cref) for cls in schema]

    def edges(types):
        return [(cls.id, c) for cls, cref in zip(schema, crefs)
                for t, c in zip(cls.tref, cref) if t in types and c is not None]

    def reach(start, edge_list):
        nodes = {start}
        while True:
            grown = nodes | {b for a, b in edge_list if a in nodes}
            if grown == nodes:
                return nodes
            nodes = grown

    nulled = []
    for cls, cref in zip(schema, crefs):
        for k, ref_type in enumerate(cls.tref):
            if ref_type not in params.acyclic_types or cref[k] is None:
                continue
            edge_list = edges({ref_type})
            nodes = reach(cref[k], edge_list)
            if cls.id in nodes:
                nulled.append((cls.id, k, "its own class"))
            elif not kahn_is_dag(nodes, [(a, b) for a, b in edge_list if a in nodes]):
                nulled.append((cls.id, k, "a cycle beyond its own class"))
            else:
                continue
            cref[k] = None
    backwards = [(b, a) for a, b in edges(params.inheritance_types)]
    sizes = [cls.basesize + sum(schema[a - 1].basesize
                                for a in reach(cls.id, backwards) - {cls.id})
             for cls in schema]
    return crefs, sizes, nulled


def reference_build_units(state, params):
    """DSTC phase 4 as first written, kept verbatim as the unit oracle.

    Its entry-point climb rebuilds the list of unclaimed parents at every
    step and takes its min(); dstc_build_units must return the same units.

    Agglomerate heavy pairs into ordered clustering units.

    Greedy agglomeration: consolidated pairs at or above the unit link
    threshold, heaviest first (ties by object id), each seed a unit that
    grows breadth-first along the heaviest outgoing crossings until
    max_unit_size members are claimed. Bounding units keeps each one a
    compact neighborhood, so a depth-limited traversal stays within a
    handful of pages; max_unit_size = 0 grows whole components instead,
    following crossings in both directions.
    """
    threshold = params.unit_link_threshold
    edges = [(weight, a, b) for (a, b), weight in state.consolidated_matrix.items()
             if weight >= threshold]
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    outgoing: dict[int, list[tuple[float, int]]] = {}
    incoming: dict[int, list[tuple[float, int]]] = {}
    for weight, a, b in edges:
        outgoing.setdefault(a, []).append((-weight, b))
        incoming.setdefault(b, []).append((-weight, a))
    for adjacency in (outgoing, incoming):
        for neighbors in adjacency.values():
            neighbors.sort()

    cap = params.max_unit_size
    follow_incoming = cap == 0
    empty: list[tuple[float, int]] = []
    claimed: set[int] = set()
    units: list[list[int]] = []

    def entry_point(seed: int) -> int:
        # Climb unclaimed incoming crossings (heaviest first) so the unit
        # starts where traversals enter the hot structure, not mid-tree.
        node = seed
        path = {seed}
        while True:
            parents = [(w, p) for w, p in incoming.get(node, empty)
                       if p not in claimed and p not in path]
            if not parents:
                return node
            node = min(parents)[1]
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
                neighbors = neighbors + incoming.get(node, empty)
                neighbors.sort()
            for _neg_w, other in neighbors:
                if other in claimed:
                    continue
                claimed.add(other)
                unit.append(other)
                if cap and len(unit) >= cap:
                    break
        return unit

    for _weight, a, b in edges:
        for seed in (a, b):
            if seed not in claimed:
                units.append(grow(entry_point(seed)))

    units = [u for u in units if len(u) > 1]
    state.clustering_units = units
    return units


def reference_pack_order(state, order):
    """`StorageState.pack_order` as it was before zero-size objects were
    handled, kept verbatim (`self` is `state`) as the packing oracle.

    A zero-size object in the order makes `min_size` 0, so no page ever
    closes and each object scans every page before it; StorageState.pack_order
    must return the same placement.

    First-fit placement for the given object order (not applied).

    An object larger than a page gets a run of new pages to itself.
    """
    page_size = state.params.page_size
    placement: dict[int, tuple[int, int]] = {}
    free: list[int] = []  # free bytes per open page, index = page id
    order_sizes = list(map(state.sizes.__getitem__, order))
    min_size = min(order_sizes, default=0)
    open_pages: list[int] = []  # page ids that can still take min_size bytes
    for oid, size in zip(order, order_sizes):
        if size > page_size:
            placement[oid] = (len(free), 0)
            free.extend([0] * state._runs[oid])
            continue
        for page in open_pages:
            left = free[page]
            if left >= size:
                break
        else:
            page = len(free)
            left = page_size
            free.append(left)
            open_pages.append(page)
        placement[oid] = (page, page_size - left)
        left -= size
        free[page] = left
        if left < min_size:
            open_pages.remove(page)
    return placement


def reference_draw_bounded(dist: Distribution, rng: random.Random, lo: int,
                           hi: int) -> int:
    """`draw_bounded` as it was written on `randint`, kept as an oracle.

    Draw one value from [lo, hi]; interval validity was checked up front."""
    if isinstance(dist, Uniform):
        return rng.randint(lo, hi)
    if isinstance(dist, Constant):
        return dist.value
    raise ParameterError("special distribution used without an anchor")


def reference_draw_position(dist: Distribution, rng: random.Random, lo: int, hi: int,
                            length: int, anchor: int) -> int | None:
    """`draw_position` as it was written on `randint`, kept as an oracle.

    Pick a 1-based position into a collection of `length` members.

    `anchor` is the drawing object's own position, used by Special draws.
    Bounds clamp to [1, length]; returns None when no legal position exists.
    """
    if length <= 0:
        return None
    if isinstance(dist, Special):
        if rng.random() < dist.locality_probability:
            center = min(max(anchor, 1), length)
            a = max(1, center - dist.refzone)
            b = min(length, center + dist.refzone)
            return rng.randint(a, b)
        return rng.randint(1, length)
    if isinstance(dist, Constant):
        return min(max(dist.value, 1), length)
    a = max(1, lo)
    b = min(length, hi)
    if a > b:
        return None
    return rng.randint(a, b)


def reference_generate_objects(schema: list[ClassDescriptor], params: GeneratorParams,
                               report: GenerationReport | None = None) -> list[ObjectInstance]:
    """Object generation as it was written on `randint`, kept verbatim as
    the oracle of `generate_objects`, but for the class iterators: it holds
    them in lists of its own, as the classes store none.

    Instantiate `no` objects and wire their references.

    Each object's class comes from dist3; it is appended to that class's
    iterator. Reference targets are iterator positions of the slot's target
    class, drawn through dist4 with the object's own iterator position as
    the locality anchor. Reverse references are recorded at link time.
    """
    rng_classes = substream(params.seed, "object-classes")
    rng_refs = substream(params.seed, "object-refs")
    iterators: list[list[int]] = [[] for _ in schema]
    objects: list[ObjectInstance] = []
    nc = params.nc
    for oid in range(1, params.no + 1):
        cid = reference_draw_bounded(params.dist3, rng_classes, 1, nc)
        cls = schema[cid - 1]
        objects.append(ObjectInstance(id=oid, class_id=cid,
                                      oref=[None] * len(cls.tref),
                                      size=cls.instance_size))
        iterators[cid - 1].append(oid)

    infref = params.infref
    supref = params.supref
    dist4 = params.dist4
    for cls in schema:
        if not cls.cref:
            continue
        slot_targets = [(k, c) for k, c in enumerate(cls.cref) if c is not None]
        if not slot_targets:
            continue
        for position, oid in enumerate(iterators[cls.id - 1], start=1):
            obj = objects[oid - 1]
            for k, target_class in slot_targets:
                iterator = iterators[target_class - 1]
                if not iterator:
                    if report is not None:
                        report.empty_iterator += 1
                    continue
                pos = reference_draw_position(dist4, rng_refs, infref, supref,
                                              len(iterator), position)
                if pos is None:
                    if report is not None:
                        report.out_of_range += 1
                    continue
                target_id = iterator[pos - 1]
                obj.oref[k] = target_id
                objects[target_id - 1].backref.append((oid, k))
    return objects

