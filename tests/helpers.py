"""Hand-built databases and independent oracles used across the test suite.

The oracles re-derive expected behavior from the raw link structure (or
from first principles) without touching the engine's traversal, packing,
or clustering code paths.
"""
from __future__ import annotations

from collections import deque

from ocb.generator import ClassDescriptor, Database, GeneratorParams, ObjectInstance


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
        cls.iterator.append(oid)
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


def bfs_oracle(db, root, depth, direction="forward"):
    """Breadth-first access order: expand each object once, re-access dups."""
    accessed = []
    expanded = set()
    queue = deque([(root, 0)])
    while queue:
        oid, hops = queue.popleft()
        accessed.append(oid)
        if oid in expanded:
            continue
        expanded.add(oid)
        if hops == depth:
            continue
        for _slot, nxt in links_of(db, oid, direction):
            queue.append((nxt, hops + 1))
    return accessed


def dfs_oracle(db, root, depth, direction="forward"):
    """Depth-first preorder over all slots, duplicates included."""
    accessed = []

    def walk(oid, hops):
        accessed.append(oid)
        if hops == depth:
            return
        for _slot, nxt in links_of(db, oid, direction):
            walk(nxt, hops + 1)

    walk(root, 0)
    return accessed


def hierarchy_oracle(db, root, depth, ref_type, direction="forward"):
    """Depth-first preorder restricted to slots of one reference type."""
    accessed = []

    def typed(oid):
        obj = db.objects[oid - 1]
        if direction == "reverse":
            return [s for s, k in obj.backref
                    if db.classes[db.objects[s - 1].class_id - 1].tref[k] == ref_type]
        tref = db.classes[obj.class_id - 1].tref
        return [t for k, t in enumerate(obj.oref)
                if t is not None and tref[k] == ref_type]

    def walk(oid, hops):
        accessed.append(oid)
        if hops == depth:
            return
        for nxt in typed(oid):
            walk(nxt, hops + 1)

    walk(root, 0)
    return accessed


def stochastic_oracle(db, root, depth, rng, direction="forward"):
    """Replay of the geometric slot law with an identically-seeded stream."""
    accessed = [root]
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
        accessed.append(target)
        oid = target
    return accessed


def first_fit_oracle(order, sizes, page_size):
    """Naive first-fit packing; oversized objects get dedicated page runs."""
    pages = []  # remaining bytes per page
    placement = {}
    for oid in order:
        size = sizes[oid]
        if size > page_size:
            start = len(pages)
            run = (size + page_size - 1) // page_size
            pages.extend([0] * run)
            placement[oid] = start
            continue
        for pid in range(len(pages)):
            if pages[pid] >= size:
                placement[oid] = pid
                pages[pid] -= size
                break
        else:
            placement[oid] = len(pages)
            pages.append(page_size - size)
    return placement


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
