"""Transaction families and the cold/warm execution protocol.

Four read-only transaction types run against the simulated store: a
breadth-first set-oriented access, a depth-first simple traversal, a
hierarchy traversal restricted to one reference type, and a stochastic
traversal that picks one slot per hop with geometrically decaying
probability. Each can run forward over object references or reversed
over the recorded back references.
"""
from __future__ import annotations

import csv
import random
from collections import deque
from dataclasses import dataclass, field

from .distributions import (
    Distribution,
    Special,
    Uniform,
    draw_bounded,
    draw_position,
    substream,
    validate_distribution,
)
from .errors import ParameterError, RunError

FORWARD = "forward"
REVERSE = "reverse"
TYPE_SET = "set"
TYPE_SIMPLE = "simple"
TYPE_HIERARCHY = "hierarchy"
TYPE_STOCHASTIC = "stochastic"
TRANSACTION_TYPES = (TYPE_SET, TYPE_SIMPLE, TYPE_HIERARCHY, TYPE_STOCHASTIC)

CSV_COLUMNS = ("phase", "type", "direction", "root", "objects", "faults", "sim_time")


@dataclass
class WorkloadParams:
    setdepth: int = 3
    simdepth: int = 3
    hiedepth: int = 5
    stodepth: int = 50
    coldn: int = 1000
    hotn: int = 10000
    think: float = 0.0
    pset: float = 0.25
    psimple: float = 0.25
    phier: float = 0.25
    pstoch: float = 0.25
    dist5: Distribution = Uniform()
    clientn: int = 1
    reverse_probability: float = 0.0
    hierarchy_ref_type: int = 1
    seed: int = 0

    def validate(self) -> None:
        probs = (self.pset, self.psimple, self.phier, self.pstoch)
        if any(p < 0 for p in probs):
            raise ParameterError("transaction probabilities must be >= 0")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ParameterError(
                f"pset+psimple+phier+pstoch must sum to 1 (got {sum(probs)})")
        for depth, name in ((self.setdepth, "setdepth"), (self.simdepth, "simdepth"),
                            (self.hiedepth, "hiedepth"), (self.stodepth, "stodepth")):
            if depth < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.coldn < 0 or self.hotn < 0:
            raise ParameterError("coldn and hotn must be >= 0")
        if self.clientn < 1:
            raise ParameterError("clientn must be >= 1")
        if not 0.0 <= self.reverse_probability <= 1.0:
            raise ParameterError("reverse_probability outside [0, 1]")
        if self.think < 0:
            raise ParameterError("think must be >= 0")
        if self.hierarchy_ref_type < 1:
            raise ParameterError("hierarchy_ref_type must be >= 1")
        validate_distribution(self.dist5, 1, 1 << 62, "dist5", allow_special=True)

    def to_dict(self) -> dict:
        from .distributions import format_distribution

        return {
            "setdepth": self.setdepth, "simdepth": self.simdepth,
            "hiedepth": self.hiedepth, "stodepth": self.stodepth,
            "coldn": self.coldn, "hotn": self.hotn, "think": self.think,
            "pset": self.pset, "psimple": self.psimple,
            "phier": self.phier, "pstoch": self.pstoch,
            "dist5": format_distribution(self.dist5),
            "clientn": self.clientn,
            "reverse_probability": self.reverse_probability,
            "hierarchy_ref_type": self.hierarchy_ref_type,
            "seed": self.seed,
        }


@dataclass
class TransactionResult:
    type: str
    root: int
    direction: str
    objects_accessed: int
    distinct_objects: int
    page_faults: int
    simulated_time: float
    accessed: list[int] = field(default_factory=list)


@dataclass
class TransactionRecord:
    """One logged transaction, flattened for aggregation and CSV export.

    `client` and `distinct` are None in a record rebuilt from the CSV
    export by `read_log_csv`, which holds neither value.
    """

    index: int
    phase: str
    client: int | None
    type: str
    direction: str
    root: int
    objects: int
    distinct: int | None
    faults: int
    sim_time: float


@dataclass
class ReorgEvent:
    """A physical reorganization that ran after transaction `after_index`."""

    after_index: int
    reads: int
    writes: int


@dataclass
class ExperimentLog:
    records: list[TransactionRecord] = field(default_factory=list)
    reorgs: list[ReorgEvent] = field(default_factory=list)
    clock: float = 0.0
    transaction_reads: int = 0
    overhead_reads: int = 0
    overhead_writes: int = 0


def _forward_links(db, oid):
    return [(k, t) for k, t in enumerate(db.objects[oid - 1].oref) if t is not None]


def _reverse_links(db, oid):
    return [(k, s) for s, k in db.objects[oid - 1].backref]


def _links(db, oid, direction):
    if direction == REVERSE:
        return _reverse_links(db, oid)
    return _forward_links(db, oid)


def _finish(kind, root, direction, accessed, distinct, storage, faults_before):
    faults = storage.transaction_reads - faults_before
    sim_time = faults * storage.params.io_cost + len(accessed) * storage.params.cpu_cost
    return TransactionResult(type=kind, root=root, direction=direction,
                             objects_accessed=len(accessed),
                             distinct_objects=distinct,
                             page_faults=faults, simulated_time=sim_time,
                             accessed=accessed)


def set_oriented_access(db, storage, root, depth, direction=FORWARD,
                        policy=None) -> TransactionResult:
    """Breadth-first expansion up to `depth` hops.

    Duplicates reached through different branches are accessed (and
    counted) again, but each object is expanded only once.
    """
    access = storage.access_object
    cross = policy.on_link_crossing if policy is not None else None
    faults_before = storage.transaction_reads
    accessed: list[int] = []
    visited: set[int] = set()
    queue = deque(((root, 0),))
    while queue:
        oid, hops = queue.popleft()
        access(oid)
        accessed.append(oid)
        if oid in visited:
            continue
        visited.add(oid)
        if hops == depth:
            continue
        for slot, target in _links(db, oid, direction):
            if cross is not None:
                cross(oid, slot, target)
            queue.append((target, hops + 1))
    return _finish(TYPE_SET, root, direction, accessed, len(visited),
                   storage, faults_before)


def simple_traversal(db, storage, root, depth, direction=FORWARD,
                     policy=None) -> TransactionResult:
    """Depth-first walk over every reference slot, duplicates included."""
    access = storage.access_object
    cross = policy.on_link_crossing if policy is not None else None
    faults_before = storage.transaction_reads
    accessed: list[int] = []

    def walk(oid, hops):
        access(oid)
        accessed.append(oid)
        if hops == depth:
            return
        for slot, target in _links(db, oid, direction):
            if cross is not None:
                cross(oid, slot, target)
            walk(target, hops + 1)

    walk(root, 0)
    return _finish(TYPE_SIMPLE, root, direction, accessed, len(set(accessed)),
                   storage, faults_before)


def hierarchy_traversal(db, storage, root, depth, ref_type, direction=FORWARD,
                        policy=None) -> TransactionResult:
    """Depth-first walk restricted to slots of one reference type."""
    access = storage.access_object
    cross = policy.on_link_crossing if policy is not None else None
    faults_before = storage.transaction_reads
    accessed: list[int] = []
    classes = db.classes
    objects = db.objects

    def typed_links(oid):
        obj = objects[oid - 1]
        if direction == REVERSE:
            return [(k, s) for s, k in obj.backref
                    if classes[objects[s - 1].class_id - 1].tref[k] == ref_type]
        tref = classes[obj.class_id - 1].tref
        return [(k, t) for k, t in enumerate(obj.oref)
                if t is not None and tref[k] == ref_type]

    def walk(oid, hops):
        access(oid)
        accessed.append(oid)
        if hops == depth:
            return
        for slot, target in typed_links(oid):
            if cross is not None:
                cross(oid, slot, target)
            walk(target, hops + 1)

    walk(root, 0)
    return _finish(TYPE_HIERARCHY, root, direction, accessed, len(set(accessed)),
                   storage, faults_before)


def choose_slot(rng: random.Random, slot_count: int) -> int | None:
    """Pick slot N in 1..slot_count with probability 1/2**N.

    The residual 1/2**slot_count mass means "stop here" and returns None.
    Consumes exactly one uniform draw.
    """
    u = rng.random()
    p = 1.0
    for n in range(1, slot_count + 1):
        p *= 0.5
        if u < 1.0 - p:
            return n
    return None


def stochastic_traversal(db, storage, root, depth, direction=FORWARD,
                         policy=None, rng: random.Random | None = None) -> TransactionResult:
    """Random walk choosing one slot per hop; stops on a NULL choice,
    a dead end, the residual stop mass, or after `depth` hops."""
    if rng is None:
        rng = random.Random(0)
    access = storage.access_object
    cross = policy.on_link_crossing if policy is not None else None
    faults_before = storage.transaction_reads
    accessed: list[int] = []
    oid = root
    hops = 0
    while True:
        access(oid)
        accessed.append(oid)
        if hops == depth:
            break
        if direction == REVERSE:
            links = _reverse_links(db, oid)
            choice = choose_slot(rng, len(links))
            if choice is None:
                break
            slot, target = links[choice - 1]
        else:
            oref = db.objects[oid - 1].oref
            choice = choose_slot(rng, len(oref))
            if choice is None:
                break
            slot, target = choice - 1, oref[choice - 1]
            if target is None:
                break
        if cross is not None:
            cross(oid, slot, target)
        oid = target
        hops += 1
    return _finish(TYPE_STOCHASTIC, root, direction, accessed, len(set(accessed)),
                   storage, faults_before)


class _ClientStreams:
    """Per-client deterministic substreams for every random decision."""

    def __init__(self, seed: int, client: int):
        self.types = substream(seed, f"tx-types:{client}")
        self.roots = substream(seed, f"tx-roots:{client}")
        self.directions = substream(seed, f"tx-directions:{client}")
        self.stochastic = substream(seed, f"tx-stochastic:{client}")
        self.think = substream(seed, f"tx-think:{client}")
        self.previous_root: int | None = None

    def draw_root(self, dist5: Distribution, no: int) -> int:
        # Special root selection anchors at the client's previous root,
        # modeling a transaction stream with temporal locality; the first
        # draw (no anchor yet) is uniform.
        if isinstance(dist5, Special) and self.previous_root is not None:
            root = draw_position(dist5, self.roots, 1, no, no, self.previous_root)
        elif isinstance(dist5, Special):
            root = self.roots.randint(1, no)
        else:
            root = draw_bounded(dist5, self.roots, 1, no)
        self.previous_root = root
        return root


def _draw_type(rng: random.Random, params: WorkloadParams) -> str:
    u = rng.random()
    if u < params.pset:
        return TYPE_SET
    if u < params.pset + params.psimple:
        return TYPE_SIMPLE
    if u < params.pset + params.psimple + params.phier:
        return TYPE_HIERARCHY
    return TYPE_STOCHASTIC


def run_transaction(db, storage, params: WorkloadParams, kind: str, root: int,
                    direction: str, policy=None,
                    rng: random.Random | None = None) -> TransactionResult:
    if kind == TYPE_SET:
        return set_oriented_access(db, storage, root, params.setdepth, direction, policy)
    if kind == TYPE_SIMPLE:
        return simple_traversal(db, storage, root, params.simdepth, direction, policy)
    if kind == TYPE_HIERARCHY:
        return hierarchy_traversal(db, storage, root, params.hiedepth,
                                   params.hierarchy_ref_type, direction, policy)
    if kind == TYPE_STOCHASTIC:
        return stochastic_traversal(db, storage, root, params.stodepth,
                                    direction, policy, rng)
    raise ParameterError(f"unknown transaction type {kind!r}")


def run_protocol(db, storage, params: WorkloadParams, policy) -> ExperimentLog:
    """Execute the cold run then the warm run and log every transaction.

    Clients are independent seeded streams interleaved round-robin, one
    transaction each, against the shared buffer. Policy hooks fire during
    (link crossings) and after (period bookkeeping, optional physical
    reorganization) every transaction.
    """
    params.validate()
    total = params.clientn * (params.coldn + params.hotn)
    if total > 0 and not db.objects:
        raise RunError("cannot run transactions against an empty database")
    validate_distribution(params.dist5, 1, max(len(db.objects), 1), "dist5",
                          allow_special=True)
    if params.hierarchy_ref_type > db.params.nreft:
        raise ParameterError(
            f"hierarchy_ref_type {params.hierarchy_ref_type} exceeds nreft "
            f"{db.params.nreft}")
    streams = [_ClientStreams(params.seed, c) for c in range(1, params.clientn + 1)]
    log = ExperimentLog()
    no = len(db.objects)
    index = 0
    for phase, count in (("COLD", params.coldn), ("HOT", params.hotn)):
        for _ in range(count):
            for client, s in enumerate(streams, start=1):
                kind = _draw_type(s.types, params)
                root = s.draw_root(params.dist5, no)
                reversed_run = (params.reverse_probability > 0.0
                                and s.directions.random() < params.reverse_probability)
                direction = REVERSE if reversed_run else FORWARD
                result = run_transaction(db, storage, params, kind, root,
                                         direction, policy, s.stochastic)
                log.clock += result.simulated_time
                if params.think > 0:
                    log.clock += s.think.expovariate(1.0 / params.think)
                log.records.append(TransactionRecord(
                    index=index, phase=phase, client=client, type=kind,
                    direction=direction, root=root,
                    objects=result.objects_accessed,
                    distinct=result.distinct_objects,
                    faults=result.page_faults,
                    sim_time=result.simulated_time))
                if policy is not None:
                    policy.on_transaction_end()
                    placement = policy.maybe_reorganize(storage)
                    if placement is not None:
                        reads, writes = storage.rewrite_placement(placement)
                        log.clock += (reads + writes) * storage.params.io_cost
                        log.reorgs.append(ReorgEvent(after_index=index,
                                                     reads=reads, writes=writes))
                index += 1
    log.transaction_reads = storage.transaction_reads
    log.overhead_reads = storage.overhead_reads
    log.overhead_writes = storage.overhead_writes
    return log


def write_log_csv(log: ExperimentLog, path: str) -> None:
    """One row per transaction; column order is part of the file contract."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in log.records:
            writer.writerow((r.phase, r.type, r.direction, r.root,
                             r.objects, r.faults, repr(r.sim_time)))


def read_log_csv(path: str, reorg_indices=(), reorg_costs=()) -> ExperimentLog:
    """Rebuild a log from its CSV export.

    The CSV holds only transaction rows; reorganization positions live in
    the JSON summary and can be passed back in for gain computation. It
    holds no client or distinct-object count either, so every rebuilt
    record carries None for both.
    """
    log = ExperimentLog()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ParameterError(f"{path}: unexpected CSV header {header}")
        for i, row in enumerate(reader):
            phase, kind, direction, root, objects, faults, sim_time = row
            log.records.append(TransactionRecord(
                index=i, phase=phase, client=None, type=kind, direction=direction,
                root=int(root), objects=int(objects), distinct=None,
                faults=int(faults), sim_time=float(sim_time)))
    indices = list(reorg_indices)
    costs = list(reorg_costs) or [(0, 0)] * len(indices)
    for after, (reads, writes) in zip(indices, costs):
        log.reorgs.append(ReorgEvent(after_index=after, reads=reads, writes=writes))
    return log
