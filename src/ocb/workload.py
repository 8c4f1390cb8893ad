"""Transaction families and the cold/warm execution protocol.

Four read-only transaction types run against the simulated store: a
breadth-first set-oriented access, a depth-first simple traversal, a
hierarchy traversal restricted to one reference type, and a stochastic
traversal that picks one slot per hop with geometrically decaying
probability. Each can run forward over object references or reversed
over the recorded back references. They walk the database's link tables
(`Database.link_table`) without recursion: the set-oriented access level by
level, the two depth-first walks on one explicit stack.

A traversal is a walk over the object graph alone. It returns three
values: `accessed`, the ids it accessed, in order; `links`, the database's
cached link table of its direction, never copied; and `expanded`, each
node whose whole row `links[node]` it crossed, once per time it crossed
it. The set, simple and hierarchy walks cross only whole rows: the pairs
(a, t) for a in `expanded` and t in `links[a]`, one per access after the
root. A walk that expanded none is a path, and its crossings are the
consecutive pairs of `accessed`: a stochastic walk, which picks one slot
per hop, or any walk at depth 0. No traversal builds a list with one
entry per crossing.
`transaction_stream` yields all three once per transaction, with its draws;
`run_protocol` replays that stream, hands each walk to the policy's crossing
hook, replays `accessed` through the page buffer and derives the
transaction's faults and simulated time from it. A client whose set,
simple or hierarchy transaction repeats its previous one in type, root and
direction (as sticky `special` roots make common) gets the previous walk
again, the same lists, without walking it; a stochastic transaction is
always walked, since it draws. So nothing that receives a walk may change
its lists.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter

from .distributions import (
    Distribution,
    Uniform,
    position_drawer,
    substream,
    validate_distribution,
)
from ._collector import collector_paused
from .errors import ParameterError, RunError
from .params import ParamGroup, bounded

FORWARD = "forward"
REVERSE = "reverse"
TYPE_SET = "set"
TYPE_SIMPLE = "simple"
TYPE_HIERARCHY = "hierarchy"
TYPE_STOCHASTIC = "stochastic"
TRANSACTION_TYPES = (TYPE_SET, TYPE_SIMPLE, TYPE_HIERARCHY, TYPE_STOCHASTIC)
PHASES = ("COLD", "HOT")  # the cold run, then the warm run

CSV_COLUMNS = ("phase", "type", "direction", "root", "objects", "faults", "sim_time")

# a traversal's (accessed, links, expanded); see the module docstring
Walk = tuple[list[int], list[tuple[int, ...]], list[int]]


@dataclass(frozen=True)
class WorkloadParams(ParamGroup):
    setdepth: int = bounded(3, 0)
    simdepth: int = bounded(3, 0)
    hiedepth: int = bounded(5, 0)
    stodepth: int = bounded(50, 0)
    coldn: int = bounded(1000, 0)
    hotn: int = bounded(10000, 0)
    think: float = bounded(0.0, 0)
    pset: float = bounded(0.25, 0)
    psimple: float = bounded(0.25, 0)
    phier: float = bounded(0.25, 0)
    pstoch: float = bounded(0.25, 0)
    dist5: Distribution = Uniform()
    clientn: int = bounded(1, 1)
    reverse_probability: float = bounded(0.0, 0, 1)
    hierarchy_ref_type: int = bounded(1, 1)
    seed: int = 0

    def validate(self) -> None:
        super().validate()
        probs = (self.pset, self.psimple, self.phier, self.pstoch)
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ParameterError(
                f"pset+psimple+phier+pstoch must sum to 1 (got {sum(probs)})")
        # no upper bound here: transaction_stream checks it against the objects
        validate_distribution(self.dist5, 1, math.inf, "dist5", allow_special=True)


@dataclass
class TransactionRecord:
    """One logged transaction, flattened for aggregation and CSV export."""

    index: int
    phase: str
    type: str
    direction: str
    root: int
    objects: int
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
    """A run's transactions, reorganizations and simulated clock. Its I/O totals
    are derived from them: this run's own, not the storage's lifetime counts."""

    records: list[TransactionRecord] = field(default_factory=list)
    reorgs: list[ReorgEvent] = field(default_factory=list)
    clock: float = 0.0
    transaction_reads = property(lambda self: sum(r.faults for r in self.records))
    overhead_reads = property(lambda self: sum(e.reads for e in self.reorgs))
    overhead_writes = property(lambda self: sum(e.writes for e in self.reorgs))


def set_oriented_access(db, root, depth, direction=FORWARD) -> Walk:
    """Breadth-first expansion up to `depth` hops, one level at a time.

    Duplicates reached through different branches are accessed (and
    counted) again, but each object is expanded only once.
    """
    links = db.link_table(direction == REVERSE)
    accessed = [root]
    expanded: list[int] = []
    visited: set[int] = set()
    level = [root]
    for _ in range(depth):
        following: list[int] = []
        for oid in level:
            if oid in visited:
                continue
            visited.add(oid)
            expanded.append(oid)
            following += links[oid]
        if not following:
            break
        accessed += following
        level = following
    return accessed, links, expanded


def _depth_first(links, root, depth) -> Walk:
    """Preorder walk of `links` from `root`, `depth` hops deep, duplicates
    included, on an explicit stack of (node, hops of its children, iterator
    over its remaining children). Every node pushed crosses its whole row,
    so `expanded` is the pushed nodes in push order."""
    accessed = [root]
    append = accessed.append
    stack = [(root, 1, iter(links[root]))] if depth > 0 else []
    expanded = [root] if depth > 0 else []
    expand = expanded.append
    push = stack.append
    pop = stack.pop
    while stack:
        node, hops, targets = stack[-1]
        if hops < depth:
            # descend into the next child; the frame resumes after it
            for target in targets:
                append(target)
                expand(target)
                push((target, hops + 1, iter(links[target])))
                break
            else:
                pop()
        else:
            # the children are leaves: access them all and drop the frame
            pop()
            accessed += links[node]
    return accessed, links, expanded


def simple_traversal(db, root, depth, direction=FORWARD) -> Walk:
    """Depth-first walk over every reference slot, duplicates included."""
    return _depth_first(db.link_table(direction == REVERSE), root, depth)


def hierarchy_traversal(db, root, depth, ref_type, direction=FORWARD) -> Walk:
    """Depth-first walk restricted to slots of one reference type."""
    return _depth_first(db.link_table(direction == REVERSE, ref_type), root, depth)


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


def stochastic_traversal(db, root, depth, direction=FORWARD, *,
                         rng: random.Random) -> Walk:
    """Random walk choosing one slot per hop; stops on a NULL choice,
    a dead end, the residual stop mass, or after `depth` hops.

    Forward, the choice runs over every `oref` slot, NULL ones included;
    reversed, over the object's back references. The walk is a path, so
    each access is the source of the next crossing: it returns the link
    table of its direction and expands nothing."""
    reverse = direction == REVERSE
    links = db.link_table(reverse)
    objects = db.objects
    accessed: list[int] = []
    oid = root
    hops = 0
    while True:
        accessed.append(oid)
        if hops == depth:
            break
        slots = links[oid] if reverse else objects[oid - 1].oref
        choice = choose_slot(rng, len(slots))
        if choice is None:
            break
        target = slots[choice - 1]
        if target is None:
            break
        oid = target
        hops += 1
    return accessed, links, []


def _draw_type(rng: random.Random, params: WorkloadParams) -> str:
    u = rng.random()
    if u < params.pset:
        return TYPE_SET
    if u < params.pset + params.psimple:
        return TYPE_SIMPLE
    if u < params.pset + params.psimple + params.phier:
        return TYPE_HIERARCHY
    return TYPE_STOCHASTIC


def run_transaction(db, params: WorkloadParams, kind: str, root: int, direction: str,
                    rng: random.Random, previous=None) -> Walk:
    """Run one traversal of type `kind`; return its (accessed, links, expanded).

    `previous` is the calling client's previous transaction as (kind, root,
    direction, walk), or None. A set, simple or hierarchy walk depends only
    on `db`, `params` and its kind, root and direction, so when it repeats
    `previous` in all three, `previous`'s walk is returned as it is: the
    same lists, not walked again. A stochastic walk draws from `rng`, so it
    is always walked.
    """
    if (kind != TYPE_STOCHASTIC and previous is not None
            and previous[:3] == (kind, root, direction)):
        return previous[3]
    if kind == TYPE_SET:
        return set_oriented_access(db, root, params.setdepth, direction)
    if kind == TYPE_SIMPLE:
        return simple_traversal(db, root, params.simdepth, direction)
    if kind == TYPE_HIERARCHY:
        return hierarchy_traversal(db, root, params.hiedepth, params.hierarchy_ref_type,
                                   direction)
    if kind == TYPE_STOCHASTIC:
        return stochastic_traversal(db, root, params.stodepth, direction, rng=rng)
    raise ParameterError(f"unknown transaction type {kind!r}")


def _client_transactions(db, params: WorkloadParams, client: int):
    """One client's endless (type, direction, root, walk, think) transactions,
    each decision drawn from the client's own deterministic substream.

    Each `run_transaction` call gets the client's previous transaction, so
    a set, simple or hierarchy transaction that repeats it in type, root
    and direction yields the previous walk again, the very same lists."""
    types, roots, directions, stochastic, think = (
        substream(params.seed, f"tx-{name}:{client}")
        for name in ("types", "roots", "directions", "stochastic", "think"))
    # Special root selection anchors at the client's previous root, for a
    # stream with temporal locality; the first draw (no anchor yet) is uniform.
    draw_root = position_drawer(params.dist5, roots, 1, len(db.objects), len(db.objects))
    root = previous = None
    while True:
        kind = _draw_type(types, params)
        root = draw_root(root)
        direction = (REVERSE if params.reverse_probability > 0.0
                     and directions.random() < params.reverse_probability else FORWARD)
        # positional: the bench and a test wrap run_transaction with *args
        walk = run_transaction(db, params, kind, root, direction, stochastic, previous)
        previous = (kind, root, direction, walk)
        yield (kind, direction, root, walk,
               think.expovariate(1.0 / params.think) if params.think > 0 else 0.0)


def transaction_stream(db, params: WorkloadParams):
    """The logical run, the cold run then the warm run: a lazy stream of
    (phase, client, type, direction, root, walk, think), with `walk` a
    traversal's (accessed, links, expanded) and `think` 0.0, undrawn, when
    `params.think` is 0. Clients are independent seeded streams interleaved
    round-robin, one transaction each. The stream reads no placement and no
    policy, so it is the same under all of them. Its checks against `db`
    run at the call; each step then makes one `run_transaction` call, which
    walks its transaction unless it repeats the client's previous walk,
    and walks none ahead.
    """
    if params.coldn + params.hotn > 0 and not db.objects:
        raise RunError("cannot run transactions against an empty database")
    validate_distribution(params.dist5, 1, max(len(db.objects), 1), "dist5",
                          allow_special=True)
    if params.hierarchy_ref_type > db.params.nreft:
        raise ParameterError(
            f"hierarchy_ref_type {params.hierarchy_ref_type} exceeds nreft "
            f"{db.params.nreft}")
    clients = [_client_transactions(db, params, c) for c in range(1, params.clientn + 1)]
    return ((phase, client) + next(transactions)
            for phase, count in zip(PHASES, (params.coldn, params.hotn))
            for _ in range(count)
            for client, transactions in enumerate(clients, start=1))


def run_protocol(db, storage, params: WorkloadParams, policy) -> ExperimentLog:
    """Replay `transaction_stream(db, params)` and log every transaction.

    The policy sees each walk's link crossings in one
    `on_link_crossing(accessed, links, expanded)` call, then its access list
    is replayed through the shared buffer; its faults and simulated time are
    counted here and nowhere else. Then the policy's period bookkeeping and
    optional physical reorganization run. `policy` is any object with the
    three hooks of `NoClustering`, the baseline. A run whose simulated clock
    overflows to infinity raises RunError, so no report holds an infinite time.

    Once the parameters are checked, the cyclic garbage collector is
    suspended for the whole run, transactions, policy phases and storage
    rewrites alike, and restored to the caller's state on return, also when
    the run raises. Nothing the run allocates forms a reference cycle, so a
    collector pass would only walk the live database and free nothing.
    """
    stream = transaction_stream(db, params)
    with collector_paused():
        log = ExperimentLog()
        access = storage.access_object
        io_cost = storage.params.io_cost
        cpu_cost = storage.params.cpu_cost
        for index, (phase, _client, kind, direction, root, (accessed, links, expanded),
                    think) in enumerate(stream):
            policy.on_link_crossing(accessed, links, expanded)
            reads_before = storage.transaction_reads
            for oid in accessed:
                access(oid)
            faults = storage.transaction_reads - reads_before
            objects = len(accessed)
            sim_time = faults * io_cost + objects * cpu_cost
            log.clock += sim_time
            log.clock += think
            log.records.append(TransactionRecord(
                index=index, phase=phase, type=kind,
                direction=direction, root=root, objects=objects,
                faults=faults, sim_time=sim_time))
            policy.on_transaction_end()
            placement = policy.maybe_reorganize(storage)
            if placement is not None:
                reads, writes = storage.rewrite_placement(placement)
                log.clock += (reads + writes) * io_cost
                log.reorgs.append(ReorgEvent(after_index=index,
                                             reads=reads, writes=writes))
        if not math.isfinite(log.clock):
            # every term is >= 0, so a finite clock bounds every sim_time too
            raise RunError(f"the simulated clock overflowed to {log.clock}: io_cost, "
                           f"cpu_cost or think is too large for this run")
        return log


def write_log_csv(log: ExperimentLog, path: str) -> None:
    """One row per transaction, its attributes named by `CSV_COLUMNS`, whose
    order is part of the file contract; csv writes a float as its `repr`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(attrgetter(*CSV_COLUMNS), log.records))

