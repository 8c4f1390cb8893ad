"""Synthetic object base construction.

Three steps: instantiate the schema (classes with typed reference slots),
repair the schema so that cycle-forbidding reference types form DAGs and
inheritance sizes propagate, then instantiate objects with inter-object
references, from which class iterators and reverse references are derived.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import chain
from operator import attrgetter, is_not
from typing import Iterator, Sequence

from .distributions import (
    Distribution,
    Uniform,
    bounded_drawer,
    position_drawer,
    substream,
    validate_distribution,
)
from ._collector import collector_paused
from .errors import FormatError, ParameterError
from .params import ParamGroup

DB_MAGIC = "OCBDB1"
DB_FORMAT = 1


@dataclass
class GeneratorParams(ParamGroup):
    """Knobs controlling the shape of the generated object base.

    `maxnref` and `basesize` may be a single int applied to every class
    or a per-class sequence of length `nc`.
    """

    nc: int = 20
    maxnref: int | tuple[int, ...] = 10
    basesize: int | tuple[int, ...] = 50
    no: int = 20000
    nreft: int = 4
    infclass: int = 1
    supclass: int | None = None  # None resolves to nc
    infref: int = 1
    supref: int | None = None  # None resolves to no
    dist1: Distribution = Uniform()
    dist2: Distribution = Uniform()
    dist3: Distribution = Uniform()
    dist4: Distribution = Uniform()
    seed: int = 0
    acyclic_types: frozenset[int] = frozenset({1, 2})
    inheritance_types: frozenset[int] = frozenset({1})

    def __post_init__(self):
        if self.supclass is None:
            self.supclass = self.nc
        if self.supref is None:
            self.supref = self.no
        if not isinstance(self.acyclic_types, frozenset):
            self.acyclic_types = frozenset(self.acyclic_types)
        if not isinstance(self.inheritance_types, frozenset):
            self.inheritance_types = frozenset(self.inheritance_types)

    def maxnref_of(self, class_id: int) -> int:
        return self.maxnref if isinstance(self.maxnref, int) else self.maxnref[class_id - 1]

    def basesize_of(self, class_id: int) -> int:
        return self.basesize if isinstance(self.basesize, int) else self.basesize[class_id - 1]

    def validate(self) -> None:
        if self.nc < 1:
            raise ParameterError("nc must be >= 1")
        if self.no < 0:
            raise ParameterError("no must be >= 0")
        if self.nreft < 1:
            raise ParameterError("nreft must be >= 1")
        for per_class, name in ((self.maxnref, "maxnref"), (self.basesize, "basesize")):
            if isinstance(per_class, int):
                values: Sequence[int] = (per_class,)
            else:
                if len(per_class) != self.nc:
                    raise ParameterError(f"{name} list must have nc={self.nc} entries")
                values = per_class
            if any(v < 0 for v in values):
                raise ParameterError(f"{name} entries must be >= 0")
        if not 0 <= self.infclass <= self.supclass <= self.nc:
            raise ParameterError(
                f"class interval [{self.infclass}, {self.supclass}] "
                f"invalid for nc={self.nc}")
        if self.infref < 1:
            raise ParameterError("infref must be >= 1")
        if self.no > 0 and self.infref > self.supref:
            raise ParameterError(
                f"object interval [{self.infref}, {self.supref}] invalid")
        if not self.inheritance_types <= self.acyclic_types:
            raise ParameterError("inheritance_types must be a subset of acyclic_types")
        validate_distribution(self.dist1, 1, self.nreft, "dist1")
        validate_distribution(self.dist2, self.infclass, self.supclass, "dist2")
        validate_distribution(self.dist3, 1, self.nc, "dist3")
        validate_distribution(self.dist4, 1, max(self.supref, 1), "dist4",
                              allow_special=True)


@dataclass
class ClassDescriptor:
    """One schema class: typed reference slots plus its instance roster."""

    id: int
    tref: list[int]
    cref: list[int | None]
    basesize: int
    instance_size: int
    iterator: list[int] = field(default_factory=list)


@dataclass
class ObjectInstance:
    """One database object; backref holds (source object id, slot) pairs."""

    id: int
    class_id: int
    oref: list[int | None]
    backref: list[tuple[int, int]] = field(default_factory=list)
    size: int = 0


@dataclass
class GenerationReport:
    """Counts of reference slots nulled during generation, per cause."""

    null_class_draws: int = 0
    cycle_suppressed: int = 0
    empty_iterator: int = 0
    out_of_range: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Database:
    """A fully generated object base, immutable by convention after build.

    The link tables that the traversals walk are derived from `oref` and
    `backref` on first use and cached; they are never saved, and take no
    part in equality or repr.
    """

    params: GeneratorParams
    classes: list[ClassDescriptor]
    objects: list[ObjectInstance]
    report: GenerationReport = field(default_factory=GenerationReport)
    _link_tables: dict[tuple[bool, int | None], list[tuple[int, ...]]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def link_table(self, reverse: bool = False,
                   ref_type: int | None = None) -> list[tuple[int, ...]]:
        """Link targets of every object, as `table[object id]`, in slot order.

        Forward, an object's targets are its non-None `oref` entries; reversed,
        they are its `backref` sources. A `ref_type` keeps only the links whose
        slot has that reference type. Entry 0 is an empty placeholder.
        """
        key = (reverse, ref_type)
        table = self._link_tables.get(key)
        if table is None:
            objects = self.objects
            tref_of = [self.classes[o.class_id - 1].tref for o in objects]
            if reverse:
                rows = [tuple(s for s, k in o.backref
                              if ref_type is None or tref_of[s - 1][k] == ref_type)
                        for o in objects]
            else:
                rows = [tuple(t for k, t in enumerate(o.oref) if t is not None
                              and (ref_type is None or tref[k] == ref_type))
                        for o, tref in zip(objects, tref_of)]
            table = self._link_tables[key] = [(), *rows]
        return table


def generate_schema(params: GeneratorParams,
                    report: GenerationReport | None = None) -> list[ClassDescriptor]:
    """Create nc classes with typed reference slots into [infclass, supclass].

    A class-reference draw of 0 (possible when infclass = 0) means the slot
    has no target class.
    """
    params.validate()
    draw_type = bounded_drawer(params.dist1, substream(params.seed, "schema-types"),
                               1, params.nreft)
    draw_class = bounded_drawer(params.dist2, substream(params.seed, "schema-classes"),
                                params.infclass, params.supclass)
    classes: list[ClassDescriptor] = []
    for i in range(1, params.nc + 1):
        # the two drawers read separate substreams, so they may interleave
        n = params.maxnref_of(i)
        base = params.basesize_of(i)
        classes.append(ClassDescriptor(id=i, tref=[draw_type() for _ in range(n)],
                                       cref=[draw_class() or None for _ in range(n)],
                                       basesize=base, instance_size=base))
    if report is not None:
        report.null_class_draws += sum(cls.cref.count(None) for cls in classes)
    return classes


def _type_targets(schema: list[ClassDescriptor], class_id: int, ref_type: int) -> list[int]:
    cls = schema[class_id - 1]
    return [c for t, c in zip(cls.tref, cls.cref) if t == ref_type and c is not None]


def _would_close_cycle(schema: list[ClassDescriptor], source: int, start: int,
                       ref_type: int) -> bool:
    """Walk the class graph of one reference type from `start`.

    True when the walk reaches `source` (the slot under scrutiny would close
    a cycle) or when the walked subgraph already contains a cycle.
    """
    if start == source:
        return True
    # colors: 1 = on the walk stack, 2 = fully explored
    color: dict[int, int] = {start: 1}
    stack: list[tuple[int, Iterator[int]]] = [
        (start, iter(_type_targets(schema, start, ref_type)))]
    while stack:
        node, targets = stack[-1]
        pushed = False
        for nxt in targets:
            if nxt == source:
                return True
            c = color.get(nxt, 0)
            if c == 1:
                return True
            if c == 0:
                color[nxt] = 1
                stack.append((nxt, iter(_type_targets(schema, nxt, ref_type))))
                pushed = True
                break
        if not pushed:
            color[node] = 2
            stack.pop()
    return False


def _inheritance_descendants(schema: list[ClassDescriptor], root: int,
                             inheritance_types: frozenset[int]) -> set[int]:
    """All classes reachable from `root` through inheritance-typed slots."""
    seen: set[int] = set()
    stack = [c for t, c in zip(schema[root - 1].tref, schema[root - 1].cref)
             if t in inheritance_types and c is not None]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        cls = schema[node - 1]
        for t, c in zip(cls.tref, cls.cref):
            if t in inheritance_types and c is not None and c not in seen:
                stack.append(c)
    seen.discard(root)
    return seen


def enforce_consistency(schema: list[ClassDescriptor], params: GeneratorParams,
                        report: GenerationReport | None = None) -> list[ClassDescriptor]:
    """Repair the schema in place: suppress cycles, then propagate sizes.

    Classes are scanned in ascending id, slots in ascending index; the first
    slot that would close a cycle in its reference type's class graph is
    nulled. Once every cycle-forbidding type graph is a DAG, each superclass
    adds its base size to the instance size of all classes reachable through
    inheritance-typed slots. Idempotent.
    """
    for cls in schema:
        for j, ref_type in enumerate(cls.tref):
            if ref_type not in params.acyclic_types or cls.cref[j] is None:
                continue
            if _would_close_cycle(schema, cls.id, cls.cref[j], ref_type):
                cls.cref[j] = None
                if report is not None:
                    report.cycle_suppressed += 1
    # sizes recomputed from scratch so a second pass changes nothing
    for cls in schema:
        cls.instance_size = cls.basesize
    if params.inheritance_types:
        for cls in schema:
            for sub in _inheritance_descendants(schema, cls.id, params.inheritance_types):
                schema[sub - 1].instance_size += cls.basesize
    return schema


def generate_objects(schema: list[ClassDescriptor], params: GeneratorParams,
                     report: GenerationReport | None = None) -> list[ObjectInstance]:
    """Instantiate `no` objects and wire their references.

    Each object's class comes from dist3; the class iterators and the
    reverse references are then derived (see `derive_iterators` and
    `derive_backrefs`). Reference targets are iterator positions of the
    slot's target class, drawn through dist4 with the object's own iterator
    position as the locality anchor.
    """
    draw_class = bounded_drawer(params.dist3, substream(params.seed, "object-classes"),
                                1, params.nc)
    rng_refs = substream(params.seed, "object-refs")
    drawn = [schema[draw_class() - 1] for _ in range(params.no)]
    objects = [ObjectInstance(id=oid, class_id=cls.id, oref=[None] * len(cls.tref),
                              size=cls.instance_size)
               for oid, cls in enumerate(drawn, start=1)]
    for cls, iterator in zip(schema, derive_iterators(len(schema), objects)):
        cls.iterator = iterator

    empty_iterator = out_of_range = 0
    for cls in schema:
        # one (slot, target iterator, position drawer) per slot with targets
        slots = []
        for k, target_class in enumerate(cls.cref):
            if target_class is None:
                continue
            iterator = schema[target_class - 1].iterator
            if not iterator:
                empty_iterator += len(cls.iterator)
                continue
            slots.append((k, iterator, position_drawer(
                params.dist4, rng_refs, params.infref, params.supref, len(iterator))))
        if not slots:
            continue
        for position, oid in enumerate(cls.iterator, start=1):
            oref = objects[oid - 1].oref
            for k, iterator, draw_position in slots:
                pos = draw_position(position)
                if pos is None:
                    out_of_range += 1
                    continue
                oref[k] = iterator[pos - 1]
    for obj, backref in zip(objects, derive_backrefs(schema, objects)):
        obj.backref = backref
    if report is not None:
        report.empty_iterator += empty_iterator
        report.out_of_range += out_of_range
    return objects


def derive_iterators(nc: int, objects: list[ObjectInstance]) -> list[list[int]]:
    """Every class's iterator: the ids of its objects, ascending."""
    iterators: list[list[int]] = [[] for _ in range(nc)]
    for obj in objects:
        iterators[obj.class_id - 1].append(obj.id)
    return iterators


def derive_backrefs(classes: list[ClassDescriptor],
                    objects: list[ObjectInstance]) -> list[list[tuple[int, int]]]:
    """Every object's backref: a (source id, slot) pair per link to it.

    Sources come in class order, then in ascending id (the class
    iterators' order), slots ascending: the order in which generation
    draws the links.
    """
    backrefs: list[list[tuple[int, int]]] = [[] for _ in objects]
    for cls in classes:
        for oid in cls.iterator:
            for k, target in enumerate(objects[oid - 1].oref):
                if target is not None:
                    backrefs[target - 1].append((oid, k))
    return backrefs


def generate_database(params: GeneratorParams) -> Database:
    """Run all three generation steps and return the finished database.

    As in `load_database`, the cyclic garbage collector is suspended while
    the objects are built, and restored to the caller's state on return.
    """
    with collector_paused():
        report = GenerationReport()
        schema = generate_schema(params, report)
        enforce_consistency(schema, params, report)
        objects = generate_objects(schema, params, report)
        return Database(params=params, classes=schema, objects=objects, report=report)


def save_database(db: Database, path: str) -> None:
    """Write the database as a magic line followed by one canonical JSON body."""
    payload = {
        "format": DB_FORMAT,
        "params": db.params.to_dict(),
        "classes": [
            {"id": c.id, "tref": c.tref, "cref": c.cref, "basesize": c.basesize,
             "instance_size": c.instance_size, "iterator": c.iterator}
            for c in db.classes
        ],
        "objects": [
            {"id": o.id, "class_id": o.class_id, "oref": o.oref,
             "backref": o.backref, "size": o.size}
            for o in db.objects
        ],
        "report": db.report.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DB_MAGIC + "\n")
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_database(path: str) -> Database:
    """Read a database file back; inverse of save_database.

    Raises FormatError, naming the file, for a file that is not UTF-8 text,
    a wrong magic line or format version, a malformed body (an integer
    literal over CPython's 4300-digit limit included), generator
    parameters that `GeneratorParams.from_dict` or `validate()` rejects, a
    value out of range (see `_check_values`), or a class `iterator` or
    object `backref` list that does not equal, int for int, its derivation
    from the objects' `class_id`s and `oref`s (see `_check_derived`).

    Each distinct integer literal of the file becomes one int object, as in
    a generated database: an object's `id`, the `oref` targets that name it
    and the derived `backref` sources and `iterator` entries are the same
    object, and so are the link-table, placement and buffer keys built from
    them. A dict or set probe that finds the very key it looks for skips
    the value compare, and the database holds one int per id, not one per
    occurrence. Only integer literals pass through the memo, so `true` or
    `1.0` still reach the checks unchanged. The cyclic garbage collector is
    suspended while the file is parsed and checked, and restored to the
    caller's state on return, also when loading fails: the loaded database
    holds no reference cycles, so a collector pass would find nothing.
    """
    with collector_paused():
        return _load_database(path)


class _IntMemo(dict):
    """JSON integer literal -> int, made once per distinct literal.

    Its `__getitem__` is the `parse_int` hook of one load, so every
    occurrence of an id in the file is the same int object.
    """

    def __missing__(self, literal: str) -> int:
        value = self[literal] = int(literal)
        return value


def _load_database(path: str) -> Database:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            magic = fh.readline().rstrip("\n")
            if magic != DB_MAGIC:
                raise FormatError(f"{path}: bad magic header {magic!r}")
            try:
                payload = json.load(fh, parse_int=_IntMemo().__getitem__)
            except ValueError as exc:  # a JSONDecodeError, or an int over 4300 digits
                raise FormatError(f"{path}: malformed database body: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: database file is not UTF-8 text: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: database body is not a JSON object")
    if payload.get("format") != DB_FORMAT:
        raise FormatError(f"{path}: unsupported format version {payload.get('format')!r}")
    try:
        params = GeneratorParams.from_dict(payload["params"])
        params.validate()
        # iterators and backrefs stay as parsed until _check_derived
        classes = [
            ClassDescriptor(id=c["id"], tref=list(c["tref"]), cref=list(c["cref"]),
                            basesize=c["basesize"], instance_size=c["instance_size"],
                            iterator=c["iterator"])
            for c in payload["classes"]
        ]
        objects = [
            ObjectInstance(id=o["id"], class_id=o["class_id"], oref=list(o["oref"]),
                           backref=o["backref"], size=o["size"])
            for o in payload["objects"]
        ]
        report_d = payload.get("report", {})
        report = GenerationReport(**{f.name: report_d.get(f.name, 0)
                                     for f in fields(GenerationReport)})
    except ParameterError as exc:
        raise FormatError(f"{path}: invalid generator parameters: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: malformed database body: {type(exc).__name__}: {exc}") from None
    _check_values(path, params.nreft, classes, objects)
    _check_derived(path, classes, objects)
    return Database(params=params, classes=classes, objects=objects, report=report)


def _check_values(path: str, nreft: int, classes: list[ClassDescriptor],
                  objects: list[ObjectInstance]) -> None:
    """Raise FormatError unless every class and object value is in range.

    Class N must have id N and `tref` entries that are reference types
    (1..nreft). Object N must have id N, a `class_id` in 1..len(classes),
    a size that is an int >= 0, and one `oref` entry per `tref` entry of
    its class, each None or an object id. The `iterator` and `backref`
    lists have no range rule: each must equal its derivation from these
    values (see `_check_derived`). Bulk passes over all values decide
    whether anything is wrong; only then does a per-class and per-object
    pass name the first offending class or object and field.
    """
    nc = len(classes)
    count = len(objects)
    class_ids = list(map(attrgetter("id"), classes))
    trefs = list(chain.from_iterable(map(attrgetter("tref"), classes)))
    ids = list(map(attrgetter("id"), objects))
    classes_of = list(map(attrgetter("class_id"), objects))
    sizes = list(map(attrgetter("size"), objects))
    refs = list(filter(partial(is_not, None),
                       chain.from_iterable(map(attrgetter("oref"), objects))))
    # slot counts, indexed by class id
    tref_counts = [0, *map(len, map(attrgetter("tref"), classes))]

    def within(values: list[int], high: int) -> bool:
        return min(values, default=1) >= 1 and max(values, default=high) <= high

    values = chain(class_ids, trefs, ids, classes_of, sizes, refs)
    if (set(map(type, values)) <= {int}
            and class_ids == list(range(1, nc + 1)) and ids == list(range(1, count + 1))
            and within(trefs, nreft) and within(classes_of, nc) and within(refs, count)
            and min(sizes, default=0) >= 0
            and list(map(len, map(attrgetter("oref"), objects)))
            == list(map(tref_counts.__getitem__, classes_of))):
        return

    def in_range(value, high: int) -> bool:
        return type(value) is int and 1 <= value <= high

    classes_run = f"classes run from 1 to {nc}"
    objects_run = f"object ids run from 1 to {count}"
    for position, cls in enumerate(classes, start=1):
        if type(cls.id) is not int or cls.id != position:
            field_name, value, bounds = "id", cls.id, classes_run
        elif not all(in_range(t, nreft) for t in cls.tref):
            field_name, value, bounds = "tref", cls.tref, f"reference types run from 1 to {nreft}"
        else:
            continue
        raise FormatError(f"{path}: class {position} has an invalid {field_name!r}: "
                          f"{value!r} ({bounds})")
    for position, obj in enumerate(objects, start=1):
        if type(obj.id) is not int or obj.id != position:
            field_name, value, bounds = "id", obj.id, objects_run
        elif not in_range(obj.class_id, nc):
            field_name, value, bounds = "class_id", obj.class_id, classes_run
        elif type(obj.size) is not int or obj.size < 0:
            field_name, value, bounds = "size", obj.size, "sizes are ints >= 0"
        elif len(obj.oref) != tref_counts[obj.class_id]:
            field_name, value = "oref", obj.oref
            bounds = f"its class has a 'tref' of length {tref_counts[obj.class_id]}"
        elif not all(target is None or in_range(target, count) for target in obj.oref):
            field_name, value, bounds = "oref", obj.oref, objects_run
        else:
            continue
        raise FormatError(f"{path}: object {position} has an invalid {field_name!r}: "
                          f"{value!r} ({bounds})")


def _check_derived(path: str, classes: list[ClassDescriptor],
                   objects: list[ObjectInstance]) -> None:
    """Replace each stored `iterator` and `backref` by its derivation.

    Raise FormatError at the first stored list, classes first, that does
    not equal the derived one int for int: `true` or `1.0` for 1 fails.
    """
    for cls, iterator in zip(classes, derive_iterators(len(classes), objects)):
        if cls.iterator != iterator or not set(map(type, cls.iterator)) <= {int}:
            raise FormatError(f"{path}: class {cls.id} has an invalid 'iterator': "
                              f"{cls.iterator!r} (its objects are {iterator!r})")
        cls.iterator = iterator
    for obj, backref in zip(objects, derive_backrefs(classes, objects)):
        pairs = list(map(list, backref))
        if obj.backref != pairs or not set(map(type, chain(*obj.backref))) <= {int}:
            raise FormatError(f"{path}: object {obj.id} has an invalid 'backref': "
                              f"{obj.backref!r} (the links to it are {pairs!r})")
        obj.backref = backref
