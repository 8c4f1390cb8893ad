"""Synthetic object base construction.

Three steps: instantiate the schema (classes with typed reference slots),
repair the schema so that cycle-forbidding reference types form DAGs and
inheritance sizes propagate, then instantiate objects with inter-object
references, from which class iterators and reverse references are derived.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
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
class GenerationReport(ParamGroup):
    """Counts of reference slots nulled during generation, per cause."""

    null_class_draws: int = 0
    cycle_suppressed: int = 0
    empty_iterator: int = 0
    out_of_range: int = 0


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
    literal over CPython's 4300-digit limit included), `params` or a
    `report` that `from_dict` or `validate()` rejects, or stored data that
    `params` contradict: classes unequal to their regeneration (see
    `_regenerated_classes`), an object value or link at odds with the
    classes (see `_check_values`), or an `iterator` or `backref` list
    unequal to its derivation (see `_check_derived`). So every link follows
    a class edge of its reference type, and an acyclic type has no cycle
    over the objects either. The objects are not regenerated: `infref`,
    `supref`, `dist3` and `dist4` are not compared against them.

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
    group = "generator parameters"
    try:
        params = GeneratorParams.from_dict(payload["params"])
        params.validate()
        group = "generation report"
        report = GenerationReport.from_dict(payload["report"])
        classes = _regenerated_classes(path, params, payload["classes"])
        objects = [
            ObjectInstance(id=o["id"], class_id=o["class_id"], oref=list(o["oref"]),
                           backref=o["backref"], size=o["size"])
            for o in payload["objects"]
        ]
    except ParameterError as exc:
        raise FormatError(f"{path}: invalid {group}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: malformed database body: {type(exc).__name__}: {exc}") from None
    _check_values(path, classes, objects)
    _check_derived(path, classes, objects)
    return Database(params=params, classes=classes, objects=objects, report=report)


def _regenerated_classes(path: str, params: GeneratorParams,
                         stored: list[dict]) -> list[ClassDescriptor]:
    """The classes that `params` generate, each checked against its stored twin.

    Raise FormatError unless the file stores `nc` classes, each with the
    slots `maxnref` gives it, and each stored `id`, `tref`, `cref`,
    `basesize` and `instance_size` equals the generated value, type for
    type: `true` or `1.0` for 1 fails. The counts come first, so that an
    edited `nc` or `maxnref` cannot make the regeneration larger than the
    stored classes. The stored `iterator`s are kept for `_check_derived`.
    """
    if len(stored) != params.nc:
        raise FormatError(f"{path}: invalid generator parameters: nc={params.nc}, "
                          f"but the file stores {len(stored)} classes")
    for class_id, twin in enumerate(stored, start=1):
        if len(twin["tref"]) != params.maxnref_of(class_id):
            raise FormatError(f"{path}: invalid generator parameters: maxnref gives class "
                              f"{class_id} {params.maxnref_of(class_id)} slots, but the "
                              f"file stores {len(twin['tref'])}")
    classes = enforce_consistency(generate_schema(params), params)
    for cls, twin in zip(classes, stored):
        for name in ("id", "tref", "cref", "basesize", "instance_size"):
            value = getattr(cls, name)
            if json.dumps(twin[name]) != json.dumps(value):
                raise FormatError(f"{path}: class {cls.id} has an invalid {name!r}: "
                                  f"{twin[name]!r} (its parameters give {value!r})")
        cls.iterator = twin["iterator"]
    return classes


def _check_values(path: str, classes: list[ClassDescriptor],
                  objects: list[ObjectInstance]) -> None:
    """Raise FormatError naming the first object, and its field, that is at
    odds with the classes.

    Object N must have id N, a `class_id` in 1..len(classes), its class's
    `instance_size` as `size`, and one `oref` entry per slot of its class.
    Once every object passes, each `oref` entry must be None or the id of
    an object of the slot's `cref` class. `iterator` and `backref` lists
    are checked against their derivation (see `_check_derived`).
    """
    nc = len(classes)
    count = len(objects)
    # per class id; entry 0 is a placeholder
    sizes = [0, *map(attrgetter("instance_size"), classes)]
    crefs = [[], *map(attrgetter("cref"), classes)]
    for position, obj in enumerate(objects, start=1):
        class_id = obj.class_id
        if type(obj.id) is not int or obj.id != position:
            field_name, value, bounds = "id", obj.id, f"object ids run from 1 to {count}"
        elif type(class_id) is not int or not 1 <= class_id <= nc:
            field_name, value, bounds = "class_id", class_id, f"classes run from 1 to {nc}"
        elif type(obj.size) is not int or obj.size != sizes[class_id]:
            field_name, value = "size", obj.size
            bounds = f"its class has an 'instance_size' of {sizes[class_id]}"
        elif len(obj.oref) != len(crefs[class_id]):
            field_name, value = "oref", obj.oref
            bounds = f"its class has {len(crefs[class_id])} slots"
        else:
            continue
        raise FormatError(f"{path}: object {position} has an invalid {field_name!r}: "
                          f"{value!r} ({bounds})")
    # class of every object id; entry 0 matches no class
    class_of = [0, *map(attrgetter("class_id"), objects)]
    for obj in objects:
        for target, cref in zip(obj.oref, crefs[obj.class_id]):
            if target is None:
                continue
            if type(target) is not int or not 1 <= target <= count:
                bounds = f"object ids run from 1 to {count}"
            elif class_of[target] != cref:
                bounds = f"object {target} is of class {class_of[target]}, not {cref}"
            else:
                continue
            raise FormatError(f"{path}: object {obj.id} has an invalid 'oref': "
                              f"{obj.oref!r} ({bounds})")


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
