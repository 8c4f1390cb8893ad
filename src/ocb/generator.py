"""Synthetic object base construction.

Three steps: instantiate the schema (classes with typed reference slots),
repair the schema, then instantiate objects, derive the class iterators,
and draw the inter-object references, each recorded as a reverse reference
in its target. The repair scans the slots in order (classes by ascending
id, slots by ascending index) and nulls a slot of a cycle-forbidding type
when its target reaches the slot's own class, or reaches a cycle, through
slots of its type; so each such type's class graph is a DAG. Each class's
instance size is then its base size plus the base size of each ancestor
(each class that reaches it through inheritance-typed slots), added once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from typing import NoReturn

from .distributions import (
    Distribution,
    Uniform,
    bounded_drawer,
    position_drawer,
    substream,
    validate_distribution,
)
from ._collector import collector_paused
from ._files import replace_files
from .errors import FormatError, ParameterError
from .params import ParamGroup, bounded

DB_MAGIC = "OCBDB1"
DB_FORMAT = 1


@dataclass(frozen=True)
class GeneratorParams(ParamGroup):
    """Knobs controlling the shape of the generated object base.

    `maxnref` and `basesize` may be a single int applied to every class
    or a per-class sequence of length `nc`, held as a tuple.
    """

    nc: int = bounded(20, 1)
    maxnref: int | tuple[int, ...] = bounded(10, 0)
    basesize: int | tuple[int, ...] = bounded(50, 0)
    no: int = bounded(20000, 0)
    nreft: int = bounded(4, 1)
    infclass: int = 1
    supclass: int | None = None  # None resolves to nc
    infref: int = bounded(1, 1)
    supref: int | None = None  # None resolves to no
    dist1: Distribution = Uniform()
    dist2: Distribution = Uniform()
    dist3: Distribution = Uniform()
    dist4: Distribution = Uniform()
    seed: int = 0
    acyclic_types: frozenset[int] = frozenset({1, 2})
    inheritance_types: frozenset[int] = frozenset({1})

    def __post_init__(self):
        resolve = partial(object.__setattr__, self)  # the group is frozen
        resolve("supclass", self.nc if self.supclass is None else self.supclass)
        resolve("supref", self.no if self.supref is None else self.supref)
        resolve("acyclic_types", frozenset(self.acyclic_types))
        resolve("inheritance_types", frozenset(self.inheritance_types))
        for name in ("maxnref", "basesize"):
            if isinstance(getattr(self, name), list):
                resolve(name, tuple(getattr(self, name)))
        super().__post_init__()

    def maxnref_of(self, class_id: int) -> int:
        return self.maxnref if isinstance(self.maxnref, int) else self.maxnref[class_id - 1]

    def basesize_of(self, class_id: int) -> int:
        return self.basesize if isinstance(self.basesize, int) else self.basesize[class_id - 1]

    def validate(self) -> None:
        super().validate()
        for name in ("maxnref", "basesize"):
            per_class = getattr(self, name)
            if not isinstance(per_class, int) and len(per_class) != self.nc:
                raise ParameterError(f"{name} list must have nc={self.nc} entries")
        if not 0 <= self.infclass <= self.supclass <= self.nc:
            raise ParameterError(
                f"class interval [{self.infclass}, {self.supclass}] "
                f"invalid for nc={self.nc}")
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
    """One schema class: its typed reference slots and sizes. Its instance
    roster, the class iterator, is derived from the objects (`derive_iterators`)."""

    id: int
    tref: list[int]
    cref: list[int | None]
    basesize: int
    instance_size: int


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
    """Counts of reference slots nulled during generation, per cause: checked
    when made, and mutable, as generation adds to the counts."""

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
                    report: GenerationReport) -> list[ClassDescriptor]:
    """Create nc classes with typed reference slots into [infclass, supclass].

    A class-reference draw of 0 (possible when infclass = 0) means the slot
    has no target class.
    """
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
    report.null_class_draws += sum(cls.cref.count(None) for cls in classes)
    return classes


def _targets(schema: list[ClassDescriptor], class_id: int, types: frozenset[int]) -> list[int]:
    """The classes that a class's slots of these reference types name."""
    cls = schema[class_id - 1]
    return [c for t, c in zip(cls.tref, cls.cref) if t in types and c is not None]


def _reachable(schema: list[ClassDescriptor], start: int, types: frozenset[int]) -> set[int]:
    """`start` and every class reachable from it through slots of these types."""
    reach = {start}
    stack = [start]
    while stack:
        for c in _targets(schema, stack.pop(), types):
            if c not in reach:
                reach.add(c)
                stack.append(c)
    return reach


def enforce_consistency(schema: list[ClassDescriptor], params: GeneratorParams,
                        report: GenerationReport) -> list[ClassDescriptor]:
    """Repair the schema in place: suppress cycles, then propagate sizes.

    Classes are scanned in ascending id, slots in ascending index. A slot of
    a cycle-forbidding type is nulled, and counted as `cycle_suppressed`,
    when its target reaches the slot's own class, or reaches a cycle,
    through the slots of its type that are left; one cycle check of the
    target's reach decides both. Once every such type's class graph is a
    DAG, each class adds its base size once to the instance size of every
    other class it reaches through inheritance-typed slots. Idempotent.
    """
    for cls in schema:
        for j, ref_type in enumerate(cls.tref):
            if ref_type not in params.acyclic_types or cls.cref[j] is None:
                continue
            types = frozenset({ref_type})
            # a target that reaches the slot's own class reaches this slot
            # too, so the reach holds the cycle the slot would close
            reach = _reachable(schema, cls.cref[j], types)
            try:
                TopologicalSorter({n: _targets(schema, n, types) for n in reach}).prepare()
            except CycleError:
                cls.cref[j] = None
                report.cycle_suppressed += 1
    # sizes recomputed from scratch so a second pass changes nothing
    for cls in schema:
        cls.instance_size = cls.basesize
    for cls in schema:
        for sub in _reachable(schema, cls.id, params.inheritance_types) - {cls.id}:
            schema[sub - 1].instance_size += cls.basesize
    return schema


def generate_objects(schema: list[ClassDescriptor], params: GeneratorParams,
                     report: GenerationReport) -> list[ObjectInstance]:
    """Instantiate `no` objects and wire their references.

    Each object's class comes from dist3; the class iterators are then
    derived (see `derive_iterators`). Reference targets are iterator
    positions of the slot's target class, drawn through dist4 with the
    object's own iterator position as the locality anchor. Each link is
    appended to its target's backref as it is drawn: sources in class
    order, then in ascending id (the class iterators' order), slots
    ascending.
    """
    rng_refs = substream(params.seed, "object-refs")
    objects = [ObjectInstance(id=oid, class_id=cls.id, oref=[None] * len(cls.tref),
                              size=cls.instance_size)
               for oid, cls in enumerate(_draw_classes(schema, params), start=1)]
    iterators = derive_iterators(len(schema), objects)

    empty_iterator = out_of_range = 0
    for cls, members in zip(schema, iterators):
        # one (slot, target iterator, position drawer) per slot with targets
        slots = []
        for k, target_class in enumerate(cls.cref):
            if target_class is None:
                continue
            iterator = iterators[target_class - 1]
            if not iterator:
                empty_iterator += len(members)
                continue
            slots.append((k, iterator, position_drawer(
                params.dist4, rng_refs, params.infref, params.supref, len(iterator))))
        if not slots:
            continue
        for position, oid in enumerate(members, start=1):
            oref = objects[oid - 1].oref
            for k, iterator, draw_position in slots:
                pos = draw_position(position)
                if pos is None:
                    out_of_range += 1
                    continue
                target = oref[k] = iterator[pos - 1]
                # in place: replacing every object's empty list afterwards
                # leaves freed holes among the objects, and later runs over
                # the database were about 5 % slower on dstc-club
                objects[target - 1].backref.append((oid, k))
    report.empty_iterator += empty_iterator
    report.out_of_range += out_of_range
    return objects


def _draw_classes(per_class: list, params: GeneratorParams) -> list:
    """The class of every object, in id order, drawn through dist3, as the
    class's entry of `per_class` (the schema, or anything indexed like it)."""
    draw_class = bounded_drawer(params.dist3, substream(params.seed, "object-classes"),
                                1, params.nc)
    return [per_class[draw_class() - 1] for _ in range(params.no)]


def derive_iterators(nc: int, objects: list[ObjectInstance]) -> list[list[int]]:
    """Every class's iterator: the ids of its objects, ascending."""
    iterators: list[list[int]] = [[] for _ in range(nc)]
    for obj in objects:
        iterators[obj.class_id - 1].append(obj.id)
    return iterators


def generate_database(params: GeneratorParams) -> Database:
    """Run all three generation steps and return the finished database.

    The cyclic garbage collector is suspended while the objects are built,
    also for `load_database`, and restored to the caller's state on return.
    """
    with collector_paused():
        report = GenerationReport()
        schema = generate_schema(params, report)
        enforce_consistency(schema, params, report)
        objects = generate_objects(schema, params, report)
        return Database(params=params, classes=schema, objects=objects, report=report)


def save_database(db: Database, path: str) -> None:
    """Write the database as a magic line followed by its canonical body.

    The file is written under a temporary name beside `path` and then
    replaces it, so a save that fails leaves `path` as it was."""
    replace_files({Path(path): partial(_write_database, db)})


def _write_database(db: Database, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DB_MAGIC + "\n")
        fh.write(_body(db))


def _payload(db: Database) -> dict:
    """The JSON document of a database file. A class entry is the class's
    fields plus its derived `iterator`; an object entry is the object's own
    `vars()`, not a copy: read the entries, never change them."""
    iterators = derive_iterators(len(db.classes), db.objects)
    return {
        "format": DB_FORMAT,
        "params": db.params.to_dict(),
        "classes": [dict(vars(cls), iterator=iterator)
                    for cls, iterator in zip(db.classes, iterators)],
        "objects": list(map(vars, db.objects)),
        "report": db.report.to_dict(),
    }


def _canonical(value) -> str:
    """JSON text with sorted keys and no spaces: equal values, equal text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), check_circular=False)


def _body(db: Database) -> str:
    """Everything `save_database` writes after the magic line."""
    return _canonical(_payload(db)) + "\n"


def load_database(path: str) -> Database:
    """Read a database file back; inverse of save_database.

    The file loads if and only if its body, the text after the magic line,
    is the body that `save_database` writes for `generate_database` of its
    `params`; the result is that regeneration. The params are read from the
    end of the body (`,"params":{...},"report":{...}}`), so a file that
    loads is compared as text and never parsed whole. `_regenerate` bounds
    the generation by the body's length; `_reject` names the fault of a
    file that does not load. Both raise FormatError, naming the file, and
    so does a file that is not UTF-8 text or has a wrong magic line.

    `_regenerate` calls `generate_database`, which suspends the cyclic
    garbage collector; a file that does not load is parsed with it on.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            magic = fh.readline().rstrip("\n")
            if magic != DB_MAGIC:
                raise FormatError(f"{path}: bad magic header {magic!r}")
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: database file is not UTF-8 text: {exc}") from None
    params = _tail_params(body)
    db = None
    if params is not None:
        db = _regenerate(path, params, len(body))
        if _body(db) == body:
            return db
    _reject(path, body, db)


def _tail_params(body: str) -> GeneratorParams | None:
    """The valid params at the end of a canonical body, or None."""
    try:
        tail = json.loads("{" + body[body.rindex(',"params":') + 1:])
        return GeneratorParams.from_dict(tail["params"])
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError, ParameterError):
        return None


# the text of the shortest class and object in a saved body
_SHORTEST_CLASS = _canonical(dict(vars(ClassDescriptor(1, [], [], 0, 0)), iterator=[]))
_SHORTEST_OBJECT = _canonical(vars(ObjectInstance(1, 1, [])))


def _regenerate(path: str, params: GeneratorParams, size: int) -> Database:
    """`generate_database(params)`, once a body of `size` characters can hold it.

    A saved body holds the text of every class and object, no shorter than
    `_SHORTEST_CLASS` and `_SHORTEST_OBJECT`, and at least one character
    per reference slot. So valid `params` that would need more than `size`
    characters for their classes, objects, class slots or the slots of the
    drawn objects raise FormatError before any object is built.
    """
    def check(key: str, count: int, things: str, chars: int = 1) -> None:
        if count * chars > size:
            raise FormatError(f"{path}: invalid generator parameters: {key} gives {count} "
                              f"{things}, more than a body of {size} characters holds")

    check("nc", params.nc, "classes", len(_SHORTEST_CLASS))
    check("no", params.no, "objects", len(_SHORTEST_OBJECT))
    slots = [params.maxnref_of(class_id) for class_id in range(1, params.nc + 1)]
    check("maxnref", sum(slots), "class reference slots")
    check("maxnref", sum(_draw_classes(slots, params)), "reference slots over the objects")
    return generate_database(params)


def _reject(path: str, body: str, loaded: Database | None) -> NoReturn:
    """Raise FormatError naming the first fault of a body that did not load.

    In order: the JSON parse (an integer literal over CPython's 4300-digit
    limit fails it); the format version, the int 1; `params` and `report`
    as `from_dict` reads and checks them; the stored class, slot and object
    counts against `nc`, `maxnref` and `no`; then, against the regeneration,
    the first class or object field whose canonical JSON differs, and the
    first differing report count. Here `true` or `1.0` for 1 differs. A body
    that passes them all is other JSON text of the same document: other
    spacing, key order or an extra key. The regeneration is `loaded`, the
    load's own, when its params equal the body's.
    """
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise FormatError(f"{path}: malformed database body: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: database body is not a JSON object")
    version = payload.get("format")
    if type(version) is not int or version != DB_FORMAT:  # true and 1.0 equal 1
        raise FormatError(f"{path}: unsupported format version {version!r}")
    group = "generator parameters"
    try:
        params = GeneratorParams.from_dict(payload["params"])
        group = "generation report"
        GenerationReport.from_dict(payload["report"])
        group = "generator parameters"
        classes, objects = payload["classes"], payload["objects"]
        if len(classes) != params.nc:
            raise ParameterError(f"nc={params.nc}, but the file stores {len(classes)} classes")
        for class_id, twin in enumerate(classes, start=1):
            if len(twin["tref"]) != params.maxnref_of(class_id):
                raise ParameterError(f"maxnref gives class {class_id} "
                                     f"{params.maxnref_of(class_id)} slots, but the "
                                     f"file stores {len(twin['tref'])}")
        if len(objects) != params.no:
            raise ParameterError(f"no={params.no}, but the file stores {len(objects)} objects")
        if loaded is None or loaded.params != params:
            loaded = _regenerate(path, params, len(body))
        expected = _payload(loaded)
        for owner, key in (("class", "classes"), ("object", "objects")):
            for position, (twin, item) in enumerate(zip(payload[key], expected[key]),
                                                    start=1):
                for name, value in item.items():
                    if _canonical(twin[name]) != _canonical(value):
                        raise FormatError(f"{path}: {owner} {position} has an invalid "
                                          f"{name!r}: {twin[name]!r} (its parameters "
                                          f"give {value!r})")
        group = "generation report"
        for name, value in expected["report"].items():
            if payload["report"][name] != value:
                raise ParameterError(f"{name}={payload['report'][name]}, but its "
                                     f"parameters give {value}")
    except ParameterError as exc:
        raise FormatError(f"{path}: invalid {group}: {exc}") from None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{path}: malformed database body: {type(exc).__name__}: {exc}") from None
    raise FormatError(f"{path}: the database body is not the canonical text of its params")
