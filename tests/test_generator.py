import copy
import errno
import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, strategies as st
from scipy import stats

from helpers import (
    kahn_is_dag,
    links_of,
    reference_enforce_consistency,
    reference_generate_objects,
    reference_link_table,
    typed_links_of,
)
from ocb import generator
from ocb.config import build_config
from ocb.distributions import Constant, Special, Uniform
from ocb.errors import FormatError, ParameterError
from ocb.generator import (
    ClassDescriptor,
    Database,
    GenerationReport,
    GeneratorParams,
    ObjectInstance,
    enforce_consistency,
    generate_database,
    generate_objects,
    generate_schema,
    load_database,
    save_database,
)


def small_params(**kw):
    defaults = dict(nc=4, maxnref=3, no=60, nreft=3, seed=1)
    defaults.update(kw)
    return GeneratorParams(**defaults)


# -- schema --------------------------------------------------------------


def test_default_schema_shape():
    params = GeneratorParams(seed=3)
    schema = generate_schema(params, GenerationReport())
    assert len(schema) == 20
    for cls in schema:
        assert len(cls.tref) == len(cls.cref) == 10
        assert all(1 <= t <= 4 for t in cls.tref)
        assert all(c is None or 1 <= c <= 20 for c in cls.cref)
        assert cls.instance_size == cls.basesize == 50


def test_single_class_no_slots():
    params = GeneratorParams(nc=1, maxnref=0, no=0, seed=0)
    schema = generate_schema(params, GenerationReport())
    assert len(schema) == 1
    assert schema[0].tref == [] and schema[0].cref == []
    assert schema[0].instance_size == schema[0].basesize


def test_club_preset_schema_is_forced_by_constants():
    config = build_config(preset="dstc-club", flag_overrides={"seed": "5"})
    schema = generate_schema(config.generator, GenerationReport())
    assert len(schema) == 2
    for cls in schema:
        assert cls.tref == [3, 3, 3]
        assert cls.cref == [1, 1, 1]


def test_schema_tref_uniformity_chi_square():
    # dist1 uniform over [1, nreft]: goodness of fit at significance 0.001
    params = GeneratorParams(seed=11)
    schema = generate_schema(params, GenerationReport())
    counts = [0] * params.nreft
    for cls in schema:
        for t in cls.tref:
            counts[t - 1] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.001


def test_invalid_intervals_rejected():
    with pytest.raises(ParameterError):
        generate_schema(GeneratorParams(infclass=5, supclass=2), GenerationReport())
    with pytest.raises(ParameterError):
        generate_schema(GeneratorParams(nc=0), GenerationReport())
    with pytest.raises(ParameterError):
        GeneratorParams(maxnref=(1, 2)).validate()  # wrong length for nc=20
    with pytest.raises(ParameterError, match=r"^object interval \[5, 4\] invalid$"):
        GeneratorParams(no=10, infref=5, supref=4)
    with pytest.raises(ParameterError):
        GeneratorParams(acyclic_types=frozenset(),
                        inheritance_types=frozenset({1})).validate()


def test_infclass_zero_draws_null_targets():
    params = GeneratorParams(nc=2, maxnref=4, no=0, infclass=0, supclass=2,
                             dist2=Constant(0), seed=1)
    report = GenerationReport()
    schema = generate_schema(params, report)
    assert all(c is None for cls in schema for c in cls.cref)
    assert report.null_class_draws == 8


# -- consistency ---------------------------------------------------------


def chain_schema(edges, nc, tref_type=1):
    """Classes 1..nc, each with one slot; edges maps class -> target."""
    schema = []
    for cid in range(1, nc + 1):
        target = edges.get(cid)
        schema.append(ClassDescriptor(
            id=cid, tref=[tref_type], cref=[target], basesize=50,
            instance_size=50))
    return schema


def test_two_cycle_keeps_exactly_one_slot():
    params = small_params(nc=2, maxnref=1, acyclic_types=frozenset({1}),
                          inheritance_types=frozenset())
    schema = chain_schema({1: 2, 2: 1}, nc=2)
    enforce_consistency(schema, params, GenerationReport())
    # ascending scan order: class 1's slot is the first to close the cycle
    assert schema[0].cref == [None]
    assert schema[1].cref == [1]


def test_self_reference_nulled():
    params = small_params(nc=1, maxnref=1, acyclic_types=frozenset({1}),
                          inheritance_types=frozenset())
    schema = chain_schema({1: 1}, nc=1)
    enforce_consistency(schema, params, GenerationReport())
    assert schema[0].cref == [None]


def test_cycle_detected_beyond_source_also_nulls():
    # 1 -> 3 and a 3 <-> 4 cycle: scanning class 1 first sees the cycle
    params = small_params(nc=4, maxnref=1, acyclic_types=frozenset({1}),
                          inheritance_types=frozenset())
    schema = chain_schema({1: 3, 3: 4, 4: 3}, nc=4)
    enforce_consistency(schema, params, GenerationReport())
    assert schema[0].cref == [None]
    assert schema[2].cref == [None]
    assert schema[3].cref == [3]


def test_inheritance_chain_size_propagation():
    params = small_params(nc=2, maxnref=1, acyclic_types=frozenset({1}),
                          inheritance_types=frozenset({1}))
    schema = chain_schema({1: 2}, nc=2)  # class 2 is a subclass of class 1
    enforce_consistency(schema, params, GenerationReport())
    assert schema[0].instance_size == 50
    assert schema[1].instance_size == 100


def test_diamond_inheritance_counts_each_ancestor_once():
    #     1
    #    / \
    #   2   3
    #    \ /
    #     4
    params = small_params(nc=4, maxnref=2, acyclic_types=frozenset({1}),
                          inheritance_types=frozenset({1}))
    schema = [
        ClassDescriptor(id=1, tref=[1, 1], cref=[2, 3], basesize=50, instance_size=50),
        ClassDescriptor(id=2, tref=[1, 1], cref=[4, None], basesize=50, instance_size=50),
        ClassDescriptor(id=3, tref=[1, 1], cref=[4, None], basesize=50, instance_size=50),
        ClassDescriptor(id=4, tref=[1, 1], cref=[None, None], basesize=50, instance_size=50),
    ]
    enforce_consistency(schema, params, GenerationReport())
    assert [c.instance_size for c in schema] == [50, 100, 100, 200]


def test_enforce_consistency_idempotent():
    params = GeneratorParams(seed=9)
    schema = generate_schema(params, GenerationReport())
    first = enforce_consistency(schema, params, GenerationReport())
    snapshot = copy.deepcopy(first)
    second = enforce_consistency(first, params, GenerationReport())
    assert second == snapshot


def test_acyclic_types_are_dags_by_topological_sort():
    params = GeneratorParams(seed=13)
    report = GenerationReport()
    schema = enforce_consistency(generate_schema(params, report), params, report)
    for ref_type in params.acyclic_types:
        edges = [(cls.id, c) for cls in schema
                 for t, c in zip(cls.tref, cls.cref)
                 if t == ref_type and c is not None]
        assert kahn_is_dag([c.id for c in schema], edges)


def test_instance_size_matches_ancestor_sum():
    params = GeneratorParams(seed=17)
    report = GenerationReport()
    schema = enforce_consistency(generate_schema(params, report), params, report)
    # independent recomputation: reverse-reachability over inheritance edges
    for cls in schema:
        ancestors = set()
        frontier = [cls.id]
        while frontier:
            node = frontier.pop()
            for other in schema:
                for t, c in zip(other.tref, other.cref):
                    if t in params.inheritance_types and c == node:
                        if other.id not in ancestors and other.id != cls.id:
                            ancestors.add(other.id)
                            frontier.append(other.id)
        expected = cls.basesize + sum(schema[a - 1].basesize for a in ancestors)
        assert cls.instance_size == expected


@st.composite
def repair_generator_params(draw):
    """Generator parameters of schemas that the repair has work on.

    Every draw has at least two classes, a slot per class and an acyclic
    type, and few reference types, so slots often reach their own class or
    a cycle beyond it; infclass may be 0, which nulls slots first. The base
    sizes differ per class, so each ancestor's share of a size shows.
    """
    nc = draw(st.integers(2, 8))
    nreft = draw(st.integers(1, 3))
    acyclic = draw(st.frozensets(st.integers(1, nreft), min_size=1))
    return GeneratorParams(
        nc=nc, maxnref=draw(st.integers(1, 4)), nreft=nreft,
        infclass=draw(st.sampled_from([1, 0])),
        basesize=tuple(draw(st.lists(st.integers(1, 90), min_size=nc, max_size=nc))),
        acyclic_types=acyclic, inheritance_types=draw(st.frozensets(st.sampled_from(
            sorted(acyclic)))), seed=draw(st.integers(0, 2 ** 32)))


@given(repair_generator_params())
# class 1's slots name class 2, which names nothing, then class 1 itself: only
# the second slot is nulled
@example(GeneratorParams(nc=2, maxnref=2, nreft=1, infclass=0, seed=91,
                         acyclic_types=frozenset({1}), inheritance_types=frozenset({1})))
# 1 -> 2 -> 1: class 1's slot is nulled, its target reaching class 1
@example(GeneratorParams(nc=2, maxnref=1, nreft=1, seed=2,
                         acyclic_types=frozenset({1}), inheritance_types=frozenset({1})))
# 1 -> 3 <-> 4: class 1's slot is nulled, its target reaching a cycle that
# does not pass through class 1
@example(GeneratorParams(nc=4, maxnref=1, nreft=1, seed=2,
                         acyclic_types=frozenset({1}), inheritance_types=frozenset({1})))
def test_schema_repair_matches_the_edge_list_oracle(params):
    schema = generate_schema(params, GenerationReport())
    crefs, sizes, nulled = reference_enforce_consistency(schema, params)
    report = GenerationReport()
    enforce_consistency(schema, params, report)
    assert [cls.cref for cls in schema] == crefs
    assert [cls.instance_size for cls in schema] == sizes
    assert report.cycle_suppressed == len(nulled)
    for reached in sorted({reached for _, _, reached in nulled}):
        event(f"a slot is nulled for reaching {reached}")


# -- objects -------------------------------------------------------------


def test_default_objects_spread_across_classes():
    db = generate_database(GeneratorParams(seed=21))
    counts = [sum(o.class_id == c.id for o in db.objects) for c in db.classes]
    assert sum(counts) == 20000
    # binomial(20000, 1/20) stays within [800, 1200] far beyond 5 sigma
    assert all(800 <= n <= 1200 for n in counts)


def test_backref_symmetry():
    db = generate_database(small_params(seed=5))
    for obj in db.objects:
        for slot, target in enumerate(obj.oref):
            if target is not None:
                assert (obj.id, slot) in db.objects[target - 1].backref
    n_links = sum(1 for o in db.objects for t in o.oref if t is not None)
    n_backrefs = sum(len(o.backref) for o in db.objects)
    assert n_links == n_backrefs


def test_object_targets_are_iterator_members():
    db = generate_database(small_params(seed=6))
    members = {cls.id: {o.id for o in db.objects if o.class_id == cls.id}
               for cls in db.classes}
    for obj in db.objects:
        cls = db.classes[obj.class_id - 1]
        for slot, target in enumerate(obj.oref):
            if target is None:
                continue
            assert cls.cref[slot] is not None
            assert target in members[cls.cref[slot]]


def test_club_preset_links_stay_in_refzone():
    config = build_config(preset="dstc-club", flag_overrides={"seed": "19"})
    db = generate_database(config.generator)
    refzone = config.generator.dist4.refzone
    inside = total = 0
    position = {}
    for cls in db.classes:
        members = [o.id for o in db.objects if o.class_id == cls.id]
        for pos, oid in enumerate(members, start=1):
            position[oid] = pos
    for obj in db.objects:
        for target in obj.oref:
            if target is None:
                continue
            total += 1
            if abs(position[target] - position[obj.id]) <= refzone:
                inside += 1
    assert total > 0
    assert inside / total >= 0.85


def test_empty_iterator_slots_reported():
    # all objects land in class 1, yet class 1 references class 2
    params = GeneratorParams(nc=2, maxnref=1, no=30, nreft=1,
                             dist2=Constant(2), dist3=Constant(1),
                             acyclic_types=frozenset(), inheritance_types=frozenset(),
                             seed=3)
    report = GenerationReport()
    schema = enforce_consistency(generate_schema(params, report), params, report)
    objects = generate_objects(schema, params, report)
    assert all(obj.oref == [None] for obj in objects)
    assert report.empty_iterator == 30


def test_generation_deterministic():
    params_a = small_params(seed=77)
    params_b = small_params(seed=77)
    assert generate_database(params_a) == generate_database(params_b)
    assert generate_database(small_params(seed=78)) != generate_database(params_a)


# Bounded so that most draws have objects and links: maxnref >= 1, no >= 2,
# and nreft >= 2, since links of the acyclic type 1 are often all nulled
# (the empty and slot-less corners have tests of their own).
@given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 40),
       st.integers(2, 3), st.integers(0, 2 ** 32))
def test_small_databases_respect_invariants(nc, maxnref, no, nreft, seed):
    params = GeneratorParams(nc=nc, maxnref=maxnref, no=no, nreft=nreft, seed=seed,
                             acyclic_types=frozenset({1}),
                             inheritance_types=frozenset({1}))
    db = generate_database(params)
    assert len(db.objects) == no
    members = {cls.id: {o.id for o in db.objects if o.class_id == cls.id}
               for cls in db.classes}
    for obj in db.objects:
        for slot, target in enumerate(obj.oref):
            if target is not None:
                assert target in members[db.classes[obj.class_id - 1].cref[slot]]
                assert (obj.id, slot) in db.objects[target - 1].backref
    edges = [(cls.id, c) for cls in db.classes
             for t, c in zip(cls.tref, cls.cref) if t == 1 and c is not None]
    assert kahn_is_dag([c.id for c in db.classes], edges)


@st.composite
def oracle_generator_params(draw):
    """Generator parameters that reach every branch of object generation.

    dist3 is uniform or one constant class, so other classes' iterators may
    stay empty; dist4 is uniform, a constant that may lie beyond an iterator
    (clamped), or special with a refzone from 0 to wider than any iterator;
    the [infref, supref] window may start above an iterator's length, which
    nulls the slot as out of range; infclass may be 0, which nulls slots.
    No reference type is acyclic, so that no link is nulled to break a cycle
    (the consistency step has tests of its own).
    """
    nc = draw(st.integers(1, 4))
    no = draw(st.integers(1, 40))
    nreft = draw(st.integers(1, 3))
    infclass = draw(st.sampled_from([1, 0]))
    supclass = draw(st.integers(max(infclass, 1), nc))
    infref = draw(st.one_of(st.just(1), st.integers(1, no + 3)))
    supref = draw(st.integers(infref, no + 6))
    dist3 = draw(st.one_of(st.just(Uniform()), st.builds(Constant, st.integers(1, nc))))
    dist4 = draw(st.one_of(
        st.just(Uniform()),
        st.builds(Special, st.integers(0, no + 5), st.sampled_from([0.9, 0.5, 0.0, 1.0])),
        st.builds(Constant, st.integers(1, supref))))
    return GeneratorParams(nc=nc, maxnref=draw(st.integers(1, 3)), no=no, nreft=nreft,
                           infclass=infclass, supclass=supclass, infref=infref,
                           supref=supref, dist3=dist3, dist4=dist4,
                           acyclic_types=frozenset(), inheritance_types=frozenset(),
                           seed=draw(st.integers(0, 2 ** 32)))


@given(oracle_generator_params())
# links beside null class draws and empty iterators
@example(GeneratorParams(nc=3, maxnref=3, no=40, nreft=1, infclass=0, supclass=3,
                         dist3=Constant(2), acyclic_types=frozenset(),
                         inheritance_types=frozenset(), seed=0))
# links beside slots out of range, into iterators of 18, 12 and 10 objects
@example(GeneratorParams(nc=3, maxnref=3, no=40, nreft=1, infref=14, supref=40,
                         acyclic_types=frozenset(), inheritance_types=frozenset(),
                         seed=0))
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Special(0, 0.9), seed=7))
# a refzone, and a constant, beyond iterators of about 20 objects
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Special(30, 0.9), seed=8))
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Constant(35), seed=9))
def test_generation_matches_the_randint_oracle(params):
    db = generate_database(params)
    report = GenerationReport()
    schema = enforce_consistency(generate_schema(params, report), params, report)
    objects = reference_generate_objects(schema, params, report)
    assert db.objects == objects
    assert db.report == report
    assert db == Database(params=params, classes=schema, objects=objects, report=report)


@given(oracle_generator_params())
# the randint oracle's examples: links beside null class draws, empty
# iterators and slots out of range, and special and constant draws
@example(GeneratorParams(nc=3, maxnref=3, no=40, nreft=1, infclass=0, supclass=3,
                         dist3=Constant(2), acyclic_types=frozenset(),
                         inheritance_types=frozenset(), seed=0))
@example(GeneratorParams(nc=3, maxnref=3, no=40, nreft=1, infref=14, supref=40,
                         acyclic_types=frozenset(), inheritance_types=frozenset(),
                         seed=0))
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Special(0, 0.9), seed=7))
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Special(30, 0.9), seed=8))
@example(GeneratorParams(nc=2, maxnref=2, no=40, dist4=Constant(35), seed=9))
def test_link_tables_match_the_comprehension_oracle(params):
    db = generate_database(params)
    for reverse in (False, True):
        for ref_type in (None, *range(1, params.nreft + 1)):
            table = db.link_table(reverse, ref_type)
            expected = reference_link_table(db, reverse, ref_type)
            assert type(table) is tuple and table[0] == ()
            assert len(table) == len(expected) == params.no + 1
            for oid, (row, want) in enumerate(zip(table, expected)):
                assert type(row) is tuple, oid
                assert row == want, oid
            assert db.link_table(reverse, ref_type) is table


def test_link_tables_are_immutable():
    db = generate_database(small_params(seed=44))
    for reverse in (False, True):
        for ref_type in (None, 1):
            table = db.link_table(reverse, ref_type)
            with pytest.raises(AttributeError):
                table.append(())
            with pytest.raises(TypeError):
                table[1] = ()
            assert db.link_table(reverse, ref_type) is table


# -- save / load ---------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    db = generate_database(small_params(seed=44))
    path = tmp_path / "db.ocb"
    save_database(db, str(path))
    loaded = load_database(str(path))
    assert loaded == db


def test_a_save_that_fails_midway_leaves_its_file_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "db.ocb"
    save_database(generate_database(small_params(seed=44)), str(path))
    old = path.read_bytes()

    def no_space(db):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(generator, "_body", no_space)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        save_database(generate_database(small_params(seed=45)), str(path))
    assert [child.name for child in tmp_path.iterdir()] == ["db.ocb"]
    assert path.read_bytes() == old


def test_link_tables_are_derived_and_never_saved(tmp_path):
    db = generate_database(small_params(seed=44))
    before, after = tmp_path / "before.ocb", tmp_path / "after.ocb"
    save_database(db, str(before))
    assert db.link_table() is db.link_table()  # built once, then cached
    for direction in ("forward", "reverse"):
        reverse = direction == "reverse"
        for obj in db.objects:
            assert db.link_table(reverse)[obj.id] == \
                tuple(t for _k, t in links_of(db, obj.id, direction))
            for ref_type in range(1, db.params.nreft + 1):
                assert db.link_table(reverse, ref_type)[obj.id] == \
                    tuple(typed_links_of(db, obj.id, ref_type, direction))
    save_database(db, str(after))
    assert after.read_bytes() == before.read_bytes()
    assert load_database(str(after)) == db
    assert "_link_tables" not in repr(db)


@st.composite
def small_generator_params(draw):
    """Generator parameters of small databases that mostly have links.

    The acyclic and inheritance types are drawn, so the minimal draw (none
    of either) nulls no link to break a cycle.
    """
    nreft = draw(st.integers(1, 3))
    acyclic = draw(st.frozensets(st.integers(1, nreft)))
    inheritance = frozenset(t for t in sorted(acyclic) if draw(st.booleans()))
    return GeneratorParams(nc=draw(st.integers(1, 4)), maxnref=draw(st.integers(1, 3)),
                           no=draw(st.integers(2, 30)), nreft=nreft,
                           acyclic_types=acyclic, inheritance_types=inheritance,
                           seed=draw(st.integers(0, 2 ** 32)))


@given(small_generator_params())
# ids above 256: CPython shares the small ints anyway
@example(GeneratorParams(nc=3, maxnref=3, no=300, seed=7))
def test_save_load_round_trip_is_exact(params):
    db = generate_database(params)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.ocb", Path(tmp) / "second.ocb"
        save_database(db, str(first))
        loaded = load_database(str(first))
        assert loaded == db
        # every mention of an id is the object's own id int
        ids = [obj.id for obj in loaded.objects]
        assert all(target is ids[target - 1] for obj in loaded.objects
                   for target in obj.oref if target is not None)
        assert all(source is ids[source - 1] for obj in loaded.objects
                   for source, _slot in obj.backref)
        save_database(loaded, str(second))
        assert second.read_bytes() == first.read_bytes()


def edit_pairs(pairs: list, edit: str, i: int) -> None:
    """Change `pairs` in place at index i; every edit leaves a different list."""
    if edit == "drop":
        del pairs[i]
    elif edit == "duplicate":
        pairs.insert(i, pairs[i])
    elif edit == "swap":  # i >= 1; the pairs of one list are distinct
        pairs[i - 1], pairs[i] = pairs[i], pairs[i - 1]
    else:  # shift
        source, slot = pairs[i]
        pairs[i] = (source, slot + 1)


@given(small_generator_params(), st.sampled_from(["drop", "duplicate", "swap", "shift"]),
       st.data())
def test_load_rejects_a_backref_that_is_not_derived(params, edit, data):
    db = generate_database(params)
    shortest = 2 if edit == "swap" else 1
    candidates = [obj for obj in db.objects if len(obj.backref) >= shortest]
    assume(candidates)
    obj = data.draw(st.sampled_from(candidates), label="object")
    i = data.draw(st.integers(shortest - 1, len(obj.backref) - 1), label="index")
    edit_pairs(obj.backref, edit, i)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.ocb"
        save_database(db, str(path))
        with pytest.raises(FormatError, match=rf"object {obj.id} has an invalid 'backref'"):
            load_database(str(path))


def test_save_load_empty_database(tmp_path):
    db = generate_database(GeneratorParams(nc=1, maxnref=0, no=0, seed=0))
    path = tmp_path / "empty.ocb"
    save_database(db, str(path))
    loaded = load_database(str(path))
    assert loaded.objects == []
    assert loaded == db


def test_load_bound_assumes_the_shortest_class_and_object_text(tmp_path):
    # the load's bound counts this much text per class and object; a longer
    # constant would reject valid files
    db = generate_database(GeneratorParams(nc=1, maxnref=0, basesize=0, no=1, seed=0))
    path = tmp_path / "smallest.ocb"
    save_database(db, str(path))
    payload = json.loads(path.read_text().splitlines()[1])
    shortest_class = dict(payload["classes"][0], iterator=[])
    assert json.dumps(shortest_class, separators=(",", ":")) == generator._SHORTEST_CLASS
    assert json.dumps(payload["objects"][0], separators=(",", ":")) == \
        generator._SHORTEST_OBJECT
    assert load_database(str(path)) == db


def test_shortest_class_and_object_texts_are_unchanged():
    # derived from the records; the load's body-length bound rests on their lengths
    assert generator._SHORTEST_CLASS == \
        '{"basesize":0,"cref":[],"id":1,"instance_size":0,"iterator":[],"tref":[]}'
    assert generator._SHORTEST_OBJECT == '{"backref":[],"class_id":1,"id":1,"oref":[],"size":0}'


def test_saved_entries_hold_exactly_the_record_fields(tmp_path):
    # each entry is written from the record's own attributes, so a stray one
    # set on a class or an object would reach the file and fail this
    db = generate_database(small_params(seed=44))
    path = tmp_path / "db.ocb"
    save_database(db, str(path))
    payload = json.loads(path.read_text().splitlines()[1])
    for key, names in (("classes", {f.name for f in fields(ClassDescriptor)} | {"iterator"}),
                       ("objects", {f.name for f in fields(ObjectInstance)})):
        assert payload[key] and all(entry.keys() == names for entry in payload[key])


@pytest.mark.parametrize("params", [
    small_params(seed=44),
    # null class draws beside links
    GeneratorParams(nc=3, maxnref=3, no=40, nreft=1, infclass=0, supclass=3,
                    acyclic_types=frozenset(), inheritance_types=frozenset(), seed=0),
    # every object in class 2, so classes 1 and 3 have none; class 2's slots
    # name classes 1, 2 and 2
    GeneratorParams(nc=3, maxnref=3, no=30, nreft=1, dist3=Constant(2),
                    acyclic_types=frozenset(), inheritance_types=frozenset(), seed=2),
], ids=["small", "infclass-0", "empty-classes"])
def test_saved_iterators_and_backrefs_are_derived_from_the_objects(params, tmp_path):
    db = generate_database(params)
    path = tmp_path / "db.ocb"
    save_database(db, str(path))
    payload = json.loads(path.read_text().splitlines()[1])
    classes, objects = payload["classes"], payload["objects"]
    for entry in classes:
        assert entry["iterator"] == sorted(o["id"] for o in objects
                                           if o["class_id"] == entry["id"])
    # every link as (target, source class, source id, slot), in that order
    links = sorted((target, o["class_id"], o["id"], slot) for o in objects
                   for slot, target in enumerate(o["oref"]) if target is not None)
    assert links
    for entry in objects:
        assert entry["backref"] == [[source, slot] for target, _, source, slot in links
                                    if target == entry["id"]]
    if params.infclass == 0:
        assert db.report.null_class_draws > 0
    if isinstance(params.dist3, Constant):
        assert [entry["iterator"] == [] for entry in classes] == [True, False, True]


# each edit removes one class, class slot or object from a saved file; its
# params regenerate the file, so the load names the first count that differs
@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload["classes"].pop(), "nc=2, but the file stores 1 classes"),
    (lambda payload: payload["classes"][1]["tref"].pop(),
     "maxnref gives class 2 3 slots, but the file stores 2"),
    (lambda payload: payload["objects"].pop(3), "no=10, but the file stores 9 objects"),
], ids=["class", "slot", "object"])
def test_load_names_a_stored_count_its_params_do_not_give(tmp_path, edit, message):
    path = tmp_path / "db.ocb"
    save_database(generate_database(GeneratorParams(nc=2, maxnref=3, no=10, seed=3)),
                  str(path))
    magic, body = path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(body)
    edit(payload)
    path.write_text(f"{magic}\n{generator._canonical(payload)}\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        load_database(str(path))
    assert str(exc.value) == f"{path}: invalid generator parameters: {message}"


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ocb"
    path.write_text("NOTOCB\n{}\n")
    with pytest.raises(FormatError):
        load_database(str(path))


def test_load_rejects_bad_body(tmp_path):
    path = tmp_path / "trunc.ocb"
    path.write_text("OCBDB1\n{\"format\": 1,\n")
    with pytest.raises(FormatError):
        load_database(str(path))


def test_a_failing_load_generates_its_objects_once(tmp_path, monkeypatch):
    db = generate_database(small_params(seed=13))
    db.objects[0].size += 1
    path = tmp_path / "edited.ocb"
    save_database(db, str(path))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return generate_objects(*args, **kwargs)

    monkeypatch.setattr(generator, "generate_objects", counted)
    with pytest.raises(FormatError, match="object 1 has an invalid 'size'"):
        load_database(str(path))
    assert len(calls) == 1


def test_save_is_byte_deterministic(tmp_path):
    db_a = generate_database(small_params(seed=13))
    db_b = generate_database(small_params(seed=13))
    path_a = tmp_path / "a.ocb"
    path_b = tmp_path / "b.ocb"
    save_database(db_a, str(path_a))
    save_database(db_b, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()


# SHA-256 of `save_database` output, pinned so that a change to any draw of
# generation (or to the file layout) shows as a changed digest
SAVED_DATABASE_SHA256 = {
    "default": "e906ee445cbb2fbb50d11795767d866679d0d05217e0c38f687db93a24a65055",
    "dstc-club": "c7649d51cdfb809ca3eaffd7f1f1bd10b1f6cdec478013b239ae0cbef5eebeba",
}


@pytest.mark.parametrize("preset", sorted(SAVED_DATABASE_SHA256))
def test_saved_database_bytes_are_pinned(preset, tmp_path):
    config = build_config(preset=preset, flag_overrides={"no": "2000", "seed": "1"})
    path = tmp_path / "db.ocb"
    save_database(generate_database(config.generator), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_DATABASE_SHA256[preset]
