import csv
import errno
import hashlib
import json
import math
import os
import random
import re

import pytest

from ocb.cli import main
from ocb.config import build_config, read_config_file
from ocb.distributions import Constant, Special
from ocb.errors import ParameterError
from ocb.generator import GeneratorParams, generate_database, load_database, save_database
from ocb.policies import DstcParams
from ocb.storage import StorageParams
from ocb.workload import WorkloadParams


# -- config layering -----------------------------------------------------


def test_defaults_match_standard_tables():
    config = build_config()
    g, w = config.generator, config.workload
    assert (g.nc, g.maxnref, g.basesize, g.no, g.nreft) == (20, 10, 50, 20000, 4)
    assert (g.infclass, g.supclass, g.infref, g.supref) == (1, 20, 1, 20000)
    assert (w.setdepth, w.simdepth, w.hiedepth, w.stodepth) == (3, 3, 5, 50)
    assert (w.coldn, w.hotn, w.think, w.clientn) == (1000, 10000, 0.0, 1)
    assert (w.pset, w.psimple, w.phier, w.pstoch) == (0.25,) * 4
    assert config.storage.page_size == 4096
    assert config.policy == "none"


def test_club_preset_resolves_to_emulation_values():
    config = build_config(preset="dstc-club")
    g = config.generator
    assert (g.nc, g.maxnref, g.basesize, g.no, g.nreft) == (2, 3, 50, 20000, 3)
    assert (g.infclass, g.supclass) == (0, 2)
    assert g.dist1 == Constant(3)
    assert g.dist2 == Constant(1)
    assert g.dist3 == Constant(1)
    assert isinstance(g.dist4, Special)


def test_flags_override_config_file_and_preset(tmp_path):
    config_file = tmp_path / "exp.conf"
    config_file.write_text("nc = 5  # five classes\nhotn = 42\n")
    overrides = read_config_file(str(config_file))
    config = build_config(preset="dstc-club", file_overrides=overrides,
                          flag_overrides={"hotn": "7"})
    assert config.generator.nc == 5  # file beats preset
    assert config.workload.hotn == 7  # flag beats file
    assert config.generator.maxnref == 3  # preset survives where not overridden


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    config_file = tmp_path / "bom.conf"
    config_file.write_bytes("no = 40\nnc = 3\n".encode("utf-8-sig"))
    assert read_config_file(str(config_file)) == {"no": "40", "nc": "3"}
    assert main(["generate", "--config", str(config_file),
                 "--out", str(tmp_path / "db.ocb")]) == 0
    assert capsys.readouterr().out.startswith("generated 40 objects over 3 classes")


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.conf"
    # a blank line and a comment-only line are skipped, so line 3 is named
    bad.write_text("\n   # a comment\nthis is not a key value line\n")
    with pytest.raises(ParameterError) as exc:
        read_config_file(str(bad))
    assert str(exc.value) == f"{bad}:3: expected key=value, got 'this is not a key value line\\n'"


def test_unknown_keys_and_values_rejected():
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"frobnicate": "1"})
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"nc": "many"})
    with pytest.raises(ParameterError):
        build_config(preset="nope")


def test_probability_vector_must_sum_to_one():
    with pytest.raises(ParameterError):
        build_config(flag_overrides={"pset": "0.5"})
    config = build_config(flag_overrides={"pset": "0.5", "psimple": "0.5",
                                          "phier": "0", "pstoch": "0"})
    assert config.workload.pset == 0.5


def test_seed_feeds_generator_and_workload():
    config = build_config(flag_overrides={"seed": "99"})
    assert config.seed == 99
    assert config.generator.seed == 99
    assert config.workload.seed == 99


def test_fingerprint_ignores_policy_but_not_seed():
    base = build_config(flag_overrides={"seed": "1"})
    with_dstc = build_config(flag_overrides={"seed": "1", "policy": "dstc"})
    other_seed = build_config(flag_overrides={"seed": "2"})
    assert base.fingerprint() == with_dstc.fingerprint()
    assert base.fingerprint() != other_seed.fingerprint()


def test_per_class_lists_parse():
    config = build_config(flag_overrides={"nc": "3", "maxnref": "1,2,3",
                                          "basesize": "10,20,30", "no": "9"})
    assert config.generator.maxnref == (1, 2, 3)
    assert config.generator.basesize == (10, 20, 30)


# -- CLI -----------------------------------------------------------------


SMALL = ["--nc", "3", "--maxnref", "2", "--no", "40", "--seed", "5"]
QUICK_RUN = SMALL + ["--coldn", "8", "--hotn", "12"]


def test_cli_presets_lists_known_names(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "default" in out and "dstc-club" in out


def test_cli_generate_writes_database(tmp_path, capsys):
    out = tmp_path / "db.ocb"
    assert main(["generate", *SMALL, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "OCBDB1"
    db = load_database(str(out))
    assert len(db.objects) == 40
    assert "generated 40 objects" in capsys.readouterr().out


def test_cli_generate_empty_database(tmp_path):
    out = tmp_path / "empty.ocb"
    assert main(["generate", "--nc", "1", "--no", "0", "--out", str(out)]) == 0
    assert len(load_database(str(out)).objects) == 0


def test_cli_run_reports_zero_overhead_without_clustering(tmp_path):
    out_dir = tmp_path / "reports"
    assert main(["run", *QUICK_RUN, "--policy", "none",
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["counters"]["overhead_reads"] == 0
    assert payload["counters"]["overhead_writes"] == 0
    assert payload["metrics"]["gain_factor"] is None
    assert payload["config"]["generator"]["nc"] == 3
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.txt").exists()


def test_cli_run_from_database_file(tmp_path):
    db_path = tmp_path / "db.ocb"
    main(["generate", *SMALL, "--out", str(db_path)])
    out_dir = tmp_path / "reports"
    assert main(["run", "--db", str(db_path), "--coldn", "4", "--hotn", "6",
                 "--seed", "5", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["transactions"] == 10


def test_cli_run_from_database_file_matches_inline_generation(tmp_path):
    generation = ["--nc", "3", "--maxnref", "3", "--no", "400", "--seed", "3"]
    run = ["--coldn", "30", "--hotn", "60", "--policy", "dstc",
           "--observation-period", "20", "--buffer-pages", "4",
           "--reverse-probability", "0.5"]
    db_path = tmp_path / "db.ocb"
    assert main(["generate", *generation, "--out", str(db_path)]) == 0
    inline, loaded = tmp_path / "inline", tmp_path / "loaded"
    assert main(["run", *generation, *run, "--out-dir", str(inline)]) == 0
    assert main(["run", "--db", str(db_path), *generation, *run,
                 "--out-dir", str(loaded)]) == 0
    payload = json.loads((inline / "report.json").read_text())
    assert payload["reorganizations"]
    # reverse walks read the backref sources
    assert ",reverse," in (inline / "report.csv").read_text()
    for name in ("report.csv", "report_stats.csv", "report.json", "report.txt"):
        assert (loaded / name).read_bytes() == (inline / name).read_bytes(), name


# `ocb run --db` over a saved 2000-object database, seed 1: the SHA-256 of
# the four report files, so that a change to any simulated result, or to
# the order of a float sum, shows as a changed digest. The default mix runs
# every transaction type in both directions, with think time on the clock.
DEFAULT_MIX = ["--reverse-probability", "0.5", "--think", "0.5", "--clientn", "3",
               "--coldn", "60", "--hotn", "120", "--buffer-pages", "16"]
DSTC = ["--policy", "dstc", "--observation-period", "40"]
PINNED_DB_RUNS = {
    "default-none": ("default", [*DEFAULT_MIX, "--policy", "none"]),
    "default-dstc": ("default", [*DEFAULT_MIX, *DSTC]),
    "default-dstc-whole-components": ("default", [*DEFAULT_MIX, *DSTC, "--max-unit-size",
                                                  "0", "--reorganize-trigger", "2"]),
    # small units, where the entry-point climbs do the most work
    "default-dstc-small-units": ("default", [*DEFAULT_MIX, *DSTC, "--max-unit-size", "8"]),
    # the A3 club run, shrunk: depth-first only, four clients, each of
    # which keeps its previous root with probability 0.995
    "club-dstc": ("dstc-club", ["--psimple", "1", "--pset", "0", "--phier", "0",
                                "--pstoch", "0", "--clientn", "4",
                                "--dist5", "special:0:0.995", "--coldn", "150",
                                "--hotn", "250", "--buffer-pages", "4", *DSTC]),
}
PINNED_DB_RUN_SHA256 = {
    "club-dstc": {
        "report.csv": "68b1521d810c48b16e083783b53667426d493ced704f7c3b9ed527f2154a371c",
        "report_stats.csv": "b75af72af3325ad8810676a5681ef7a15a7e5c16a3ebb85b3c610d99df739491",
        "report.json": "c92abcc69806da13b2d2314a1f4e97ea07a45afb4df0d40ee0e541d5947c2aea",
        "report.txt": "d6739a0c92b8d975e04e4020b64eb8f6d3c4561963965a1ca554ef72a8dec89a",
    },
    "default-dstc": {
        "report.csv": "6468dcc5d87c0ba39c9fbf5cd761f5d147e94ccc3d416eedf8e2c10013bcd152",
        "report_stats.csv": "65c33cb12f3e0b1fc42bb56290e1c9d99798c179c9605f89370dbe48b586fcd5",
        "report.json": "3d7ced2ff2cf78d2972ec195c7c7297605ef44b721680d20bc859d43283f75d8",
        "report.txt": "59732e3aaabcc1a52909ebe259b9e7b72b4dcaf14d3dfac0d3ab4fd692b9e7a6",
    },
    "default-dstc-whole-components": {
        "report.csv": "5bcc655b13899e136f647f0099d39bbdc7093351931b1095be35516945243b53",
        "report_stats.csv": "8fc05880441d3a33c5ce40a57feecc34c316c73678611dcb7131a773d11ab8ea",
        "report.json": "2c9569ab5b1747058dec4b3881095653c1fe23f57c455a61f270f311ad761f18",
        "report.txt": "1c3e35a0b7492da3715a61c8ca910858f4dcce182bfe1f1712fb5c22d7589315",
    },
    "default-dstc-small-units": {
        "report.csv": "f7c59fb46817f8562c491a9ec66f45187c334f255369b92424dc1eac06b08cac",
        "report_stats.csv": "c0f3bd074349d9572eb23c04a794a5eedfeb0a86b1daec764d1cee5d65e2b985",
        "report.json": "bbda2dd439255c433ba561842fde6c1fae1a2ba3d20499906d4a1509624b687b",
        "report.txt": "cf15d222b381aeef6cc95a4a3420b06d8702ab0af9e1aed40dce65612359b70a",
    },
    "default-none": {
        "report.csv": "a14f3b327dba448dd74a36a67b4e767e5b880fddc8653d31cc9f95d119fc0233",
        "report_stats.csv": "bb4677a8cccb2cac1ff45ef9871e611647dac9d3a2dcff824dbbc16754219306",
        "report.json": "0a39d63e00bdeacf2377de08bb55d11ce9af1c7041d7ba2cced803d1ab3bfd7d",
        "report.txt": "8a61b5a6af2161a464c893a264221658bc03344e5e3f5a7e1bceb244a8871fd1",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_DB_RUN_SHA256))
def test_cli_run_from_database_file_keeps_its_report_bytes(name, tmp_path):
    preset, run = PINNED_DB_RUNS[name]
    db_path = tmp_path / "db.ocb"
    assert main(["generate", "--preset", preset, "--no", "2000", "--seed", "1",
                 "--out", str(db_path)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", "--db", str(db_path), *run, "--seed", "2",
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert len(payload["reorganizations"]) >= (0 if name == "default-none" else 1)
    assert {file: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            for file in PINNED_DB_RUN_SHA256[name]} == PINNED_DB_RUN_SHA256[name]


def test_cli_run_missing_database_is_runtime_error(tmp_path):
    assert main(["run", "--db", str(tmp_path / "nope.ocb"),
                 "--out-dir", str(tmp_path)]) == 3


# one class and one object, but a generation report with an unknown key
UNKNOWN_REPORT_KEY = json.dumps({
    "format": 1, "params": GeneratorParams(nc=1, maxnref=0, no=1).to_dict(),
    "classes": [{"id": 1, "tref": [], "cref": [], "basesize": 50, "instance_size": 50,
                 "iterator": [1]}],
    "objects": [{"id": 1, "class_id": 1, "oref": [], "backref": [], "size": 50}],
    "report": {"a": 1}})


# JSON nested past the interpreter's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000 + "\n"


@pytest.mark.parametrize("body", ['{"format": 1}\n', "[1,2]\n", UNKNOWN_REPORT_KEY + "\n",
                                  DEEP_JSON],
                         ids=["missing-fields", "not-an-object", "report-unknown-key",
                              "nested-too-deep"])
def test_cli_run_malformed_database_is_runtime_error(tmp_path, capsys, body):
    path = tmp_path / "bad.ocb"
    path.write_text("OCBDB1\n" + body)
    assert main(["run", "--db", str(path), "--out-dir", str(tmp_path)]) == 3
    assert str(path) in capsys.readouterr().err


def canonical(payload) -> str:
    """JSON text as `save_database` writes it: sorted keys, no spaces."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_edited_database(path, edit) -> dict:
    """Write a 5-object database to `path`, its JSON body changed in place
    by `edit` and written back as canonical text; return the edited body."""
    assert main(["generate", "--nc", "2", "--no", "5", "--maxnref", "1",
                 "--out", str(path)]) == 0
    magic, body = path.read_text().splitlines()
    payload = json.loads(body)
    edit(payload)
    path.write_text(f"{magic}\n{canonical(payload)}\n")
    return payload


# every transaction type, both directions: each reads the links it walks
ALL_TRANSACTION_TYPES = ["--coldn", "50", "--hotn", "50", "--phier", "0.5", "--pset", "0.2",
                         "--psimple", "0.1", "--pstoch", "0.2",
                         "--reverse-probability", "0.5"]


def run_edited_database(tmp_path, capsys, edit) -> str:
    """Exit code 3 and the error text of `ocb run` on a 5-object database
    whose JSON body `edit` changed in place; the text has the path removed."""
    path = tmp_path / "bad.ocb"
    write_edited_database(path, edit)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["run", "--db", str(path), *ALL_TRANSACTION_TYPES,
                 "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert str(path) in err
    return err.replace(str(path), "")


@pytest.mark.parametrize("position, edit, field", [
    (1, {"size": "big"}, "size"),
    (1, {"oref": [99]}, "oref"),
    (2, {"size": -1}, "size"),
    (3, {"id": 7}, "id"),
    (4, {"oref": [True]}, "oref"),
    (5, {"backref": [[0, 0]]}, "backref"),
    (1, {"oref": [2, 2]}, "oref"),
    (5, {"backref": [[1, 5]]}, "backref"),
    (5, {"backref": [[1, True]]}, "backref"),
    (1, {"id": True}, "id"),
    (2, {"id": 2.0}, "id"),
    (3, {"size": 2}, "size"),
], ids=["size-not-int", "oref-out-of-range", "size-negative", "id-not-position",
        "oref-not-int", "backref-out-of-range", "oref-longer-than-tref",
        "backref-slot-out-of-range", "backref-slot-not-int", "id-true", "id-float",
        "size-not-instance-size"])
def test_cli_run_database_with_bad_values_is_runtime_error(tmp_path, capsys,
                                                          position, edit, field):
    err = run_edited_database(tmp_path, capsys,
                              lambda payload: payload["objects"][position - 1].update(edit))
    assert f"object {position} has an invalid {field!r}" in err


def build_no_objects(*args, **kwargs):
    raise AssertionError("objects were built")


# The 5-object body has about 830 characters. With `builds` False, the
# edited params need more of them for their classes (at least 73 each),
# objects or reference slots over the drawn objects (three of class 2):
# once the file is written, building any object fails the test.
@pytest.mark.parametrize("edit, key, builds", [
    (lambda params: params.pop("seed"), "seed", True),
    (lambda params: params.update(frobnicate=1), "frobnicate", True),
    (lambda params: params.update(nc="x"), "nc", True),
    (lambda params: params.update(nc=0), "nc", True),
    (lambda params: params.update(dist4="bogus"), "dist4", True),
    (lambda params: params.update(nc=99), "nc", False),
    (lambda params: params.update(maxnref=3), "maxnref", True),
    (lambda params: params.update(no=10 ** 5), "no", False),
    (lambda params: params.update(maxnref=[1, 500]), "maxnref", False),
], ids=["missing-seed", "extra-key", "nc-not-int", "nc-zero", "dist4-bogus",
        "nc-not-class-count", "maxnref-not-slot-count", "no-beyond-the-body",
        "drawn-slots-beyond-the-body"])
def test_cli_run_database_with_bad_params_is_runtime_error(tmp_path, capsys, monkeypatch,
                                                          edit, key, builds):
    def edit_params(payload):
        edit(payload["params"])
        if not builds:
            monkeypatch.setattr("ocb.generator.generate_objects", build_no_objects)

    err = run_edited_database(tmp_path, capsys, edit_params)
    assert "invalid generator parameters" in err
    assert re.search(rf"\b{key}\b", err)


# The edits of a 5-object file that loaded before load regenerated the
# objects. Two of them give the very text that their params generate.
@pytest.mark.parametrize("edit, loads", [
    (lambda payload: payload["params"].update(supref=3), True),
    (lambda payload: payload["params"].update(inheritance_types=[]), True),
    (lambda payload: payload["params"].update(infref=2), False),
    (lambda payload: payload["params"].update(dist3="constant:1"), False),
    (lambda payload: payload["report"].update(cycle_suppressed=7), False),
], ids=["supref-3", "no-inheritance-types", "infref-2", "dist3-constant",
        "cycle_suppressed-7"])
def test_cli_run_database_loads_if_and_only_if_it_is_the_text_of_its_params(
        tmp_path, capsys, edit, loads):
    path, regenerated = tmp_path / "edited.ocb", tmp_path / "regenerated.ocb"
    params = GeneratorParams.from_dict(write_edited_database(path, edit)["params"])
    save_database(generate_database(params), str(regenerated))
    assert (path.read_bytes() == regenerated.read_bytes()) is loads
    capsys.readouterr()
    code = main(["run", "--db", str(path), *ALL_TRANSACTION_TYPES,
                 "--out-dir", str(tmp_path / "out")])
    if loads:
        assert code == 0
        assert load_database(str(path)) == generate_database(params)
    else:
        assert code == 3
        assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0, 2, "1"],
                         ids=["true", "float", "two", "string"])
def test_cli_run_database_with_another_format_version_is_runtime_error(tmp_path, capsys,
                                                                     version):
    # true and 1.0 equal the version 1 in Python, yet are not the int 1
    err = run_edited_database(tmp_path, capsys, lambda payload: payload.update(format=version))
    assert f"unsupported format version {version!r}" in err


def test_cli_run_database_with_non_canonical_text_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "indented.ocb"
    assert main(["generate", "--nc", "2", "--no", "5", "--maxnref", "1",
                 "--out", str(path)]) == 0
    magic, body = path.read_text().splitlines()
    path.write_text(f"{magic}\n{json.dumps(json.loads(body), indent=1)}\n")
    capsys.readouterr()
    assert main(["run", "--db", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "not the canonical text of its params" in err


@pytest.mark.parametrize("owner, position, edit, field", [
    ("object", 1, {"class_id": 9}, "class_id"),
    ("object", 2, {"class_id": 0}, "class_id"),
    ("class", 1, {"id": 2}, "id"),
    ("class", 2, {"iterator": [99]}, "iterator"),
    ("class", 1, {"tref": [9]}, "tref"),
    ("class", 2, {"tref": [0]}, "tref"),
    ("class", 1, {"cref": ["x"]}, "cref"),
    ("class", 2, {"instance_size": -7}, "instance_size"),
    ("class", 1, {"basesize": True}, "basesize"),
], ids=["class_id-above-nc", "class_id-zero", "class-id-not-position",
        "iterator-out-of-range", "tref-above-nreft", "tref-zero", "cref-not-a-class",
        "instance_size-negative", "basesize-true"])
def test_cli_run_database_with_bad_class_values_is_runtime_error(tmp_path, capsys, owner,
                                                                position, edit, field):
    table = {"object": "objects", "class": "classes"}[owner]
    err = run_edited_database(tmp_path, capsys,
                              lambda payload: payload[table][position - 1].update(edit))
    assert f"{owner} {position} has an invalid {field!r}" in err


def set_backref(position, pairs, derived):
    """Edit: object `position`'s backref becomes `pairs`; it was `derived`."""
    def edit(payload):
        assert payload["objects"][position - 1]["backref"] == derived
        payload["objects"][position - 1]["backref"] = pairs
    return edit


def move_last_iterator_entry(payload):
    """Edit: class 2's last iterator entry moves to the end of class 1's."""
    payload["classes"][0]["iterator"].append(payload["classes"][1]["iterator"].pop())


def duplicate_iterator_entry(payload):
    """Edit: class 2's second iterator entry appears twice."""
    iterator = payload["classes"][1]["iterator"]
    iterator.insert(1, iterator[1])


def first_iterator_entry_true(payload):
    """Edit: class 2's first iterator entry, object 1, becomes `true`."""
    iterator = payload["classes"][1]["iterator"]
    assert iterator[0] == 1
    iterator[0] = True


def relink_to_wrong_class(payload):
    """Edit: object 1's link to object 2 (class 1) goes to object 4 (class 2),
    and both objects' backref lists follow, so only the class is wrong."""
    objects = payload["objects"]
    assert objects[0]["oref"] == [2] and objects[3]["class_id"] == 2
    objects[0]["oref"] = [4]
    set_backref(2, [], [[1, 0]])(payload)
    set_backref(4, [[1, 0]], [])(payload)


# In the 5-object database, object 1 (class 2) links to object 2, objects
# 4 and 5 (class 2) link to object 3; objects 2 and 3 are class 1.
@pytest.mark.parametrize("owner, position, field, edit", [
    ("object", 1, "backref", set_backref(1, [[1, 0]], [])),
    ("object", 3, "backref", set_backref(3, [[5, 0], [4, 0]], [[4, 0], [5, 0]])),
    ("object", 2, "backref", set_backref(2, [[1, False]], [[1, 0]])),
    ("class", 1, "iterator", move_last_iterator_entry),
    ("class", 2, "iterator", duplicate_iterator_entry),
    ("class", 2, "iterator", first_iterator_entry_true),
    ("object", 1, "oref", relink_to_wrong_class),
], ids=["backref-without-link", "backrefs-reordered", "backref-slot-false",
        "iterator-entry-moved", "iterator-entry-duplicated", "iterator-entry-true",
        "oref-target-of-another-class"])
def test_cli_run_database_with_underived_lists_is_runtime_error(tmp_path, capsys, owner,
                                                               position, field, edit):
    err = run_edited_database(tmp_path, capsys, edit)
    assert f"{owner} {position} has an invalid {field!r}" in err


NOT_UTF8 = [random.Random(9).randbytes(3000), b"OCBDB1\n\xff\xfe{}"]


@pytest.mark.parametrize("content", NOT_UTF8, ids=["random-bytes", "bad-body"])
def test_cli_files_that_are_not_utf8_are_named_errors(tmp_path, capsys, content):
    path = tmp_path / "binary"
    path.write_bytes(content)
    out_dir = str(tmp_path / "out")
    capsys.readouterr()
    for argv, code in ((["run", "--db", str(path), "--out-dir", out_dir], 3),
                       (["compare", str(path), str(path)], 3),
                       (["run", "--config", str(path), "--out-dir", out_dir], 2)):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(path) in err and "not UTF-8 text" in err


def test_cli_a_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys,
                                                                 monkeypatch):
    def generate_nothing(params):
        raise AssertionError("generate_database called without a config file")

    monkeypatch.setattr("ocb.cli.generate_database", generate_nothing)
    for path in (tmp_path / "missing.cfg", tmp_path):  # no such file, a directory
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{path}: cannot read the config file: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exit_code(tmp_path):
    assert main(["run", "--pset", "0.9", "--out-dir", str(tmp_path)]) == 2
    assert main(["generate", "--preset", "bogus",
                 "--out", str(tmp_path / "x")]) == 2


def test_cli_rejects_preset_key_in_config_file(tmp_path, capsys):
    # a preset set in the file would otherwise be dropped without a word
    config_file = tmp_path / "c.conf"
    config_file.write_text("preset = dstc-club\n")
    assert main(["run", "--config", str(config_file), "--no", "100",
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'preset'" in err and "--preset" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_unknown_policy_is_config_error_before_generation(tmp_path, capsys,
                                                               monkeypatch):
    def generate_nothing(params):
        raise AssertionError("generate_database called for an unknown policy")

    monkeypatch.setattr("ocb.cli.generate_database", generate_nothing)
    assert main(["run", "--policy", "magic", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown policy 'magic'" in err and "'none' or 'dstc'" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_dstc_run_checks_its_dstc_params_once(tmp_path, monkeypatch):
    # the policy name is checked against the policy table, building no policy
    db_path = tmp_path / "ocb.db"
    assert main(["generate", *SMALL, "--out", str(db_path)]) == 0
    checked = []
    validate = DstcParams.validate

    def counted(params):
        checked.append(params)
        validate(params)

    monkeypatch.setattr(DstcParams, "validate", counted)
    assert main(["run", "--db", str(db_path), "--coldn", "2", "--hotn", "3",
                 "--policy", "dstc", "--out-dir", str(tmp_path / "out")]) == 0
    assert len(checked) == 1


@pytest.mark.parametrize("command", ["run", "generate"])
def test_cli_memory_error_is_runtime_error(tmp_path, capsys, monkeypatch, command):
    # a configuration too large for the host ends with a message, not a traceback
    def out_of_memory(params):
        raise MemoryError

    monkeypatch.setattr("ocb.cli.generate_database", out_of_memory)
    out = ["--out-dir", str(tmp_path)] if command == "run" else ["--out", str(tmp_path / "x")]
    assert main([command, "--no", "100", *out]) == 3
    err = capsys.readouterr().err
    assert err == "error: this configuration needs more memory than is available\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--think", "inf"), ("--io-cost", "nan"),
                                         ("--selection-threshold", "nan")])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "reports"
    assert main(["run", "--nc", "3", "--no", "50", "--coldn", "3", "--hotn", "5",
                 "--policy", "dstc", flag, value, "--out-dir", str(out_dir)]) == 2
    assert f"bad value for {flag[2:].replace('-', '_')}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["--think", "-1e-3"], "think must be >= 0 (got -0.001)"),
    (["--think=-1e-3"], "think must be >= 0 (got -0.001)"),
    (["--io-cost", "-2E5"], "io_cost must be >= 0 (got -200000.0)"),
    (["--maxnref", "-1e3"], "bad value for maxnref: invalid literal for int()"),
    (["--nc", "3", "--basesize", "-1,50,50"], "basesize must be >= 0 (got -1)"),
], ids=["think", "think-joined", "io-cost", "int-flag", "per-class-list"])
def test_cli_negative_value_after_a_flag_is_a_value(tmp_path, capsys, argv, message):
    # argparse on its own takes a value such as -1e-3 or -1,50,50 for an option
    out_dir = tmp_path / "out"
    assert main(["run", "--no", "50", *argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert not out_dir.exists()


def test_cli_dist5_constant_below_one_names_no_bound_the_user_never_set(tmp_path, capsys):
    # dist5 has no upper bound of its own: the run checks it against the objects
    out_dir = tmp_path / "out"
    assert main(["run", "--no", "50", "--dist5", "constant:0", "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: dist5: constant 0 outside [1, ")
    assert str(1 << 62) not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--io-cost", "--think"])
def test_cli_clock_overflow_is_runtime_error(tmp_path, capsys, flag):
    # each value is finite, but the clock they add up to is not: a report
    # would hold Infinity, which strict JSON parsers reject
    assert main(["run", "--no", "500", "--coldn", "50", "--hotn", "100",
                 flag, "1e308", "--out-dir", str(tmp_path)]) == 3
    assert "simulated clock overflowed" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("group, field", [
    (StorageParams, "io_cost"), (StorageParams, "cpu_cost"),
    (WorkloadParams, "think"), (WorkloadParams, "pset"),
    (DstcParams, "selection_threshold"), (DstcParams, "unit_link_threshold")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_param_groups_reject_non_finite_floats(group, field, value):
    with pytest.raises(ParameterError, match=f"{field} must be a finite number"):
        group(**{field: value}).validate()


def test_cli_deep_cyclic_traversal_runs_to_full_depth(tmp_path):
    # reference type 3 is cyclic here and every object has one type-3 link,
    # so a hierarchy walk goes the whole 5000 hops, far past the
    # interpreter's recursion limit
    code = main(["run", "--nc", "2", "--no", "200", "--nreft", "3",
                 "--dist1", "constant:3", "--maxnref", "1", "--pset", "0",
                 "--psimple", "0", "--phier", "1", "--pstoch", "0",
                 "--hierarchy-ref-type", "3", "--hiedepth", "5000",
                 "--coldn", "1", "--hotn", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert any(row["type"] == "hierarchy" and row["objects"] == "5001" for row in rows)


def test_cli_rerun_is_byte_identical(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for directory, seed in zip(dirs, ("5", "5", "6")):
        assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "40",
                     "--coldn", "8", "--hotn", "12", "--seed", seed,
                     "--out-dir", str(directory)]) == 0
    csv_a = (dirs[0] / "report.csv").read_bytes()
    csv_b = (dirs[1] / "report.csv").read_bytes()
    csv_c = (dirs[2] / "report.csv").read_bytes()
    assert csv_a == csv_b
    assert csv_a != csv_c
    assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()


REPORTS = ("report.csv", "report_stats.csv", "report.json", "report.txt")


@pytest.mark.parametrize("name", REPORTS)
def test_a_run_that_cannot_replace_one_report_replaces_none(tmp_path, capsys, name):
    out_dir = tmp_path / "out"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    old = {report: (out_dir / report).read_bytes() for report in REPORTS}
    (out_dir / name).unlink()
    (out_dir / name).mkdir()
    capsys.readouterr()
    assert main(["run", *QUICK_RUN, "--seed", "7", "--out-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out_dir / name)) in err
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(REPORTS)
    for report in REPORTS:
        if report != name:
            assert (out_dir / report).read_bytes() == old[report]
    # the seed-7 run writes other bytes once it can
    (out_dir / name).rmdir()
    assert main(["run", *QUICK_RUN, "--seed", "7", "--out-dir", str(out_dir)]) == 0
    assert all((out_dir / report).read_bytes() != old[report] for report in REPORTS)


def test_a_report_that_fails_midway_leaves_every_report_as_it_was(tmp_path, capsys,
                                                                  monkeypatch):
    out_dir = tmp_path / "out"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    old = {report: (out_dir / report).read_bytes() for report in REPORTS}

    def write_half(payload, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr("ocb.cli.write_json", write_half)
    capsys.readouterr()
    assert main(["run", *QUICK_RUN, "--seed", "7", "--out-dir", str(out_dir)]) == 3
    # the message names the report, not the temporary file
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
        f"{str(out_dir / 'report.json')!r}\n")
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == old


def test_cli_compare_out_to_a_directory_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "r"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    report = str(out_dir / "report.json")
    target = tmp_path / "cmp.json"
    target.mkdir()
    capsys.readouterr()
    assert main(["compare", report, report, "--out", str(target)]) == 3
    assert repr(str(target)) in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cmp.json", "r"]
    assert not any(target.iterdir())


def test_cli_compare_same_report(tmp_path, capsys):
    out_dir = tmp_path / "r"
    main(["run", *QUICK_RUN, "--out-dir", str(out_dir)])
    report = str(out_dir / "report.json")
    assert main(["compare", report, report, "--out",
                 str(tmp_path / "cmp.json")]) == 0
    assert "1.000" in capsys.readouterr().out
    assert (tmp_path / "cmp.json").exists()


def test_cli_compare_mismatched_seeds_requires_force(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    main(["run", *QUICK_RUN, "--out-dir", str(dir_a)])
    main(["run", "--nc", "3", "--maxnref", "2", "--no", "40", "--seed", "6",
          "--coldn", "8", "--hotn", "12", "--out-dir", str(dir_b)])
    report_a = str(dir_a / "report.json")
    report_b = str(dir_b / "report.json")
    assert main(["compare", report_a, report_b]) == 3
    assert main(["compare", report_a, report_b, "--force"]) == 0


@pytest.mark.parametrize("body, message", [
    ("x\n", "not readable JSON"), ('{"format": 1}\n', "malformed report metrics"),
    (DEEP_JSON, "not readable JSON"), ("[1, 2]\n", "report is not a JSON object"),
    ('{"format": 2}\n', "unsupported report format 2"),
    ('{"format": true}\n', "unsupported report format True"),
    ('{"format": 1.0}\n', "unsupported report format 1.0"),
], ids=["not-json", "no-metrics", "nested-too-deep", "not-an-object", "unsupported-format",
        "format-true", "format-float"])
def test_cli_compare_malformed_report_is_runtime_error(tmp_path, capsys, body, message):
    path = tmp_path / "r.json"
    path.write_text(body)
    assert main(["compare", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload["metrics"].update(stats={"X": {}}), "stats must hold the phases"),
    (lambda payload: payload["metrics"]["stats"]["HOT"].pop("set"), "stats must hold the phases"),
    (lambda payload: payload["metrics"]["stats"]["HOT"].update(Y={}),
     "stats must hold the phases"),
    (lambda payload: payload.update(fingerprint=5), "bad value for fingerprint"),
], ids=["unknown-phase-only", "missing-type", "unknown-type", "int-top-level-fingerprint"])
def test_cli_compare_checks_report_stats_keys_and_fingerprint(tmp_path, capsys, edit,
                                                              message):
    out_dir = tmp_path / "r"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    path = out_dir / "report.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(path), str(path), "--force"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and message in err


@pytest.mark.parametrize("phase, field, value", [
    ("HOT", "mean_faults", "x"),
    (None, "gain_factor", "x"),
    ("HOT", "mean_faults", True),
    ("HOT", "mean_faults", float("nan")),
    (None, "gain_factor", float("inf")),
    ("HOT", "mean_faults", 10**400),
    ("HOT", "count", -1),
    ("COLD", "mean_time", -0.5),
    (None, "fingerprint", 5),
], ids=["string-mean-faults", "string-gain-factor", "true-mean-faults", "nan-mean-faults",
        "infinite-gain-factor", "mean-faults-past-the-float-range", "negative-count",
        "negative-mean-time", "int-fingerprint"])
def test_cli_compare_wrong_typed_metric_is_runtime_error(tmp_path, capsys, phase, field,
                                                         value):
    out_dir = tmp_path / "r"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    path = out_dir / "report.json"
    assert main(["compare", str(path), str(path)]) == 0
    payload = json.loads(path.read_text())
    metrics = payload["metrics"]
    (metrics if phase is None else metrics["stats"][phase]["all"])[field] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and field in err


@pytest.mark.parametrize("field, value, bound", [
    ("overhead_reads", -5, ">= 0"), ("overhead_writes", -1, ">= 0"),
    ("reorganizations", -1, ">= 0"), ("gain_window", -3, ">= 1"), ("gain_window", 0, ">= 1"),
    ("gain_factor", -0.5, ">= 0"),
])
def test_cli_compare_report_counter_outside_its_bounds_is_runtime_error(tmp_path, capsys,
                                                                        field, value, bound):
    out_dir = tmp_path / "r"
    assert main(["run", *QUICK_RUN, "--out-dir", str(out_dir)]) == 0
    path = out_dir / "report.json"
    payload = json.loads(path.read_text())
    payload["metrics"][field] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(path), str(path)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and f"{field} must be {bound} (got {value})" in err


def write_huge_int(path, key):
    """Rewrite the first `key` value in the JSON text of `path` as a
    5000-digit literal, over CPython's 4300-digit int conversion limit."""
    text = path.read_text()
    path.write_text(re.sub(rf'("{key}":\s*)\d+', rf"\g<1>{'9' * 5000}", text, count=1))


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_int_literal_over_the_digit_limit_is_runtime_error(tmp_path, capsys, command):
    db_path = tmp_path / "db.ocb"
    assert main(["generate", "--nc", "2", "--no", "5", "--maxnref", "1",
                 "--out", str(db_path)]) == 0
    report = tmp_path / "r" / "report.json"
    assert main(["run", "--db", str(db_path), "--coldn", "2", "--hotn", "2",
                 "--out-dir", str(report.parent)]) == 0
    if command == "run":
        path, argv = db_path, ["run", "--db", str(db_path),
                               "--out-dir", str(tmp_path / "out")]
        write_huge_int(path, "size")
    else:
        path, argv = report, ["compare", str(report), str(report)]
        write_huge_int(path, "transactions")
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "4300 digits" in err
    assert not (tmp_path / "out").exists()


def test_cli_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OCB_SEED", "5")
    out_env = tmp_path / "env.ocb"
    assert main(["generate", "--nc", "3", "--maxnref", "2", "--no", "40",
                 "--out", str(out_env)]) == 0
    monkeypatch.delenv("OCB_SEED")
    out_flag = tmp_path / "flag.ocb"
    main(["generate", *SMALL, "--out", str(out_flag)])
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_report_recomputable_from_csv_export(tmp_path):
    from types import SimpleNamespace

    from ocb.metrics import aggregate
    from ocb.workload import CSV_COLUMNS, ExperimentLog, ReorgEvent

    out_dir = tmp_path / "r"
    assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "60",
                 "--seed", "3", "--coldn", "30", "--hotn", "30",
                 "--policy", "dstc", "--observation-period", "20",
                 "--buffer-pages", "4", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_COLUMNS
    # the CSV holds no client, and aggregation reads none
    records = [SimpleNamespace(index=i, phase=phase, type=kind, direction=direction,
                               root=int(root), objects=int(objects), faults=int(faults),
                               sim_time=float(sim_time))
               for i, (phase, kind, direction, root, objects, faults, sim_time)
               in enumerate(rows)]
    log = ExperimentLog(records=records,
                        reorgs=[ReorgEvent(**e) for e in payload["reorganizations"]])
    # the rebuilt log's totals come from the CSV rows and the reorganizations
    assert payload["counters"] == {"transaction_reads": log.transaction_reads,
                                   "overhead_reads": log.overhead_reads,
                                   "overhead_writes": log.overhead_writes}
    recomputed = aggregate(log, gain_window=payload["config"]["gain_window"],
                           fingerprint=payload["fingerprint"])
    assert recomputed.to_dict() == payload["metrics"]


def test_cli_dstc_run_emits_reorganizations(tmp_path):
    out_dir = tmp_path / "dstc"
    assert main(["run", "--nc", "3", "--maxnref", "2", "--no", "60",
                 "--seed", "3", "--coldn", "30", "--hotn", "30",
                 "--policy", "dstc", "--observation-period", "20",
                 "--buffer-pages", "4", "--out-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["reorganizations"]
    assert payload["counters"]["overhead_writes"] > 0
    assert payload["config"]["policy"] == "dstc"
