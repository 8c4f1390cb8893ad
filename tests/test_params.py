"""The parameter surface: every parameter group field is a config key, an
`ocb run` flag, a text reading and a JSON form, with nothing else to edit."""
import hashlib
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ocb.cli import build_parser, main
from ocb.config import ALL_KEYS, GROUPS, ExperimentConfig, build_config
from ocb.errors import ParameterError
from ocb.generator import GenerationReport, GeneratorParams
from ocb.metrics import aggregate
from ocb.params import KINDS
from ocb.storage import StorageParams
from ocb.workload import ExperimentLog, WorkloadParams

README = Path(__file__).resolve().parent.parent / "README.md"

# SHA-256 of json.dumps(resolved_dict(), sort_keys=True) and of fingerprint(),
# as resolved before parameters were derived from the dataclass fields
CONFIGS = {
    "default": ({"preset": "default"},
                "84763861b34045dbbdc11ab7e3d061f674cf64b9ac5e220cce5c13321c67173b",
                "574acefb53745a35022914315e9812370e8810a04274b9c73629289df65338d7"),
    "dstc-club": ({"preset": "dstc-club"},
                  "0b88ae79e80d724cd2a2b35491bf8cc7f0ccffb722d152363faa206102661548",
                  "daadf83857908252b196b2bdf3793a7b6e1bb587b71b3502f2e35de11e0cd1a7"),
    "flags": ({"flag_overrides": {"nc": "3", "maxnref": "1,2,3", "no": "300",
                                  "acyclic_types": "1,3", "think": "0.5",
                                  "dist5": "special:0:0.99", "seed": "7"}},
              "172cbb7f99c29b5b56a5de3e153c8111f5884448284f00abb03b4bc8fed21f46",
              "c0ffa15f71416e2acea441bf6b112f2c16aa071d91a9fa6c961cfa385a26af5d"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("group", GROUPS.values(), ids=GROUPS.keys())
def test_every_group_field_is_a_key_and_a_run_flag(group):
    parser = build_parser()
    for f in fields(group):
        if f.name == "seed":
            continue  # the experiment's own seed, which every group shares
        assert f.name in ALL_KEYS
        args = parser.parse_args(["run", f"--{f.name.replace('_', '-')}", "text"])
        assert getattr(args, f.name) == "text"


def test_every_annotation_has_a_text_reader():
    annotations = {f.type for group in GROUPS.values() for f in fields(group)}
    annotations |= {f.type for f in fields(ExperimentConfig)
                    if f.name in ALL_KEYS}
    assert annotations <= KINDS.keys()


@pytest.mark.parametrize("name", CONFIGS)
def test_text_config_round_trips_through_json(name):
    kwargs, _, _ = CONFIGS[name]
    config = build_config(**kwargs)
    for group_name in GROUPS:
        group = getattr(config, group_name)
        stored = json.loads(json.dumps(group.to_dict()))
        assert type(group).from_dict(stored) == group


@pytest.mark.parametrize("group, key, value", [
    (GeneratorParams, "nc", True), (GeneratorParams, "nc", 2.0),
    (GeneratorParams, "supclass", "2"), (GeneratorParams, "maxnref", [1, True]),
    (GeneratorParams, "acyclic_types", 1), (GeneratorParams, "dist1", 3),
    (StorageParams, "spanning", 1), (StorageParams, "io_cost", "1.0"),
    (GenerationReport, "cycle_suppressed", True), (GenerationReport, "out_of_range", 1.0),
])
def test_from_dict_rejects_a_json_value_of_the_wrong_type(group, key, value):
    stored = dict(group().to_dict(), **{key: value})
    with pytest.raises(ParameterError, match=f"bad value for {key}: "):
        group.from_dict(stored)


@pytest.mark.parametrize("name", CONFIGS)
def test_resolved_config_and_fingerprint_keep_their_bytes(name):
    kwargs, resolved_sha, fingerprint_sha = CONFIGS[name]
    config = build_config(**kwargs)
    assert sha256(json.dumps(config.resolved_dict(), sort_keys=True)) == resolved_sha
    assert sha256(config.fingerprint()) == fingerprint_sha


def test_readme_names_every_flag():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Parameters", 1)[1].split("\n#", 1)[0]
    named = set(re.findall(r"--[a-z0-9-]+", section))
    assert {f"--{key.replace('_', '-')}" for key in ALL_KEYS} <= named


def just_outside(f) -> list:
    """The values next to a bounded field's bounds that lie outside them,
    and for a per-class field a list with one such entry."""
    low, high = f.metadata["bounds"]
    if f.type == "float":
        values = [math.nextafter(low, -math.inf)]
        values += [] if high is None else [math.nextafter(high, math.inf)]
    else:
        values = [low - 1] + ([] if high is None else [high + 1])
    if f.type == "int | tuple[int, ...]":
        nc = GeneratorParams().nc
        values += [[low] * (nc - 1) + [value] for value in values]
    return values


# the groups' fields, then the experiment's own (gain_window)
OUTSIDE = [(group, f.name, value) for group in (*GROUPS.values(), ExperimentConfig)
           for f in fields(group) if "bounds" in f.metadata for value in just_outside(f)]
OUTSIDE_IDS = [f"{key}={value[-1]!r}-in-a-list" if isinstance(value, list) else f"{key}={value!r}"
               for _, key, value in OUTSIDE]


@pytest.mark.parametrize("group, key, value", OUTSIDE, ids=OUTSIDE_IDS)
def test_a_value_just_outside_its_bounds_is_rejected(group, key, value):
    with pytest.raises(ParameterError, match=f"^{key} must be "):
        group(**{key: value}).validate()


@pytest.mark.parametrize("group, key, value", OUTSIDE, ids=OUTSIDE_IDS)
def test_cli_rejects_a_value_just_outside_its_bounds_before_generation(
        group, key, value, tmp_path, capsys, monkeypatch):
    def generate_nothing(params):
        raise AssertionError("generate_database called for a value outside its bounds")

    monkeypatch.setattr("ocb.cli.generate_database", generate_nothing)
    text = ",".join(map(repr, value)) if isinstance(value, list) else repr(value)
    # two arguments, also for a text that argparse alone reads as an option,
    # such as -5e-324 or -1,10,10
    assert main(["run", f"--{key.replace('_', '-')}", text,
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{key} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make, field", [
    (lambda: GeneratorParams(maxnref="1"), "maxnref"),
    (lambda: GeneratorParams(nc="3"), "nc"),
    (lambda: WorkloadParams(hotn=None, pset=2), "hotn"),
    (lambda: StorageParams(io_cost="1"), "io_cost"),
    (lambda: StorageParams(spanning=1), "spanning"),
    (lambda: GeneratorParams(dist1="uniform"), "dist1"),
    (lambda: ExperimentConfig(gain_window="3"), "gain_window"),
    (lambda: aggregate(ExperimentLog(), gain_window="3"), "gain_window"),
], ids=["str-per-class", "str-int", "none-int", "str-float", "int-bool", "str-distribution",
        "str-experiment-int", "str-aggregate-int"])
def test_a_value_of_the_wrong_python_type_is_a_parameter_error(make, field):
    with pytest.raises(ParameterError, match=f"^{field} must be "):
        make().validate()


def test_aggregate_rejects_a_gain_window_outside_its_bounds():
    # before the report is built, so its report.json never reaches compare
    with pytest.raises(ParameterError, match="^gain_window must be >= 1"):
        aggregate(ExperimentLog(), gain_window=0)


@pytest.mark.parametrize("text, code", [("off", 0), ("maybe", 2)])
def test_cli_reads_a_boolean_flag(tmp_path, capsys, text, code):
    out_dir = tmp_path / "out"
    assert main(["run", "--nc", "3", "--no", "40", "--coldn", "2", "--hotn", "3",
                 "--spanning", text, "--out-dir", str(out_dir)]) == code
    if code == 0:
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["storage"]["spanning"] is False
    else:
        assert "bad value for spanning: not a boolean: maybe" in capsys.readouterr().err
        assert not out_dir.exists()
