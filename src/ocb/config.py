"""Experiment configuration: flat key=value surface over the param groups.

Resolution order is defaults, then preset, then config file, then explicit
flag overrides; later layers win. The fully-resolved configuration is
embedded in every report so a run can be reproduced from its output alone.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields

from .errors import ParameterError
from .generator import GeneratorParams
from .metrics import DEFAULT_GAIN_WINDOW
from .params import bounded, check_field, read_text
from .policies import DstcParams, make_policy
from .presets import preset_overrides
from .storage import StorageParams
from .workload import WorkloadParams


@dataclass
class ExperimentConfig:
    generator: GeneratorParams = field(default_factory=GeneratorParams)
    storage: StorageParams = field(default_factory=StorageParams)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    dstc: DstcParams = field(default_factory=DstcParams)
    policy: str = "none"
    gain_window: int = bounded(DEFAULT_GAIN_WINDOW, 1)
    seed: int = 0
    preset: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:  # each group was checked when it was made
        for f in fields(self):
            if f.name not in GROUPS:
                check_field(self, f)
        make_policy(self.policy)  # raises ParameterError for an unknown name

    def resolved_dict(self) -> dict:
        """Everything needed to reproduce the run, as one nested dict."""
        return {name: value.to_dict() if name in GROUPS else value
                for name, value in vars(self).items()}

    def fingerprint(self) -> str:
        """Workload identity: everything except the clustering policy."""
        resolved = self.resolved_dict()
        basis = {name: resolved[name] for name in ("generator", "storage", "workload", "seed")}
        canon = json.dumps(basis, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


# the parameter groups, each built from its own keys
GROUPS = {f.name: f.default_factory for f in fields(ExperimentConfig)
          if f.default_factory is not MISSING}
# the experiment's own parameters, with their defaults; `preset` is not a key
_OWN = {f.name: f for f in fields(ExperimentConfig)
        if f.default_factory is MISSING and f.name != "preset"}
# every key's annotation; `seed` is the experiment's, and each group that has
# a `seed` field takes it from there
_ANNOTATIONS = {f.name: f.type for group in GROUPS.values() for f in fields(group)}
_ANNOTATIONS.update((name, f.type) for name, f in _OWN.items())
ALL_KEYS = tuple(key for key in _ANNOTATIONS if key not in _OWN) + tuple(_OWN)


def build_config(preset: str | None = None,
                 file_overrides: dict | None = None,
                 flag_overrides: dict | None = None) -> ExperimentConfig:
    """Layer preset, config file, and flags over the defaults."""
    merged: dict[str, object] = {}
    if preset is not None:
        merged.update(preset_overrides(preset))
    for layer in (file_overrides, flag_overrides):
        if layer:
            merged.update({k: v for k, v in layer.items() if v is not None})
    values = {name: f.default for name, f in _OWN.items()}
    for key, raw in merged.items():
        if key == "preset":
            raise ParameterError("'preset' is not a configuration key; "
                                 "select a preset with --preset NAME")
        if key not in _ANNOTATIONS:
            raise ParameterError(f"unknown configuration key {key!r}")
        values[key] = read_text(_ANNOTATIONS[key], key, raw)

    return ExperimentConfig(
        **{name: group(**{f.name: values[f.name] for f in fields(group) if f.name in values})
           for name, group in GROUPS.items()},
        **{name: values[name] for name in _OWN},
        preset=preset,
    )


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value UTF-8 file, with or without a byte order mark;
    '#' starts a comment."""
    overrides: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: config file is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ParameterError(f"{path}: cannot read the config file: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides
