"""Experiment configuration: flat key=value surface over the param groups.

Resolution order is defaults, then preset, then config file, then explicit
flag overrides; later layers win. The fully-resolved configuration is
embedded in every report so a run can be reproduced from its output alone.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .distributions import parse_distribution
from .errors import ParameterError
from .generator import GeneratorParams
from .policies import DstcParams
from .presets import preset_overrides
from .storage import StorageParams
from .workload import WorkloadParams

GENERATOR_KEYS = ("nc", "maxnref", "basesize", "no", "nreft", "infclass",
                  "supclass", "infref", "supref", "dist1", "dist2", "dist3",
                  "dist4", "acyclic_types", "inheritance_types")
STORAGE_KEYS = ("page_size", "buffer_pages", "io_cost", "cpu_cost", "spanning")
WORKLOAD_KEYS = ("setdepth", "simdepth", "hiedepth", "stodepth", "coldn", "hotn",
                 "think", "pset", "psimple", "phier", "pstoch", "dist5",
                 "clientn", "reverse_probability", "hierarchy_ref_type")
DSTC_KEYS = ("observation_period", "selection_threshold", "consolidation_weight",
             "unit_link_threshold", "reorganize_trigger", "max_unit_size")
OTHER_KEYS = ("policy", "gain_window", "seed")

_INT_KEYS = {"nc", "no", "nreft", "infclass", "supclass", "infref", "supref",
             "page_size", "buffer_pages", "setdepth", "simdepth", "hiedepth",
             "stodepth", "coldn", "hotn", "clientn", "hierarchy_ref_type",
             "observation_period", "reorganize_trigger", "max_unit_size",
             "gain_window", "seed"}
_FLOAT_KEYS = {"io_cost", "cpu_cost", "think", "pset", "psimple", "phier",
               "pstoch", "reverse_probability", "selection_threshold",
               "consolidation_weight", "unit_link_threshold"}
_BOOL_KEYS = {"spanning"}
_LIST_KEYS = {"acyclic_types", "inheritance_types"}
_INT_OR_LIST_KEYS = {"maxnref", "basesize"}
_STR_KEYS = {"dist1", "dist2", "dist3", "dist4", "dist5", "policy"}

ALL_KEYS = GENERATOR_KEYS + STORAGE_KEYS + WORKLOAD_KEYS + DSTC_KEYS + OTHER_KEYS


def _coerce(key: str, value) -> object:
    if not isinstance(value, str):
        return value
    text = value.strip()
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            number = float(text)
            if not math.isfinite(number):
                raise ValueError(f"not a finite number: {text}")
            return number
        if key in _BOOL_KEYS:
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text}")
        if key in _LIST_KEYS:
            return frozenset(int(v) for v in text.split(",") if v.strip())
        if key in _INT_OR_LIST_KEYS:
            if "," in text:
                return tuple(int(v) for v in text.split(",") if v.strip())
            return int(text)
        if key in _STR_KEYS:
            return text
    except ValueError as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from None
    raise ParameterError(f"unknown configuration key {key!r}")


@dataclass
class ExperimentConfig:
    generator: GeneratorParams = field(default_factory=GeneratorParams)
    storage: StorageParams = field(default_factory=StorageParams)
    workload: WorkloadParams = field(default_factory=WorkloadParams)
    dstc: DstcParams = field(default_factory=DstcParams)
    policy: str = "none"
    gain_window: int = 500
    seed: int = 0
    preset: str | None = None

    def validate(self) -> None:
        self.generator.validate()
        self.storage.validate()
        self.workload.validate()
        self.dstc.validate()
        if self.policy not in ("none", "dstc"):
            raise ParameterError(f"unknown policy {self.policy!r}")
        if self.gain_window < 1:
            raise ParameterError("gain_window must be >= 1")

    def resolved_dict(self) -> dict:
        """Everything needed to reproduce the run, as one nested dict."""
        return {
            "generator": self.generator.to_dict(),
            "storage": self.storage.to_dict(),
            "workload": self.workload.to_dict(),
            "dstc": self.dstc.to_dict(),
            "policy": self.policy,
            "gain_window": self.gain_window,
            "seed": self.seed,
            "preset": self.preset,
        }

    def fingerprint(self) -> str:
        """Workload identity: everything except the clustering policy."""
        basis = {
            "generator": self.generator.to_dict(),
            "storage": self.storage.to_dict(),
            "workload": self.workload.to_dict(),
            "seed": self.seed,
        }
        canon = json.dumps(basis, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


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
    values = {}
    for key, raw in merged.items():
        if key == "preset":
            continue
        if key not in ALL_KEYS:
            raise ParameterError(f"unknown configuration key {key!r}")
        values[key] = _coerce(key, raw)

    seed = values.get("seed", 0)
    gen_kwargs = {k: values[k] for k in GENERATOR_KEYS if k in values}
    for dist_key in ("dist1", "dist2", "dist3", "dist4"):
        if dist_key in gen_kwargs:
            gen_kwargs[dist_key] = parse_distribution(gen_kwargs[dist_key])
    sto_kwargs = {k: values[k] for k in STORAGE_KEYS if k in values}
    wl_kwargs = {k: values[k] for k in WORKLOAD_KEYS if k in values}
    if "dist5" in wl_kwargs:
        wl_kwargs["dist5"] = parse_distribution(wl_kwargs["dist5"])
    dstc_kwargs = {k: values[k] for k in DSTC_KEYS if k in values}

    config = ExperimentConfig(
        generator=GeneratorParams(seed=seed, **gen_kwargs),
        storage=StorageParams(**sto_kwargs),
        workload=WorkloadParams(seed=seed, **wl_kwargs),
        dstc=DstcParams(**dstc_kwargs),
        policy=values.get("policy", "none"),
        gain_window=values.get("gain_window", 500),
        seed=seed,
        preset=preset,
    )
    config.validate()
    return config


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value UTF-8 file; '#' starts a comment."""
    overrides: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: config file is not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides
