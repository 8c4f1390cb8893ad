"""Generic clustering-oriented object database benchmark engine."""

from .config import ExperimentConfig, build_config
from .distributions import Constant, Special, Uniform
from .generator import (
    ClassDescriptor,
    Database,
    GeneratorParams,
    ObjectInstance,
    enforce_consistency,
    generate_database,
    generate_objects,
    generate_schema,
    load_database,
    save_database,
)
from .metrics import MetricsReport, aggregate, compare
from .policies import DstcParams, DstcPolicy, NoClustering, make_policy
from .storage import StorageParams, StorageState, place_sequential
from .workload import WorkloadParams, run_protocol, transaction_stream

__version__ = "0.1.0"

__all__ = [
    "ClassDescriptor",
    "Constant",
    "Database",
    "DstcParams",
    "DstcPolicy",
    "ExperimentConfig",
    "GeneratorParams",
    "MetricsReport",
    "NoClustering",
    "ObjectInstance",
    "Special",
    "StorageParams",
    "StorageState",
    "Uniform",
    "WorkloadParams",
    "aggregate",
    "build_config",
    "compare",
    "enforce_consistency",
    "generate_database",
    "generate_objects",
    "generate_schema",
    "load_database",
    "make_policy",
    "place_sequential",
    "run_protocol",
    "save_database",
    "transaction_stream",
]
