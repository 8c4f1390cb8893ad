"""The benchmark's three workloads and how to find the ocb sources.

Every workload runs the database generated with DB_SEED; the benchmark's
--seed picks STREAMS run seeds, which drive the transaction streams
(clients' type, root, direction and stochastic substreams). Generator seeds move the
shape of the `default` database far more than run length does: seeds 1-10
give 757 to 2030 pages and 175 k to 365 k object accesses per 1000
transactions, so a per-seed database would make run time a property of the
seed. The same files come out of `ocb generate --seed 1` followed by
`ocb run --db ... --seed N`, since `run --db` takes the generator
parameters from the file.
"""
from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DB_SEED = 1
# Each run measures this many transaction streams, each from its own run
# seed, and reports their mean: the run-seed spread of run_protocol's time
# on default-dstc is about 9 % for one 4000-transaction stream.
STREAMS = 3


def import_ocb() -> None:
    """Import ocb from this checkout's src/, or exit with code 2."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import ocb
    except ImportError as exc:
        sys.stderr.write(f"bench: cannot import ocb from {SRC}: {exc}\n")
        raise SystemExit(2) from None
    if Path(ocb.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"bench: ocb imported from {ocb.__file__}, not from {SRC}\n")
        raise SystemExit(2)


# The A3 configuration of tests/test_acceptance.py (CLUB_GAIN_OVERRIDES):
# depth-first only, four sticky clients, a 16-page buffer against the
# 247-page club database, a 500-transaction observation period.
CLUB_A3 = {
    "psimple": "1", "pset": "0", "phier": "0", "pstoch": "0",
    "clientn": "4", "dist5": "special:0:0.995",
    "dist4": "special:1000:0.9",
    "coldn": "300", "hotn": "500",
    "buffer_pages": "16", "observation_period": "500",
    "policy": "dstc",
}
# Four observation periods of the standard mix: long enough that the
# run-seed spread of object accesses stays near 2 % (it is 5 % at 2000).
DEFAULT_LENGTH = {"coldn": "1000", "hotn": "3000"}


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: dict
    # Placement independence: the same stream rerun under policy none must
    # access the same objects. Under policy none it is rerun from objects
    # packed in descending id order, so that the placement differs.
    reversed_reference: bool


WORKLOADS = {
    "default-none": Workload("default", dict(DEFAULT_LENGTH, policy="none"),
                             reversed_reference=True),
    "default-dstc": Workload("default", dict(DEFAULT_LENGTH, policy="dstc"),
                             reversed_reference=False),
    "club-dstc": Workload("dstc-club", CLUB_A3, reversed_reference=False),
}


def run_seeds(seed: int) -> list[int]:
    """The STREAMS run seeds of benchmark seed `seed`; disjoint for seeds >= 1."""
    return [STREAMS * (seed - 1) + 1 + k for k in range(STREAMS)]


def config_for(name: str, seed: int):
    """The experiment configuration `ocb run` resolves for this workload."""
    from ocb.config import build_config

    workload = WORKLOADS[name]
    config = build_config(preset=workload.preset,
                          flag_overrides=dict(workload.overrides, seed=str(seed)))
    config.generator = build_config(
        preset=workload.preset,
        flag_overrides=dict(workload.overrides, seed=str(DB_SEED))).generator
    return config


def _flags(name: str) -> list[str]:
    flags = []
    for key, value in WORKLOADS[name].overrides.items():
        flags += [f"--{key.replace('_', '-')}", value]
    return flags


def generate_command(name: str, db_path: str) -> str:
    """Shell command that rebuilds the workload's database file."""
    return "PYTHONPATH=src " + shlex.join(
        ["python3", "-m", "ocb.cli", "generate", "--preset", WORKLOADS[name].preset,
         "--seed", str(DB_SEED), *_flags(name), "--out", db_path])


def run_command(name: str, seed: int, db_path: str, out_dir: str) -> str:
    """Shell command that rebuilds one run seed's four report files."""
    return "PYTHONPATH=src " + shlex.join(
        ["python3", "-m", "ocb.cli", "run", "--db", db_path,
         "--preset", WORKLOADS[name].preset, "--seed", str(seed), *_flags(name),
         "--out-dir", out_dir])
