"""The mutant catalogue: faults the test suite must catch, kept as a check.

Each entry breaks the program in one place. It names a file, an exact old
text that occurs exactly once in it, the text that replaces it, the tests
that must fail, and the `CHANGES.md` entry it comes from. Run it from any
directory:

    python tests/mutants.py             # every entry
    python tests/mutants.py NAME ...    # the named entries

The runner first checks that every old text occurs exactly once, and then
that the entries' tests pass on an unmutated copy of the tree. For each
entry it copies `src/`, `tests/`, `pyproject.toml` and `README.md` to a
temporary directory, applies the entry there and runs `pytest -x -q` on its
tests. An entry is killed only when pytest exits 1, that is when a test
fails. A stale old text, a mutant the tests pass, a collection or usage
error and a timeout each fail the run, which then exits 1.

Pytest does not collect this file, since its name does not start with
`test_`. An edit that makes an entry stale updates the entry with it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    source: str


BUFFER_TESTS = ("tests/test_storage.py", "tests/test_workload.py")
BUFFER_SOURCE = "CHANGES.md: One-lookup buffer access"
PARAM_GROUP_SOURCE = "CHANGES.md: `ExperimentConfig` and `MetricsReport` are `ParamGroup`s"

MUTANTS = (
    Mutant(
        "hit-not-refreshed", "src/ocb/storage.py",
        old=("        if page in buffer:\n"
             "            buffer.move_to_end(page)\n"
             "            return False\n"),
        new=("        if page in buffer:\n"
             "            return False\n"),
        tests=BUFFER_TESTS, source=BUFFER_SOURCE),
    Mutant(
        "fault-evicts-newest", "src/ocb/storage.py",
        old=("        buffer[page] = None\n"
             "        buffer.popitem(False)\n"
             "        return True\n"),
        new=("        buffer[page] = None\n"
             "        buffer.popitem()\n"
             "        return True\n"),
        tests=BUFFER_TESTS, source=BUFFER_SOURCE),
    Mutant(
        "rewrite-without-install", "src/ocb/storage.py",
        old="        self._install(new)\n",
        new="        self.placement = new\n",
        tests=BUFFER_TESTS, source=BUFFER_SOURCE),
    Mutant(
        "moved-pages-stay-buffered", "src/ocb/storage.py",
        old=("        for page in (old_pages | new_pages).intersection(buffer):\n"
             "            del buffer[page]\n"
             "            free = next(self._sentinels)\n"
             "            buffer[free] = None\n"
             "            buffer.move_to_end(free, last=False)\n"),
        new="",
        tests=BUFFER_TESTS, source=BUFFER_SOURCE),
    Mutant(
        "gain-without-empty-window-guard", "src/ocb/metrics.py",
        old=("    if not before or not after:\n"
             "        return None\n"),
        new="",
        tests=("tests/test_metrics.py::"
               "test_gain_undefined_without_reorganization_or_with_zero_after",),
        source="CHANGES.md: The preset bundles live in `ocb.config`"),
    Mutant(
        "unknown-preset-ignored", "src/ocb/config.py",
        old=("        if preset not in PRESETS:\n"
             "            raise ParameterError(\n"
             "                f\"unknown preset {preset!r} "
             "(available: {', '.join(sorted(PRESETS))})\")\n"
             "        merged.update(PRESETS[preset])\n"),
        new="        merged.update(PRESETS.get(preset, {}))\n",
        tests=("tests/test_config_cli.py::test_unknown_keys_and_values_rejected",),
        source="CHANGES.md: The preset bundles live in `ocb.config`"),
    Mutant(
        "generate-writes-in-place", "src/ocb/cli.py",
        old="    _replace_files({Path(args.out): partial(save_database, db)})\n",
        new="    save_database(db, args.out)\n",
        tests=("tests/test_config_cli.py::"
               "test_a_generate_that_fails_midway_leaves_its_file_as_it_was",),
        source="CHANGES.md: The preset bundles live in `ocb.config`"),
    Mutant(
        "climb-ignores-claimed", "src/ocb/policies.py",
        old="                if parent not in path and not claimed[parent]:\n",
        new="                if parent not in path:\n",
        tests=("tests/test_policies.py::test_build_units_respects_capacity",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "clock-terms-swapped", "src/ocb/workload.py",
        old=("            log.clock += sim_time\n"
             "            log.clock += think\n"),
        new=("            log.clock += think\n"
             "            log.clock += sim_time\n"),
        tests=("tests/test_config_cli.py::"
               "test_cli_run_from_database_file_keeps_its_report_bytes[default-dstc]",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "last-slot-never-chosen", "src/ocb/workload.py",
        old="    for n in range(1, slot_count + 1):\n",
        new="    for n in range(1, slot_count):\n",
        tests=("tests/test_acceptance.py::test_a6_oracle_equivalence_on_tiny_databases",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "reverse-rows-reversed", "src/ocb/generator.py",
        old="                rows = [tuple(s for s, k in o.backref\n",
        new="                rows = [tuple(s for s, k in reversed(o.backref)\n",
        tests=("tests/test_acceptance.py::test_a6_oracle_equivalence_on_tiny_databases",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "freed-frame-most-recent", "src/ocb/storage.py",
        old="            buffer.move_to_end(free, last=False)\n",
        new="",
        tests=("tests/test_storage.py::test_rewrite_invalidates_moved_pages",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "walk-reused-across-directions", "src/ocb/workload.py",
        old="            and previous[:3] == (kind, root, direction)):\n",
        new="            and previous[:2] == (kind, root)):\n",
        tests=("tests/test_workload.py::"
               "test_a_reused_walk_leaves_the_stream_as_walking_it_again",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "experiment-fields-unchecked", "src/ocb/config.py",
        old=("        super().validate()\n"
             "        check_policy_name(self.policy)\n"),
        new="        check_policy_name(self.policy)\n",
        tests=("tests/test_params.py::"
               "test_a_value_just_outside_its_bounds_is_rejected[gain_window=0]",),
        source=PARAM_GROUP_SOURCE),
    Mutant(
        "report-unchecked", "src/ocb/metrics.py",
        old="class MetricsReport(ParamGroup):\n",
        new="class MetricsReport:\n",
        tests=("tests/test_config_cli.py::"
               "test_cli_compare_report_counter_outside_its_bounds_is_runtime_error",),
        source=PARAM_GROUP_SOURCE),
)


def copy_tree(dest: Path) -> Path:
    """Copy what the tests need of the repository to `dest`."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)
    return dest


def run_pytest(tree: Path, tests) -> tuple[int | None, str]:
    """Pytest's exit code on `tests` in `tree`, None on a timeout, and its output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # its output is bytes, even in text mode
        return None, (exc.stdout or b"").decode(errors="replace")
    return done.returncode, done.stdout


def verdict(code: int | None) -> str:
    if code is None:
        return f"timed out after {TIMEOUT_S} s"
    return {0: "survived", 1: "killed"}.get(code, f"pytest exited {code}")


def main(names: list[str]) -> int:
    known = {mutant.name for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)} (known: {', '.join(sorted(known))})")
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    stale = [mutant.name for mutant in chosen
             if (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1]
    if stale:
        print(f"stale mutants, old text not found exactly once: {', '.join(stale)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="ocb-mutants-") as scratch:
        tests = list(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
        code, output = run_pytest(copy_tree(Path(scratch) / "unmutated"), tests)
        if code != 0:
            print(f"the unmutated tree does not pass the entries' tests: {verdict(code)}")
            print(output, end="")
            return 1
        failed = []
        for mutant in chosen:
            tree = copy_tree(Path(scratch) / mutant.name)
            target = tree / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            started = time.perf_counter()
            code, output = run_pytest(tree, mutant.tests)
            print(f"{mutant.name}: {verdict(code)} in {time.perf_counter() - started:.1f} s")
            if code != 1:
                failed.append(mutant.name)
                print(output, end="")
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
