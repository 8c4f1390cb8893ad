"""The protocol and the policies meet only through the hooks the caller
hands over: `ocb/workload.py` imports nothing from `policies` or
`storage`, and `ocb/policies.py` nothing from `workload`, `storage` or
`generator`."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocb"
FORBIDDEN = {
    "workload.py": {"policies", "storage"},
    "policies.py": {"workload", "storage", "generator"},
}


def imported_modules(tree: ast.AST) -> set[str]:
    """The last dotted part of every module an import names, relative or not,
    and each name a bare `from . import` takes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rsplit(".", 1)[-1])
    return found


def test_imported_modules_are_found():
    tree = ast.parse("from .policies import NoClustering\nfrom . import storage\n"
                     "import ocb.generator\nfrom ocb.errors import RunError\n")
    assert imported_modules(tree) == {"policies", "storage", "generator", "errors"}


def test_protocol_and_policies_import_neither_each_other_nor_storage():
    found = {}
    for name, forbidden in FORBIDDEN.items():
        path = PACKAGE / name
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        crossing = imported_modules(tree) & forbidden
        if crossing:
            found[name] = sorted(crossing)
    assert found == {}
