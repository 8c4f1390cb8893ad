"""The runtime stays stdlib-only: every module of the `ocb` package imports
only from the standard library or from `ocb` itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocb"


def imported_roots(tree: ast.AST) -> list[str]:
    """The top-level package of every absolute import anywhere in `tree`."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "__init__.py" in sources
    outside = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        roots = [root for root in imported_roots(tree)
                 if root != "ocb" and root not in sys.stdlib_module_names]
        if roots:
            outside[path.name] = roots
    assert outside == {}
