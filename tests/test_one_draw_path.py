"""Every bounded integer draw goes through the drawers of
`ocb.distributions`: no module of the `ocb` package calls `randint` or
`randrange`, which would be a second path through the Mersenne Twister
stream."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocb"
FORBIDDEN = {"randint", "randrange"}


def forbidden_calls(tree: ast.AST) -> list[int]:
    """Line numbers of every `<anything>.randint(` or `.randrange(` call."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in FORBIDDEN]


def test_forbidden_calls_are_found():
    tree = ast.parse("rng.randint(1, 2)\nrandom.randrange(5)\nrng.getrandbits(3)\n")
    assert forbidden_calls(tree) == [1, 2]


def test_no_module_calls_randint_or_randrange():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "distributions.py" in sources
    found = {}
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = forbidden_calls(tree)
        if lines:
            found[path.name] = lines
    assert found == {}
