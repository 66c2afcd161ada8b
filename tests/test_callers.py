"""Every public library function has a caller outside the root tests.

The callers are the package itself, scripts/ and perfbench/ (its tests
included).  A function that only tests/ reaches is deleted, not kept, so
the guard names it.  A reference is any ast.Name or ast.Attribute with the
function's name, outside the function's own definition.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qorigami"

# Functions that only tests call, kept as oracles of code that stays.
ALLOWED = {
    "folded_view": "test_fold_certificates_agree checks the chart-level "
                   "fold against the microscopic certificate it builds",
    "diagonal_fold_map": "the fold map test_fold_certificates_agree "
                         "certifies",
    "genon_double_loop": "test_double_genon_loop_is_a_stabilizer checks "
                         "the genon code's stabilizer group with it",
}


def _public_functions() -> dict:
    """Public top-level function name -> defining file."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                out[node.name] = path
    return out


def _references() -> set:
    """(name, file, enclosing top-level function or None) per reference."""
    refs = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in module.body:
                owner = getattr(stmt, "name", None) if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        refs.add((node.id, path, owner))
                    elif isinstance(node, ast.Attribute):
                        refs.add((node.attr, path, owner))
    return refs


def test_every_public_function_has_a_caller():
    functions = _public_functions()
    reached = {name for name, path, owner in _references()
               if name in functions
               and (path, owner) != (functions[name], name)}
    unreached = set(functions) - reached
    assert unreached - set(ALLOWED) == set(), (
        "public functions that only tests call: "
        + ", ".join(sorted(unreached - set(ALLOWED))))
    # The allowlist holds only functions that need it.
    assert unreached == set(ALLOWED)
