"""Every public name has a caller outside the test suite.

A name in ``weakmax.__all__`` must be read by live code: by a library
definition that is itself read (``__init__.py`` aside), or by ``scripts/`` or
``perfbench/`` (their tests aside).  A read is a name, an attribute, or the
string that ``perfbench/spans.py`` looks a function up by.  A definition
does not read itself, and a library definition that only dead code reads is
dead too, so an oracle and the helpers only it calls are caught together.
Code that only tests call belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import weakmax

ROOT = Path(__file__).resolve().parents[1]

# Public names with no caller, each kept for a stated reason.
ALLOWED = {
    "lorentz_norm": "the strong Lorentz quasi-norm ||f||_{p,q}, the library's "
                    "counterpart of weak_norm; only its reference checks call it",
    "Q_INF": "names q = infinity, the weak space L^{p,inf}, for callers of the "
             "Lorentz norms",
}


def _reads(stmt: ast.stmt) -> set[str]:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defines(stmt: ast.stmt) -> frozenset[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return frozenset({stmt.name})
    targets = getattr(stmt, "targets", []) + [getattr(stmt, "target", None)]
    return frozenset(t.id for t in targets if isinstance(t, ast.Name))


def _statements() -> list[tuple[bool, frozenset[str], set[str]]]:
    """(in the library, names defined, names read) per top-level statement."""
    library = [f for f in (ROOT / "src" / "weakmax").glob("*.py") if f.name != "__init__.py"]
    callers = [f for d in ("scripts", "perfbench") for f in (ROOT / d).rglob("*.py")
               if "tests" not in f.relative_to(ROOT).parts]
    return [(f in library, _defines(stmt), _reads(stmt))
            for f in library + callers for stmt in ast.parse(f.read_text()).body]


def _dead_names() -> set[str]:
    """Library definitions that no live statement reads, to a fixed point."""
    stmts = _statements()
    defined = set().union(*(d for lib, d, _ in stmts if lib))
    dead: set[str] = set()
    while True:
        live = set()
        for lib, d, reads in stmts:
            if not (lib and d and d <= dead):
                live |= reads - d
        newly = defined - dead - live
        if not newly:
            return dead
        dead |= newly


def test_every_public_name_has_a_caller():
    dead = _dead_names()
    orphans = [name for name in weakmax.__all__ if name in dead and name not in ALLOWED]
    assert orphans == [], f"public names only tests call; move them to tests/oracles.py: {orphans}"


def test_allow_list_is_current():
    # An allowed name that gains a caller, or leaves the API, leaves the list.
    dead = _dead_names()
    assert [name for name in ALLOWED if name not in weakmax.__all__ or name not in dead] == []
