"""Every public name and class member has a caller outside the test suite.

A name in ``weakmax.__all__`` must be read by live code: by a library
definition that is itself read (``__init__.py`` aside), or by ``scripts/`` or
``perfbench/`` (their tests aside).  A read is a name, an attribute, or the
string that ``perfbench/spans.py`` looks a function up by.

The public methods and properties of every class in ``__all__`` answer to the
same rule with a narrower read.  A method is read where live code calls it as
an attribute (``x.name(...)``) or where ``spans.targets()`` wraps it; a
property is read where live code reads it as an attribute.  A string does not
read a member: ``"cube"`` and ``"parent"`` are unrelated keys in ``spans.py``.

A definition does not read itself, and a definition that only dead code reads
is dead too, so an oracle and the helpers only it calls are caught together.
Each public member of an exported class is a definition of its own.  Code
that only tests call belongs in ``tests/oracles.py``.
"""

import ast
import inspect
import sys
from pathlib import Path

import weakmax

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

# Public names and members with no caller, each kept for a stated reason.
ALLOWED = {
    "lorentz_norm": "the strong Lorentz quasi-norm ||f||_{p,q}, the library's "
                    "counterpart of weak_norm; only its reference checks call it",
    "Q_INF": "names q = infinity, the weak space L^{p,inf}, for callers of the "
             "Lorentz norms",
}

CLASSES = {name for name in weakmax.__all__ if inspect.isclass(getattr(weakmax, name))}


def _label(key) -> str:
    return key if isinstance(key, str) else ".".join(key)


def _is_property(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in fn.decorator_list)


def _members(stmt: ast.stmt) -> list[ast.FunctionDef]:
    """The public methods and properties of an exported class statement."""
    if not (isinstance(stmt, ast.ClassDef) and stmt.name in CLASSES):
        return []
    return [s for s in stmt.body
            if isinstance(s, ast.FunctionDef) and not s.name.startswith("_")]


def _reads(trees, members: dict[tuple[str, str], bool]) -> set:
    """Names the trees read, plus the (class, member) keys of the members they
    call (a method) or read as an attribute (a property)."""
    out, loaded, called = set(), set(), set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return out | {key for key, is_property in members.items()
                  if key[1] in (loaded if is_property else called)}


def _defines(stmt: ast.stmt) -> frozenset[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return frozenset({stmt.name})
    targets = getattr(stmt, "targets", []) + [getattr(stmt, "target", None)]
    return frozenset(t.id for t in targets if isinstance(t, ast.Name))


def _statements() -> list[tuple[bool, ast.stmt]]:
    """(in the library, statement) per top-level statement of live code."""
    library = [f for f in (ROOT / "src" / "weakmax").glob("*.py") if f.name != "__init__.py"]
    callers = [f for d in ("scripts", "perfbench") for f in (ROOT / d).rglob("*.py")
               if "tests" not in f.relative_to(ROOT).parts]
    return [(f in library, stmt)
            for f in library + callers for stmt in ast.parse(f.read_text()).body]


def _library_members(statements) -> dict[tuple[str, str], bool]:
    """(class, member) -> is a property, for every exported class."""
    return {(stmt.name, m.name): _is_property(m)
            for lib, stmt in statements if lib for m in _members(stmt)}


def _units() -> list[tuple[bool, frozenset, str | None, set]]:
    """(in the library, keys defined, owning class, keys read) per unit: a
    top-level statement, or one public member of an exported class, whose key
    is (class, member) and which dies with its class."""
    statements = _statements()
    members = _library_members(statements)
    units = []
    for lib, stmt in statements:
        own = _members(stmt) if lib else []
        d = _defines(stmt)
        rest = [n for n in ast.iter_child_nodes(stmt) if n not in own] if own else [stmt]
        units.append((lib, d, None, _reads(rest, members) - d))
        for m in own:
            key = (stmt.name, m.name)
            units.append((lib, frozenset({key}), stmt.name, _reads([m], members) - {key}))
    wrapped = {(owner.__name__, attr) for _, owner, attr, _ in spans.targets()
               if isinstance(owner, type)}
    units.append((False, frozenset(), None, wrapped))
    return units


def _dead() -> set:
    """Library definitions that no live unit reads, to a fixed point."""
    units = _units()
    defined = set().union(*(d for lib, d, _, _ in units if lib))
    dead: set = set()
    while True:
        live = set()
        for lib, d, owner, reads in units:
            if not (lib and (d and d <= dead or owner in dead)):
                live |= reads
        newly = defined - dead - live
        if not newly:
            return dead
        dead |= newly


def test_every_public_name_has_a_caller():
    dead = _dead()
    orphans = [name for name in weakmax.__all__ if name in dead and name not in ALLOWED]
    assert orphans == [], f"public names only tests call; move them to tests/oracles.py: {orphans}"


def test_every_public_member_has_a_caller():
    dead = {_label(key) for key in _dead() if isinstance(key, tuple)}
    orphans = sorted(dead - set(ALLOWED))
    assert orphans == [], f"public class members only tests call: {orphans}"


def test_members_seen_are_the_runtime_members():
    # The check is only as good as its view of each class: the members found
    # in the source are the public functions and properties each class has.
    runtime = {f"{name}.{attr}" for name in CLASSES
               for attr, value in vars(getattr(weakmax, name)).items()
               if not attr.startswith("_")
               and (inspect.isfunction(value)
                    or isinstance(value, (classmethod, staticmethod, property)))}
    assert {_label(key) for key in _library_members(_statements())} == runtime


def test_allow_list_is_current():
    # An allowed name that gains a caller, or leaves the API, leaves the list.
    dead = {_label(key) for key in _dead()}
    public = set(weakmax.__all__) | {_label(key) for key in _library_members(_statements())}
    assert [name for name in ALLOWED if name not in public or name not in dead] == []
