"""Dead-code checks on the library source, built on the stdlib ``ast``.

Every import in ``src/hadamard_jsr/*.py`` is used in its module (or
re-exported through ``__all__``), every module-level name is read
somewhere in ``src/``, ``tests/`` or ``bench/``, or listed in ``__all__``,
and every parameter of a function or lambda is read in its body.  Names
are matched by identifier, as a linter without type information would.
In ``sets.py`` only the input path constructs ``MatrixSet`` directly.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hadamard_jsr"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def _reads(tree: ast.AST) -> set[str]:
    """Identifiers read as names or attributes anywhere in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imports(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
    return out


def _definitions(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            out.add(node.target.id)
    return {name for name in out if not name.startswith("__")}


@pytest.fixture(scope="module")
def everywhere() -> set[str]:
    """Identifiers read, or exported, by any file of src, tests or bench."""
    out = set()
    for top in ("src", "tests", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = _parse(path)
            out |= _reads(tree) | _exported(tree)
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _parse(path)
    unused = _imports(tree) - _reads(tree) - _exported(tree)
    assert not unused, f"{path.name}: unused imports {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_name_is_referenced(path, everywhere):
    unread = _definitions(_parse(path)) - everywhere
    assert not unread, f"{path.name}: unreferenced names {sorted(unread)}"


def _parameters(node: ast.FunctionDef | ast.Lambda) -> list[str]:
    a = node.args
    extra = [p for p in (a.vararg, a.kwarg) if p is not None]
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + extra]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            names = {n.id for part in body for n in ast.walk(part)
                     if isinstance(n, ast.Name)
                     and not isinstance(n.ctx, ast.Store)}
            name = getattr(node, "name", "lambda")
            unread += [f"{name}({p})" for p in _parameters(node)
                       if p not in names]
    assert not unread, f"{path.name}: unread parameters {unread}"


def test_only_input_checks_members_in_sets():
    # built stacks go through sets._built, which skips the scan that
    # MatrixSet runs on input from outside
    callers = set()
    for node in _parse(SRC / "sets.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            callers |= {node.name for n in ast.walk(node)
                        if isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Name)
                        and n.func.id == "MatrixSet"}
    assert callers <= {"matrix_set", "MatrixSet"}, sorted(callers)
