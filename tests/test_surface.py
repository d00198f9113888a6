"""Every public name of the library has a reader outside the tests.

A public top-level function or class must be read (called, named or imported)
outside its own definition, in `src/cycloseq`, `scripts/` or `bench/`.  The
package re-exports nothing, so an import is a read.  Every public field of a
dataclass must be read as `.field` somewhere in those trees, and every public
method or property of a public class as `.name` outside its own definition.
The check is conservative: a generic name such as `.k` or `.create` is also
matched by unrelated reads.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cycloseq").glob("*.py"))
READERS = [*SRC, *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(nodes) -> set[str]:
    """Names read, attributes read and names imported anywhere under `nodes`."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                out.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                out.update(a.name for a in n.names)
    return out


@functools.cache
def _file_reads(path: Path) -> set[str]:
    return _reads([_tree(path)])


def _attribute_reads(root: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attributes read anywhere under `root`, except under `skip`."""
    out, stack = set(), [root]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


@functools.cache
def _file_attribute_reads(path: Path) -> set[str]:
    return _attribute_reads(_tree(path))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _public_definitions():
    """(module, definition) for every public top-level function or class."""
    for path in SRC:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node


DEFINITIONS = [
    pytest.param(path, node, id=f"{path.stem}.{node.name}")
    for path, node in _public_definitions()
    if not node.name.startswith("cmd_")  # main dispatches cmd_* by name
]
METHODS = [
    pytest.param(path, f, id=f"{path.stem}.{cls.name}.{f.name}")
    for path, cls in _public_definitions() if isinstance(cls, ast.ClassDef)
    for f in cls.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
]
# MeasureRecord is serialized whole through vars()
DATACLASSES = [node for _, node in _public_definitions()
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)
               and node.name != "MeasureRecord"]


def test_the_exemptions_name_existing_definitions():
    names = {node.name for _, node in _public_definitions()}
    assert "MeasureRecord" in names and any(n.startswith("cmd_") for n in names)


def test_the_package_reexports_nothing():
    # every reader imports from the defining module, so a name bound in
    # __init__.py would be a second binding of it
    body = _tree(ROOT / "src" / "cycloseq" / "__init__.py").body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    assert all(isinstance(n, ast.Assign) for n in body[1:])
    assert [t.id for n in body[1:] for t in n.targets] == ["__version__"]


@pytest.mark.parametrize("path,node", DEFINITIONS)
def test_public_definition_has_a_reader(path, node):
    outside = set().union(*(_file_reads(q) for q in READERS if q != path))
    inside = _reads(n for n in _tree(path).body if getattr(n, "name", None) != node.name)
    assert node.name in outside | inside, f"{path.name}: {node.name} is read only by tests"


ATTRIBUTE_READS = set().union(*(_file_attribute_reads(q) for q in READERS))


@pytest.mark.parametrize("cls", DATACLASSES, ids=[c.name for c in DATACLASSES])
def test_dataclass_fields_are_read(cls):
    fields = [s.target.id for s in cls.body
              if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
              and not s.target.id.startswith("_")]
    unread = [f for f in fields if f not in ATTRIBUTE_READS]
    assert not unread, f"{cls.name} fields read only by tests: {unread}"


@pytest.mark.parametrize("path,method", METHODS)
def test_public_method_has_a_reader(path, method):
    outside = set().union(*(_file_attribute_reads(q) for q in READERS if q != path))
    inside = _attribute_reads(_tree(path), skip=method)
    assert method.name in outside | inside, f"{path.name}: .{method.name} is read only by tests"
