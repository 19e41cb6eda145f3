"""The public API asks for each fact once."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import cosetgeom
from cosetgeom import build_coset_patch

PACKAGE = Path(cosetgeom.__file__).parent


@pytest.mark.parametrize(
    "module_name", ["cayley", "cosetgraph", "metrics", "ends", "lifting", "homotopy"]
)
def test_no_function_takes_a_spec_beside_a_ball_or_patch(module_name):
    # a ball or patch carries its group as .spec; a second copy could disagree
    module = importlib.import_module(f"cosetgeom.{module_name}")
    offenders = []
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        params = inspect.signature(obj).parameters
        if "spec" in params and ("ball" in params or "patch" in params):
            offenders.append(name)
    assert offenders == []


def test_only_the_patch_build_takes_a_subgroup():
    # every function reads Q off the group spec, and a words subgroup is only
    # the generator words that build_coset_patch takes, so no function takes
    # a second description of Q that could disagree with it
    takers = []
    for module_name in (
        "cayley", "cosetgraph", "metrics", "ends", "lifting", "homotopy",
        "subgroups", "cli",
    ):
        module = importlib.import_module(f"cosetgeom.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            params = inspect.signature(obj).parameters
            if "q" in params or "subgroup" in params:
                takers.append(f"{module_name}.{name}")
    assert takers == []
    assert "words" in inspect.signature(build_coset_patch).parameters


def _statements(body):
    """The statements of one scope: body and the if/try blocks in it, not
    nested functions or classes."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _statements(block)
            for handler in getattr(node, "handlers", []):
                yield from _statements(handler.body)
        else:
            yield node


def _imported_names(body):
    """The names bound by the import statements of one scope."""
    for node in _statements(body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def _used_names(tree):
    """Every name read in the tree, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Optional[Ball | CosetPatch]"
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    # an import left behind by a deletion still compiles and runs, so only a
    # scan finds it; a module's imports and each function's local imports
    # must each be read somewhere in their scope
    tree = ast.parse(path.read_text(), str(path))
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    unused = []
    for scope in scopes:
        used = _used_names(scope)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(scope.body)
            if name not in used
        ]
    assert unused == []


def _defined_names(node):
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _read_names(node):
    """Names a statement reads: loaded names, attributes and imported names."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def _statements_by_module():
    return {
        path.name: list(_statements(ast.parse(path.read_text(), str(path)).body))
        for path in sorted(PACKAGE.glob("*.py"))
    }


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_no_private_module_name_is_orphaned(path):
    # a helper whose last caller was deleted still compiles and runs; a
    # module-level _name must be read by some statement of the package other
    # than its own definition (so recursion does not count)
    statements = _statements_by_module()
    reads = [
        (module, i, _read_names(node))
        for module, body in statements.items()
        for i, node in enumerate(body)
    ]
    orphans = []
    for i, node in enumerate(statements[path.name]):
        for name in _defined_names(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(
                name in read
                for module, j, read in reads
                if (module, j) != (path.name, i)
            ):
                orphans.append(f"{path.name}:{node.lineno} {name}")
    assert orphans == []
