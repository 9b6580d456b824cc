"""Static checks on the package source, with the stdlib `ast` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ltt"


def imported_names(tree: ast.Module):
    """(bound name, line) for every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree: ast.Module) -> set:
    """The strings listed in a module-level `__all__`."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def unused_locals(tree: ast.Module):
    """(name, line) for each plain name a function assigns and never reads.

    Reads inside nested functions count, so closure state is used; names
    bound by tuple unpacking, `_`, and `global`/`nonlocal` names are exempt.
    """
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {name for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                 for name in n.names}
        for node in ast.walk(fn):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) and node.value
                       else [])
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "_" and t.id not in read:
                    yield t.id, t.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [f"{name} (line {line})" for name, line in unused_locals(tree)]
    assert not unused, f"{path.name} assigns locals it never reads: {', '.join(unused)}"


def imported_modules(tree: ast.Module) -> set:
    """The package-relative modules a module imports from, nested imports too."""
    return {"." * node.level + (node.module or "") for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)}


def test_data_does_not_import_the_episode_stack():
    # building an Instance must not pull in the episode, optimizer and adapters
    tree = ast.parse((SRC / "data.py").read_text())
    assert not {".ttt", "ltt.ttt"} & imported_modules(tree)
