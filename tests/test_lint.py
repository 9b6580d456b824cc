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


def closure_tensor_reads(tree: ast.Module):
    """(op, name, line) for each read, inside an op's nested `backward`, of an op
    parameter annotated as a Tensor. Such a read keeps the whole input, its array
    included, alive until backward; arrays or shapes taken from it are fine."""
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        tensors = {a.arg for a in args
                   if a.annotation is not None and "Tensor" in ast.unparse(a.annotation)}
        for inner in ast.walk(fn):
            if isinstance(inner, ast.FunctionDef) and inner is not fn and inner.name == "backward":
                for node in ast.walk(inner):
                    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                            and node.id in tensors):
                        yield fn.name, node.id, node.lineno


def test_backward_closures_read_no_op_tensor():
    tree = ast.parse((SRC / "tensor.py").read_text())
    closures = [fn for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name == "backward"
                and fn not in tree.body]
    assert len(closures) >= 20  # every op defines one
    found = [f"{op} reads {name} (line {line})" for op, name, line in closure_tensor_reads(tree)]
    assert not found, "backward closures hold whole input tensors: " + ", ".join(found)


def test_closure_check_flags_a_tensor_read_and_passes_its_array():
    pinned = ast.parse("def mul(a: Tensor, b: 'Tensor | float'):\n"
                       "    def backward(g):\n"
                       "        return g * b.data\n")
    lean = ast.parse("def mul(a: Tensor, b: 'Tensor | float', axis: int = 0):\n"
                     "    b_data = b.data\n"
                     "    def backward(g):\n"
                     "        return (g * b_data).sum(axis)\n")
    assert list(closure_tensor_reads(pinned)) == [("mul", "b", 3)]
    assert list(closure_tensor_reads(lean)) == []


def gradient_writes(tree: ast.Module):
    """(what, line) for each store to or delete of a `.grad` attribute, and each
    definition or use of a `zero_grad` name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "grad"
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            yield ".grad", node.lineno
        name = (node.name if isinstance(node, ast.FunctionDef)
                else node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name == "zero_grad":
            yield "zero_grad", node.lineno


ROOT = SRC.parents[1]
SOURCES = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tools").glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py"))]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_backward_and_the_optimizer_step_write_gradients(path):
    # backward writes a gradient and AdamW.step releases it; nothing else clears one
    found = list(gradient_writes(ast.parse(path.read_text(), filename=str(path))))
    if path.parent != SRC or path.name in ("tensor.py", "optim.py"):
        found = [(what, line) for what, line in found if what == "zero_grad"]
    assert not found, f"{path.name} writes gradients: {found}"


def test_gradient_check_flags_a_clear_and_a_zero_grad():
    tree = ast.parse("class O:\n"
                     "    def zero_grad(self):\n"
                     "        t.grad = None\n"
                     "opt.zero_grad()\n"
                     "del t.grad\n"
                     "t.grad += g\n"
                     "print(t.grad)\n")
    assert sorted(gradient_writes(tree)) == [(".grad", 3), (".grad", 5), (".grad", 6),
                                             ("zero_grad", 2), ("zero_grad", 4)]
