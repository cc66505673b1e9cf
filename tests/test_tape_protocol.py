"""The tape's recording rule lives in three `Tensor` methods. An op only
passes its value, its parents and one VJP per parent to the constructor, so
no op may touch the tape's fields or accumulate gradients itself. Every site
that builds a `Tensor` without the finiteness check is named in the
`autograd` docstring."""

import ast
import collections
from pathlib import Path

AUTOGRAD = Path(__file__).resolve().parents[1] / "src/bandgen/neural/autograd.py"
TAPE_NAMES = {"_backward", "_parents", "_vjps", "_accumulate"}
TAPE_METHODS = {"__init__", "backward", "_accumulate"}


def _touches(node: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr in TAPE_NAMES}


def test_only_the_tape_methods_touch_the_tape():
    tree = ast.parse(AUTOGRAD.read_text(), str(AUTOGRAD))
    offenders = []
    seen_methods = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Tensor":
            for item in node.body:
                name = getattr(item, "name", None)
                if name in TAPE_METHODS:
                    seen_methods.add(name)
                elif _touches(item):
                    offenders.append(f"Tensor.{name or item.lineno}: {_touches(item)}")
        elif _touches(node):
            name = getattr(node, "name", f"line {node.lineno}")
            offenders.append(f"{name}: {_touches(node)}")
    assert seen_methods == TAPE_METHODS
    assert offenders == []


SRC = AUTOGRAD.parents[1]
# `Tensor(..., check=False)` sites by function, with how many each holds
UNCHECKED_SITES = {"Tensor.detach": 1, "Tensor.__getitem__": 1, "pack": 1,
                   "unpack": 1, "model._CachedRows.attend": 1,
                   "model._decode_forward": 2}


def _unchecked(node: ast.AST) -> bool:
    """Whether node is a `Tensor(...)` call whose `check` is not the
    constant True."""
    if not isinstance(node, ast.Call):
        return False
    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
    return callee == "Tensor" and any(
        k.arg == "check" and not (isinstance(k.value, ast.Constant)
                                  and k.value.value is True)
        for k in node.keywords)


def _unchecked_sites() -> collections.Counter:
    """The functions in `src/` that build a `Tensor` without the finiteness
    check, by qualified name (prefixed with the module's name outside
    `autograd`), counted once per construction."""
    sites: collections.Counter = collections.Counter()

    def visit(node: ast.AST, module: str, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if _unchecked(child):
                name = ".".join(scope)
                sites[name if module == "autograd" else f"{module}.{name}"] += 1
            visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, [])
    return sites


def test_every_unchecked_tensor_site_is_named_in_the_autograd_docstring():
    """A `Tensor` that skips the finiteness check must wrap values checked
    before; the `autograd` docstring says which sites do and why, so a new
    one cannot appear without a word there and a count here."""
    sites = _unchecked_sites()
    doc = ast.get_docstring(ast.parse(AUTOGRAD.read_text()))
    assert sites == UNCHECKED_SITES
    assert [name for name in sites if f"`{name}`" not in doc] == []
