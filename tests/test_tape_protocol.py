"""The tape's recording rule lives in three `Tensor` methods. An op only
passes its value, its parents and one VJP per parent to the constructor, so
no op may touch the tape's fields or accumulate gradients itself."""

import ast
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
