"""Every `ModelConfig` field configures something: the program reads it as an
attribute of a config outside the class. A field that is only written,
dumped and loaded is one more configuration to test that changes nothing."""

import ast
from dataclasses import fields
from pathlib import Path

from bandgen.neural.model import ModelConfig

SRC = Path(__file__).resolve().parents[1] / "src/bandgen"
CONFIG_NAMES = {"cfg", "config"}  # what the program calls a ModelConfig


def _attributes_read(tree: ast.AST) -> set[str]:
    """Attributes read off a config in `tree`, skipping `ModelConfig` itself;
    `args.seed` is a command-line option, not a config read."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "ModelConfig":
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in CONFIG_NAMES):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_config_field_is_read_outside_the_class():
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        read |= _attributes_read(ast.parse(path.read_text(), str(path)))
    unread = [f.name for f in fields(ModelConfig) if f.name not in read]
    assert unread == []
