"""The demos and the README's Python import only names that exist."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python_sources() -> list[tuple[str, str]]:
    """Each demo, each ```python block and each `python3 -c` script."""
    sources = [(p.name, p.read_text()) for p in sorted(ROOT.glob("demos/*.py"))]
    readme = (ROOT / "README.md").read_text()
    blocks = (re.findall(r"```python\n(.*?)```", readme, re.S) +
              re.findall(r'python3 -c "\n(.*?)"', readme, re.S))
    sources += [(f"README.md snippet {i}", b) for i, b in enumerate(blocks)]
    return sources


def test_demo_and_readme_imports_resolve():
    sources = _python_sources()
    assert len(sources) >= 7  # five demos, the quickstart, the CLI walkthrough
    missing = []
    checked = 0
    for where, source in sources:
        for node in ast.walk(ast.parse(source, where)):
            if isinstance(node, ast.Import):
                names = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            for module, name in names:
                if module.split(".")[0] != "bandgen":
                    continue
                checked += 1
                mod = importlib.import_module(module)
                if name is not None and not hasattr(mod, name):
                    missing.append(f"{where}: {module}.{name}")
    assert checked > 0
    assert missing == []
