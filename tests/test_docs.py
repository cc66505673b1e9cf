"""The demos and the README's Python import only names that exist, and
call them only with keywords their signatures take; the benchmark's
workloads call only bandgen module attributes that exist, the same way;
and the README's prose names only bandgen module attributes that exist."""

import ast
import importlib
import inspect
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


def test_demo_and_readme_calls_pass_known_keywords():
    """A keyword a bandgen function does not take would fail only when the
    demo runs; check every call to a from-imported name against its
    signature."""
    unknown = []
    checked = 0
    for where, source in _python_sources():
        tree = ast.parse(source, where)
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "bandgen"):
                mod = importlib.import_module(node.module)
                for a in node.names:
                    imported[a.asname or a.name] = getattr(mod, a.name)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and callable(imported.get(node.func.id))):
                continue
            params = inspect.signature(imported[node.func.id]).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            checked += 1
            unknown += [f"{where}: {node.func.id}({kw.arg}=...)"
                        for kw in node.keywords
                        if kw.arg is not None and kw.arg not in params]
    assert checked > 0
    assert unknown == []


def test_benchmark_calls_resolve():
    """`perfbench/workloads.py` calls bandgen as `module.attr(...)`; a renamed
    function or keyword would fail only when the benchmark runs."""
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    tree = ast.parse(source, "workloads.py")
    modules = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "bandgen"):
            for a in node.names:
                modules[a.asname or a.name] = importlib.import_module(
                    f"{node.module}.{a.name}")
    broken = []
    checked = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        checked += 1
        where = f"workloads.py:{node.lineno}: {node.func.value.id}.{node.func.attr}"
        target = getattr(modules[node.func.value.id], node.func.attr, None)
        if target is None:
            broken.append(f"{where} does not exist")
            continue
        params = inspect.signature(target).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        broken += [f"{where}({kw.arg}=...)" for kw in node.keywords
                   if kw.arg is not None and kw.arg not in params]
    assert checked >= 40
    assert broken == []



def _bandgen_module(name: str):
    """The bandgen module `name` names, as `score`, `bandgen.score` or
    `training` (in `bandgen.neural`), or None."""
    for full in (name, f"bandgen.{name}", f"bandgen.neural.{name}"):
        if full.split(".")[0] == "bandgen":
            try:
                return importlib.import_module(full)
            except ModuleNotFoundError:
                pass
    return None


def test_readme_module_references_resolve():
    """Every backticked `module.attr` in the README's prose whose module is
    a bandgen module names an attribute that exists."""
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    dangling = []
    checked = 0
    for ref in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", prose))):
        parts = ref.split(".")
        for n in range(len(parts), 0, -1):
            owner = _bandgen_module(".".join(parts[:n]))
            if owner is not None:
                break
        else:
            continue  # not a bandgen module, such as `np.bincount`
        checked += 1
        for part in parts[n:]:
            owner = getattr(owner, part, None)
        if owner is None:
            dangling.append(ref)
    assert checked >= 10
    assert dangling == []
