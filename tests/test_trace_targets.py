"""The benchmark's tracer finds every bandgen name it wraps.

`perfbench/tracing.py` wraps functions and methods by module and attribute
name. A rename in bandgen would otherwise only show when a traced benchmark
run fails; here it fails the test suite. The tracer module is loaded from
its file and only read: nothing is installed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = []
    for module_name, attribute, _, _ in tracing.TARGETS:
        owner, attr = tracing._owner(module_name, attribute)
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{attribute}")
    assert missing == []
