"""Self-tests of the benchmark harness (not of bandgen).

    python3 -m pytest -q perfbench

Workloads run here with two sizes of their shape lowered (generate cap and
training steps); the names and units they report are the same as at full
size.
"""

from __future__ import annotations

import json

import pytest

import run

run.import_bandgen()

import workloads  # noqa: E402
from tracing import Tracer, current_targets  # noqa: E402

SPEC = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())

SMALL = {name: shape._replace(t_max=24, steps=2)
         for name, shape in workloads.SHAPES.items()}


def test_every_workload_has_a_shape():
    assert set(workloads.SHAPES) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    shape = workloads.SHAPES[name]
    inputs = workloads.Pipeline(5, shape).inputs()
    assert inputs == workloads.Pipeline(5, shape).inputs()
    assert all(a != b for a, b in zip(
        inputs, workloads.Pipeline(6, shape).inputs()))


@pytest.fixture(scope="module")
def reported():
    """{(workload, trace): (metrics, attempted, failed)} at small sizes."""
    out = {}
    for name, shape in SMALL.items():
        for trace in (False, True):
            m = run.measure(workloads.Pipeline(3, shape), 0, trace)
            out[name, trace] = m.metrics, m.attempted, m.failed
    return out


def test_small_runs_pass_their_output_checks(reported):
    for key, (_, attempted, failed) in reported.items():
        assert attempted >= 1 and failed == 0, key


@pytest.mark.parametrize("kind,trace", [("end_to_end", False), ("per_layer", True)])
def test_every_workload_prints_every_declared_metric(reported, kind, trace):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name in SMALL:
        metrics = reported[name, trace][0]
        assert set(metrics) == set(declared), (name, set(declared) ^ set(metrics))
        for metric, (value, unit) in metrics.items():
            assert unit == declared[metric], metric
            assert isinstance(value, float) and value == value, metric
            if kind == "end_to_end":
                assert value > 0, (name, metric)


def test_traced_run_restores_every_wrapped_function(reported):
    originals = current_targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            wrapped = current_targets()
            raise RuntimeError("restore must still happen")
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(w, "__wrapped__", None) is o
               for w, o in zip(wrapped, originals))
    assert current_targets() == originals
    assert all(not hasattr(o, "__wrapped__") for o in originals)
