"""bandgen benchmark: one closed-loop workload per run, one JSON result line.

    python3 perfbench/run.py --workload long --seed 1 --seconds 50 --trace 0

Run from the root of a bandgen checkout; the package is imported from its
`src/` directory. `--trace 0` measures the end-to-end metrics; `--trace 1`
measures untraced for half the time, then traced for the other half, and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is the result object; context, a per-layer self-time table,
spans and the full result are written under `perfbench/out/`.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them first.
THREAD_PINS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7


def import_bandgen():
    """Import bandgen from this checkout's src/, and from nowhere else."""
    src = CHECKOUT / "src"
    sys.path.insert(0, str(src))
    try:
        import bandgen
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import bandgen from {src}: {e}")
    if Path(bandgen.__file__).resolve().parent != src / "bandgen":
        raise SystemExit(f"perfbench: bandgen resolved to {bandgen.__file__}, "
                         f"not to {src}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.26 has no mode argument
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS, "git_commit": git_commit(),
    }


def closed_loop(work, seconds: float, min_iterations: int, tracer=None):
    """Run iterations back to back; start another only while it is expected
    to end within `seconds`. Returns (records of the iterations that ran to
    the end, attempted, failed)."""
    records, walls = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if attempted >= min_iterations and (
                not walls or elapsed + statistics.median(walls) > seconds):
            break
        attempted += 1
        t0 = time.perf_counter()
        try:
            record = work.iterate(tracer)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        walls.append(time.perf_counter() - t0)
        if record["problems"]:
            failed += 1
            for p in record["problems"]:
                print(f"check failed: {p}", file=sys.stderr)
        records.append(record)
    return records, attempted, failed


def _scale_line(scale: float, probes: list[float]) -> str:
    return (f"speed scale (reference s per measured s): {scale:.4f} from "
            f"{len(probes)} probes of {1000 * min(probes):.2f}-"
            f"{1000 * max(probes):.2f} ms")


class Measurement(NamedTuple):
    metrics: dict           # {name: (value, unit)}
    attempted: int
    failed: int
    report: str             # text for the terminal and out/report_*.txt
    unscaled: dict | None   # untraced: the metrics without probe scaling
    tracer: object | None   # traced: the tracer holding the spans


def measure(work, seconds: int, trace: bool) -> Measurement:
    from tracing import SpanIndex, Tracer, current_targets, format_table, \
        self_time_table
    from workloads import block_scale, layer_unit, probe, take_speed_scale

    setup_s, setup_raw = [], []
    after = probe()
    for _ in range(SETUP_REPEATS):
        before = after
        t0 = time.perf_counter()
        work.setup()
        setup_raw.append(time.perf_counter() - t0)
        after = probe()
        setup_s.append(setup_raw[-1] * block_scale(before, after))
    work.warm_up()
    take_speed_scale()      # the run's scale covers the measured loop only
    if not trace:
        records, attempted, failed = closed_loop(work, seconds, work.min_iterations)
        scale, probes = take_speed_scale()
        metrics = {"setup_s": (statistics.median(setup_s), "s")}
        raw = {"setup_s": (statistics.median(setup_raw), "s")}
        if records:
            metrics.update(work.end_to_end(records, scale))
            raw.update(work.end_to_end(records, None))
        return Measurement(metrics, attempted, failed, _scale_line(scale, probes),
                           raw, None)

    half = seconds / 2
    base, att0, fail0 = closed_loop(work, half, work.min_traced)
    base_scale, base_probes = take_speed_scale()
    tracer = Tracer()
    originals = current_targets()
    with tracer.installed():
        traced, att1, fail1 = closed_loop(work, half, work.min_traced, tracer)
    traced_scale, traced_probes = take_speed_scale()
    if current_targets() != originals:
        raise SystemExit("perfbench: tracer left a wrapper installed")
    if not (base and traced):
        return Measurement({}, att0 + att1, fail0 + fail1, "", None, tracer)
    index = SpanIndex(tracer.spans)
    metrics = {k: (v, layer_unit(k)) for k, v in work.per_layer(index).items()}
    untraced = base_scale * statistics.median(r[work.time_key] for r in base)
    with_spans = traced_scale * statistics.median(r[work.time_key] for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - untraced) / untraced, "%")
    roots = [r for name in work.root_names for r in index.roots(name)]
    table = format_table(self_time_table(index, roots),
                         len(index.roots(work.root)))
    report = (f"{table}\ntracing overhead on {work.time_key} (reference s): "
              f"untraced {untraced:.4f} s, traced {with_spans:.4f} s\n"
              f"untraced half: {_scale_line(base_scale, base_probes)}\n"
              f"traced half: {_scale_line(traced_scale, traced_probes)}")
    return Measurement(metrics, att0 + att1, fail0 + fail1, report, None, tracer)


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_bandgen()
    from workloads import SHAPES, Pipeline
    if args.workload not in SHAPES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(SHAPES)}")
    context = run_context(args.workload, args.seed, args.seconds, args.trace)
    work = Pipeline(args.seed, SHAPES[args.workload])
    m = measure(work, args.seconds, bool(args.trace))
    result = {"correct": m.failed == 0, "attempted": m.attempted,
              "failed": m.failed, "metrics": _as_json(m.metrics)}
    saved = {"context": context, "result": result}
    if m.unscaled is not None:
        saved["unscaled_metrics"] = _as_json(m.unscaled)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_{args.seed}_trace{args.trace}"
    (OUT_DIR / f"result_{stem}.json").write_text(json.dumps(saved, indent=2) + "\n")
    (OUT_DIR / f"report_{stem}.txt").write_text(m.report + "\n")
    if m.tracer is not None:
        m.tracer.write_jsonl(str(OUT_DIR / f"spans_{stem}.jsonl"))
    print(m.report)
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
