"""Host-time benchmark of the engine.

Runs one seeded workload (see ``perfbench/workloads.py``) from a checkout
of the repository and prints, as its last line, one JSON object::

    {"correct": true, "attempted": 1816, "failed": 0,
     "metrics": {"ops_per_s": {"value": 181.3, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing: set-up is repeated ``SETUP_REPEATS`` times (the median is
``setup_s``, and the sim-side counts of every repeat must match), then
the last instance runs its measured loop for ``--seconds`` host seconds,
ending on a whole round of steps. Every timing is rescaled to a reference
host speed measured alongside it (``hostspeed.py``); the human-readable
lines print the unscaled figure beside each metric. With ``--trace 1`` the metrics are the
per-layer ones: the workload runs a fixed number of steps untraced, then
again on a fresh instance with every layer wrapped (``tracing.py``); the
ratio of the two loop times is ``trace.overhead_ratio``, the counter
movement of both halves must match exactly, and the spans are written to
``.perfbench/traces/``. Either way the command exits 1 when a
correctness check fails.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: End-to-end metrics: (name, unit). What each means per workload is in
#: the workload's ``kinds`` and ``aliases``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op2_ms.p50", "ms"),
    ("op3_ms.p50", "ms"),
)


def _load_engine() -> None:
    """Import the engine from this checkout's ``src/``; exit 1 without it."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import the engine from {src}: {err}") from err
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported the engine from {repro.__file__}, not {src}")


def _percentile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_loop(workload, steps: int | None = None, seconds: float = 0.0, log=None) -> float:
    """Run ``steps`` steps, or steps for ``seconds`` ending on a round;
    returns the peak RSS after the workload's fixed steps."""
    deadline = time.perf_counter() + seconds
    done = 0
    peak = 0.0
    while True:
        if done == workload.shape.fixed_steps:
            peak = _peak_rss_mb()
        if steps is not None:
            if done == steps:
                return peak
        elif done >= workload.shape.fixed_steps and done % workload.round_steps == 0 \
                and time.perf_counter() >= deadline:
            return peak
        if log is not None:
            log.op = done
        workload.step()
        done += 1


def measure(name: str, seed: int, seconds: float, shape=None) -> dict:
    """One untraced run: the end-to-end metrics."""
    from perfbench.hostspeed import SETUP_PROBES, HostSpeed
    from perfbench.workloads import WORKLOADS

    speed = HostSpeed()
    setup_raw = []
    setup_s = []
    first = None
    problems = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload = WORKLOADS[name](seed, shape)
        workload.speed = speed
        for _ in range(SETUP_PROBES):
            speed.probe()
        probed = len(speed.seconds)
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        elapsed = end - start - sum(speed.seconds[probed:])
        for _ in range(SETUP_PROBES):
            speed.probe()
        setup_raw.append(elapsed)
        setup_s.append(elapsed * speed.scale(start, end))
        counts = workload.env.stats.as_dict()
        counts["sim.clock"] = workload.env.clock.now()
        if first is None:
            first = counts
        elif counts != first:
            problems.append("set-up sim-side counts differ between repeats of one seed")
    gc.collect()
    log_bytes = workload.env.stats.log_write_bytes
    peak_rss_mb = _run_loop(workload, seconds=seconds)
    log_bytes = workload.env.stats.log_write_bytes - log_bytes
    workload.finish()

    raw = {kind: [d for _s, d in xs] for kind, xs in workload.samples.items()}
    scaled = {
        kind: [d * speed.scale(s, s + d) for s, d in xs] for kind, xs in workload.samples.items()
    }
    op, op2, op3 = workload.kinds
    ops, kinds = workload.throughput()

    def figures(times: dict, setup: list[float]) -> dict:
        busy = sum(sum(times.get(kind, ())) for kind in kinds)
        return {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": ops / busy if busy else 0.0,
            "op_ms.p50": _percentile(times.get(op, []), 0.5) * 1e3,
            "op_ms.p90": _percentile(times.get(op, []), 0.9) * 1e3,
            "op2_ms.p50": _percentile(times.get(op2, []), 0.5) * 1e3,
            "op3_ms.p50": _percentile(times.get(op3, []), 0.5) * 1e3,
        }

    values = figures(scaled, setup_s)
    unscaled = figures(raw, setup_raw)
    rate, lat, lat2, lat3 = workload.aliases
    count = {kind: len(raw.get(kind, ())) for kind in workload.kinds}
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": f"high-water mark after set-up and {workload.shape.fixed_steps} steps",
        "ops_per_s": f"{rate}, {ops:.6g} unit ops",
        "op_ms.p50": f"{lat}.p50, n={count[op]}",
        "op_ms.p90": f"{lat}.p90, n={count[op]}",
        "op2_ms.p50": f"{lat2}.p50, n={count[op2]}",
        "op3_ms.p50": f"{lat3}.p50, n={count[op3]}",
    }
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
    lines = [
        f"{key} = {values[key]:.6g} {unit}  ({notes[key]}; unscaled {unscaled[key]:.6g})"
        for key, unit in END_TO_END
    ]
    lines += [
        f"host speed: {len(speed.seconds)} kernel probes, median "
        f"{statistics.median(speed.seconds) * 1e3:.4g} ms",
        f"failed_ops_ratio = {workload.failed / max(workload.attempted, 1):.6g} "
        f"({workload.failed} failed / {workload.attempted} attempted)",
        f"log_bytes_per_op = {log_bytes / max(workload.ops, 1):.6g} bytes "
        f"({log_bytes} bytes over {workload.ops:.6g} unit ops)",
    ]
    return _result(workload, problems, metrics, lines)


def trace(name: str, seed: int, shape=None, out_dir: Path | None = None) -> dict:
    """One traced run: the per-layer metrics."""
    from perfbench.tracing import (
        Instrumentation,
        LatchRegistry,
        Meter,
        SpanLog,
        moved,
        per_layer,
    )
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[name]
    registry = LatchRegistry()
    registry.install()
    try:
        plain = cls(seed, shape)
        plain.setup()
        steps = plain.shape.fixed_steps
        meter = Meter(plain, registry)
        plain.pause = meter.pause
        gc.collect()
        before = meter.snapshot()
        start = time.perf_counter()
        _run_loop(plain, steps=steps)
        plain_s = time.perf_counter() - start - meter.paused_s
        plain_counts = moved(meter, before, meter.snapshot())
        plain.finish()
        problems = list(plain.problems)
        plain = None
        gc.collect()

        log = SpanLog()
        workload = cls(seed, shape)
        workload.setup()
        meter = Meter(workload, registry, log)
        workload.pause = meter.pause
        instrumentation = Instrumentation(log)
        instrumentation.install()
        try:
            gc.collect()
            before = meter.snapshot()
            log.active = True
            start = time.perf_counter()
            _run_loop(workload, steps=steps, log=log)
            traced_s = time.perf_counter() - start
            log.active = False
            paused_s = meter.paused_s
        finally:
            instrumentation.remove()
        counts = moved(meter, before, meter.snapshot())
    finally:
        registry.remove()
    workload.finish()
    differ = sorted(k for k in counts.keys() | plain_counts.keys()
                    if counts.get(k, 0.0) != plain_counts.get(k, 0.0))
    if differ:
        problems.append(f"sim-side counts differ between the untraced and traced halves: {differ}")
    counts["redo.records"] = log.counted.get("wal.redo", 0)
    overhead = (traced_s - paused_s) / plain_s if plain_s else 0.0
    rows = per_layer(log, counts, workload.ops, overhead, traced_s, paused_s)
    out_dir = out_dir if out_dir is not None else ROOT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.tsv.gz"
    log.write(path)
    metrics = {metric: {"value": value, "unit": unit} for metric, unit, value in rows}
    lines = [f"{k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"{len(log.spans)} spans of {steps} steps written to {path}")
    return _result(workload, problems, metrics, lines)


def _result(workload, problems: list[str], metrics: dict, lines: list[str]) -> dict:
    problems = problems + workload.problems
    return {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "lines": lines,
        "problems": problems,
    }


def _report(name: str, result: dict) -> int:
    print(f"# workload {name}")
    for line in result.pop("lines"):
        print(line)
    for problem in result.pop("problems"):
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_engine()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code |= subprocess.run(command, check=False).returncode
        return code
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    return _report(args.workload, result)


if __name__ == "__main__":
    sys.exit(main())
