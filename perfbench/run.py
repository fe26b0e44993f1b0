"""Benchmark of record: four workloads, end-to-end and per-layer metrics.

Run one workload (its own process, so peak memory is its own)::

    python3 perfbench/run.py --workload paper_ops --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same work untraced and then traced, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and sample count.  ``--workload all`` runs
every workload in turn, each in a child process.  The exit code is non-zero
when a correctness check fails or a context resolved another execution tier
than the one requested.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("paper_ops", "ml_infer", "slot_eager", "serve_mix")
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, bad config)."""


def pin_environment() -> int:
    """Fix what the process inherits before numpy or the program loads.

    BLAS/OpenMP pools get one thread: the workloads' numpy work is
    single-threaded, and an idle pool thread would spin on a core the
    measured thread or the serving executor needs.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = "1"
    # the default tier and the sanitizer are chosen by the workloads alone
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.pop("REPRO_CHECKED", None)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {src}")
    sys.path.insert(0, str(src))
    return nproc


def declared_metrics(trace: bool) -> dict:
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_in_children(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-only",
            ],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode:
            raise BenchmarkError(f"set-up child failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def import_program() -> float:
    """Import the program; return seconds since the process started."""
    import workloads  # noqa: F401 - numpy and the program load here

    return time.perf_counter() - PROCESS_START


def set_up(args, imported: float):
    """Build the compiled kernels, then set up; return (workload, secs).

    ``secs`` is the import time plus the set-up itself.  The kernel build
    runs before the set-up clock starts, so a C compiler never lands in
    ``setup_s``.
    """
    import workloads
    from repro.poly.backends.compiled import get_lib

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if wl.requested_tier == "compiled":
        get_lib()
    start = time.perf_counter()
    wl.setup()
    wl.warm_up()
    return wl, imported + time.perf_counter() - start


def machine_line(wl, nproc: int) -> str:
    import numpy

    cc = wl.cc
    tiers = ",".join(got for _, got in wl.tiers)
    return (
        f"machine={platform.machine()} nproc={nproc} "
        f"python={platform.python_version()} numpy={numpy.__version__} tier={tiers} "
        f"reducer={cc.poly_ctx.method} ring_degree={cc.poly_ctx.ring_degree} "
        f"limbs={cc.poly_ctx.num_limbs}"
    )


def end_to_end(wl, args, setups: list[float]) -> tuple[dict, object, list[str]]:
    samples = wl.measure(args.seconds)
    wl.verify(samples)
    setup = statistics.median(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": ("s", setup), "peak_rss_mb": ("MB", rss_mb)}
    lines = [
        f"setup_s = {setup:.4f} s (median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups) + ")",
        f"peak_rss_mb = {rss_mb:.1f} MB (this process)",
    ]
    for metric, (label, value, count) in wl.latencies(samples).items():
        metrics[metric] = ("ms", value)
        lines.append(f"{metric} = {label} = {value:.4f} ms (n={count})")
    label, value = wl.throughput(samples)
    metrics["throughput_per_s"] = ("1/s", value)
    lines.append(f"throughput_per_s = {label} = {value:.4f} 1/s")
    return metrics, samples, lines


def per_layer(wl, args, tracer) -> tuple[dict, object, list[str]]:
    from tracing import LAYER_CALLS
    from workloads import SERVING_METRICS

    base, traced = wl.trace_phases(args.seconds, tracer)
    wl.verify(base)
    wl.verify(traced)
    times = tracer.self_times()
    metrics = {}
    for _, _, name in LAYER_CALLS:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = ("count", calls)
        metrics[f"{name}.s"] = ("s", self_s)
    metrics["poly.batch_ntt.rows"] = ("count", tracer.ntt_rows)
    metrics["poly.batch_ntt.bytes"] = ("bytes-computed", tracer.ntt_bytes)
    switches = sum(
        times.get(f"poly.basis_conv.{n}", (0, 0))[0] for n in ("run", "run_hoisted")
    )
    modups = sum(
        times.get(f"poly.basis_conv.{n}", (0, 0))[0] for n in ("run", "hoist")
    )
    metrics["poly.basis_conv.hoist_reuse"] = (
        "ratio", switches / modups if modups else 0.0
    )
    metrics["poly.backends.fallbacks"] = ("count", wl.fallbacks)
    plans = wl.plans()
    metrics["scheme._circuit.steps"] = ("count", sum(p.num_steps for p in plans))
    metrics["scheme._circuit.cost"] = (
        "int32-instrs", sum(p.cost().int32_instrs for p in plans)
    )
    serving = wl.layer_extras(tracer, traced)
    for name, unit in SERVING_METRICS.items():
        metrics[name] = (unit, serving.get(name, 0))
    covered = tracer.covered_fraction(traced.intervals)
    metrics["unattributed_frac"] = ("ratio", 1.0 - covered)
    metrics["trace_overhead_frac"] = ("ratio", wl.trace_overhead(base, traced))
    trace_path = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    lines = [f"{k} = {v:.6g} {u}" for k, (u, v) in sorted(metrics.items())]
    lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
    samples = traced
    samples.attempted += base.attempted
    samples.failed += base.failed
    samples.problems += base.problems
    return metrics, samples, lines


def run_workload(args) -> int:
    nproc = pin_environment()
    sys.path.insert(0, str(HERE))
    imported = import_program()
    import workloads

    try:
        if args.setup_only:
            _, secs = set_up(args, imported)
            print(json.dumps({"setup_s": secs}))
            return 0
        return measure_and_report(args, nproc, imported)
    except workloads.CorrectnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def measure_and_report(args, nproc: int, imported: float) -> int:
    import workloads

    declared = declared_metrics(bool(args.trace))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    extra_setups = (
        [] if args.trace else
        setup_in_children(args, workloads.WORKLOADS[args.workload].setups - 1)
    )
    if tracer is not None:
        tracer.install()
    try:
        wl, secs = set_up(args, imported)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if args.trace:
        metrics, samples, lines = per_layer(wl, args, tracer)
    else:
        metrics, samples, lines = end_to_end(wl, args, extra_setups + [secs])

    emitted = {k: unit for k, (unit, _) in metrics.items()}
    if emitted != declared:
        raise BenchmarkError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(emitted.items()) ^ set(declared.items()))}"
        )
    problems = list(samples.problems)
    bad = [k for k, (_, v) in metrics.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"metrics without a value: {bad}")
    correct = not problems
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# {machine_line(wl, nproc)}")
    for line in lines:
        print(f"# {line}")
    for key, value in sorted(samples.extra.items()):
        if isinstance(value, int | float):
            print(f"# {key} = {value:.6g}")
    print(f"# attempted={samples.attempted} failed={samples.failed} correct={correct}")
    for problem in problems[:20]:
        print(f"# FAIL: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            k: {"value": int(v) if unit == "count" else float(v), "unit": unit}
            for k, (unit, v) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            cwd=ROOT,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
