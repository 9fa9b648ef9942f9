"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-full --seed 0 --seconds 40 --trace 0

``--trace 0`` times whole iterations of the workload until the next
one would overrun ``--seconds`` (at least one), then prints the
end-to-end metrics, their times scaled to the reference CPU speed of
:mod:`speed`.  ``--trace 1`` runs one untraced and one traced
iteration and prints the per-layer metrics.  Either way the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: fresh processes that time the set-up, per run
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "sim_node_h_per_s": "node-h/s",
    "peak_rss_mb": "MB",
}


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process to its first timed call."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--setup-probe",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def check_outputs(wl, outcomes, reference) -> tuple[list[str], int]:
    """Failed checks, and the number of (cell, iteration) mismatches."""
    from workloads import fingerprint

    problems = [p for o in outcomes for p in o.problems]
    mismatched = 0
    first = outcomes[0].digests
    for k, o in enumerate(outcomes[1:], start=1):
        if o.digests != first:
            problems.append(f"iteration {k} digests differ from iteration 0")
    print(f"fingerprint {fingerprint(first)}")
    if wl.seed == 0:
        expected = reference["cells"][wl.name]
        for o in outcomes:
            mismatched += sum(1 for a, b in zip(o.digests, expected) if a and a != b)
        if len(first) == len(expected):
            verdict = "match" if fingerprint(first) == reference["fingerprints"][wl.name] else "MISMATCH"
            print(f"reference fingerprint {verdict}")
            if verdict != "match":
                problems.append("fingerprint differs from the reference")
        print(f"reference cell digests: {mismatched} mismatched")
        if wl.name == "cap-sweep":
            golden = wl.golden_problems(outcomes[0], reference["golden"])
            print(f"golden digests {'match' if not golden else 'MISMATCH'}")
            problems += golden
    else:
        print("reference check skipped (seed is not 0)")
    problems += wl.crosscheck(outcomes[0])
    return problems, mismatched


def timed_run(wl, seconds: float) -> tuple[dict[str, float], list]:
    """Median wall and CPU time per iteration, scaled to the reference
    CPU speed by the iteration's own :class:`speed.SpeedProbe`."""
    from speed import SpeedProbe

    walls, cpus_s, slowdowns, outcomes = [], [], [], []
    while True:
        wl.before_iteration(len(outcomes))
        gc.collect()
        with SpeedProbe() as probe:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            outcomes.append(wl.iteration())
            walls.append(time.perf_counter() - t0)
        cpus_s.append(cpu_seconds() - c0 - probe.cpu_seconds)
        slowdowns.append(probe.slowdown)
        if sum(walls) + statistics.fmean(walls) > seconds:
            break
    wall = statistics.median(w / s for w, s in zip(walls, slowdowns))
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(c / s for c, s in zip(cpus_s, slowdowns)),
        "sim_node_h_per_s": wl.node_hours / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"iterations {len(walls)}: wall " + " ".join(f"{w:.3f}" for w in walls))
    print("CPU slowdown vs reference " + " ".join(f"{s:.3f}" for s in slowdowns))
    return metrics, outcomes


def traced_run(wl, trace_dir: Path) -> tuple[dict[str, float], list]:
    """One untraced, then one traced iteration; per-layer metrics."""
    import layers
    from tracing import Tracer
    from workloads import WORKERS

    wl.for_trace()
    tracer = Tracer(wl.workdir / "spans")
    # The set-up is traced too (workload generation of replay-full).
    layers.install(tracer)
    wl.prepare()
    tracer.uninstall()

    wl.before_iteration(0)
    gc.collect()
    t0 = time.perf_counter()
    plain = wl.iteration()
    untraced = time.perf_counter() - t0

    wl.before_iteration(1)
    gc.collect()
    layers.install(tracer)
    t0 = time.perf_counter()
    try:
        traced = wl.iteration()
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    span_sets, counts = tracer.collect()

    metrics = layers.layer_metrics(
        span_sets,
        counts,
        events=traced.events,
        reports=traced.reports,
        workers=WORKERS,
        cell_duration=wl.cell_duration,
        store_bytes=traced.store_bytes,
    )
    metrics["trace.overhead_ratio"] = wall / untraced
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    for i, spans in enumerate(span_sets):
        spans.save(trace_dir / f"{i}-{spans.pid}.npz")
    print(
        f"untraced wall {untraced:.3f} s, traced wall {wall:.3f} s; "
        f"{sum(len(s) for s in span_sets)} spans from {len(span_sets)} processes "
        f"(pool workers inherit the wrappers by fork and write their spans at exit) "
        f"written to {os.path.relpath(trace_dir, ROOT)}"
    )
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS, load_reference
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-run"
    # Fixed-width, because store paths travel inside pickled task
    # envelopes and so count in exp.xfer.pipe_bytes.
    workdir = scratch / f"{args.workload}-{os.getpid():07d}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            wl.prepare()
            print("ready", flush=True)
            return 0
        if args.trace:
            import layers

            metrics, outcomes = traced_run(wl, scratch / f"trace-{args.workload}")
            units = layers.PER_LAYER_UNITS
        else:
            from speed import SpeedProbe, pin_to_one_core

            if wl.single_process:
                pin_to_one_core()
            wl.prepare()
            print(f"set-up in this process {time.perf_counter() - PROCESS_T0:.3f} s")
            metrics, outcomes = timed_run(wl, args.seconds)
            units = E2E_UNITS
        problems, mismatched = check_outputs(wl, outcomes, load_reference())
        if not args.trace:
            with SpeedProbe() as probe:
                probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = statistics.median(probes) / probe.slowdown
            print(
                "set-up probes " + " ".join(f"{p:.3f}" for p in probes)
                + f", CPU slowdown vs reference {probe.slowdown:.3f}"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(wl.cells) * len(outcomes)
    failed = min(attempted, sum(o.failed_cells for o in outcomes) + mismatched)
    for p in problems:
        print(f"check failed: {p}")
    for name in units:
        print(f"{name:<28} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'fail_ratio':<28} {failed / attempted:>16.6g} ratio")
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
