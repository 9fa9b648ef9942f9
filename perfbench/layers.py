"""Which program calls the traced run wraps, and the per-layer metrics
derived from what they record.

Every wrapped callable is public API of a ``repro`` module.  Span
names are ``<layer>.<what>``; :func:`layer_metrics` turns the spans,
the counters and the sweep reports into the ``per_layer`` metrics that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Sequence

from tracing import SpanSet, Tracer, call_counts, root_seconds, self_seconds, total_seconds

#: per-layer metric name -> unit, in the order they are printed
PER_LAYER_UNITS: dict[str, str] = {
    "workload.generate_s": "s",
    "workload.jobs": "count",
    "platform.build_machine_s": "s",
    "cluster.set_state_calls": "count",
    "cluster.set_state_s": "s",
    "core.decide_calls": "count",
    "core.decide_s": "s",
    "core.offline_plan_s": "s",
    "rjms.passes": "count",
    "rjms.starts": "count",
    "rjms.decides_per_pass": "ratio",
    "rjms.start_yield": "ratio",
    "rjms.queue_order_calls": "count",
    "rjms.queue_order_s": "s",
    "rjms.submit_s": "s",
    "rjms.controller_self_s": "s",
    "sim.events": "count",
    "sim.engine_run_s": "s",
    "sim.recorder_samples": "count",
    "sim.recorder_s": "s",
    "sim.to_grid_s": "s",
    "sim.digest_s": "s",
    "sim.batch.groups": "count",
    "sim.batch.warm_groups": "count",
    "sim.batch.prefix_share": "ratio",
    "exp.sweep_s": "s",
    "exp.orchestrate_s": "s",
    "exp.parallel_eff": "ratio",
    "exp.lpt_imbalance": "ratio",
    "exp.store.put_s": "s",
    "exp.store.put_series_s": "s",
    "exp.store.get_s": "s",
    "exp.store.bytes": "B",
    "exp.ckpt.hits": "count",
    "exp.ckpt.misses": "count",
    "exp.ckpt.publishes": "count",
    "exp.ckpt.io_s": "s",
    "exp.xfer.pipe_bytes": "B",
    "exp.xfer.shm_bytes": "B",
    "exp.xfer.fallbacks": "count",
    "exp.xfer.spec_hit_ratio": "ratio",
    "analysis.render_s": "s",
    "trace.overhead_ratio": "ratio",
}

_RECORDER_HOOKS = ("sample", "job_submitted", "job_started", "job_finished", "finalize")


def _is_sched_pass(_result: Any, *args: Any, **kwargs: Any) -> int:
    from repro.sim.engine import EventKind

    kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
    return int(kind == EventKind.SCHED_PASS)


def _n_jobs(result: Any, *_args: Any, **_kwargs: Any) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` layer."""
    import repro.policy.strategies  # noqa: F401 - registers the selector subclasses
    from repro.cluster.power import PowerAccountant
    from repro.core.offline import OfflinePlanner
    from repro.core.online import FrequencySelector
    from repro.exp import aggregate, runner, spec
    from repro.exp.backends import BatchPoolBackend, ProcessPoolBackend
    from repro.exp.checkpoints import DirectoryCheckpointStore
    from repro.exp.store import DirectoryStore
    from repro.platform.spec import PlatformSpec
    from repro.rjms.controller import Controller
    from repro.rjms.queue import PendingQueue
    from repro.sim import batch
    from repro.sim.engine import SimEngine
    from repro.sim.metrics import MetricsRecorder

    tracer.span(spec, "build_workload", "workload.generate")
    tracer.count(spec, "build_workload", "workload.jobs", _n_jobs)
    tracer.span(PlatformSpec, "build_machine", "platform.build_machine")
    tracer.span_class_tree(PowerAccountant, "set_state", "cluster.set_state")
    tracer.span_class_tree(FrequencySelector, "decide", "core.decide")
    tracer.span_class_tree(OfflinePlanner, "plan", "core.offline_plan")
    tracer.count(SimEngine, "at", "rjms.passes", _is_sched_pass)
    tracer.span(PendingQueue, "order", "rjms.queue_order")
    tracer.span(Controller, "submit", "rjms.submit")
    tracer.span(SimEngine, "run", "sim.engine_run")
    tracer.span(SimEngine, "run_before", "sim.engine_run")
    for hook in _RECORDER_HOOKS:
        tracer.span(MetricsRecorder, hook, f"sim.recorder.{hook}")
    tracer.span(MetricsRecorder, "to_grid", "sim.to_grid")
    tracer.span(runner, "trace_digest", "sim.digest")
    # Whole units of work, so a worker's root spans cover its busy time.
    tracer.span(runner, "run_scenario", "exp.unit")
    tracer.span(runner, "run_scenario_with_series", "exp.unit")
    tracer.span(batch, "run_replay_batch", "exp.unit")
    tracer.span(runner.GridRunner, "sweep", "exp.sweep")
    tracer.span_generator(ProcessPoolBackend, "map_tasks", "exp.backend")
    tracer.span_generator(BatchPoolBackend, "run_scenarios", "exp.backend")
    tracer.span(DirectoryStore, "put", "exp.store.put")
    tracer.span(DirectoryStore, "put_series", "exp.store.put_series")
    for name in ("get", "get_series", "has_series"):
        tracer.span(DirectoryStore, name, "exp.store.get")
    for name in ("get", "put", "has", "best", "keys"):
        tracer.span(DirectoryCheckpointStore, name, "exp.ckpt.io")
    tracer.span(aggregate, "render_results_grid", "analysis.render")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    span_sets: Sequence[SpanSet],
    counts: dict[str, int],
    *,
    events: int,
    reports: Sequence[Any] = (),
    workers: int = 0,
    cell_duration: float = 0.0,
    store_bytes: int = 0,
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio``.

    ``span_sets`` holds the main process's spans first, then one set per
    pool worker; ``reports`` the traced iteration's ``SweepReport``s.
    """
    total: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for spans in span_sets:
        for name, value in total_seconds(spans).items():
            total[name] += value
        for name, value in self_seconds(spans).items():
            selft[name] += value
        for name, value in call_counts(spans).items():
            calls[name] += value

    passes = counts.get("rjms.passes", 0)
    starts = calls["sim.recorder.job_started"]
    m: dict[str, float] = {
        "workload.generate_s": total["workload.generate"],
        "workload.jobs": counts.get("workload.jobs", 0),
        "platform.build_machine_s": total["platform.build_machine"],
        "cluster.set_state_calls": calls["cluster.set_state"],
        "cluster.set_state_s": total["cluster.set_state"],
        "core.decide_calls": calls["core.decide"],
        "core.decide_s": total["core.decide"],
        "core.offline_plan_s": total["core.offline_plan"],
        "rjms.passes": passes,
        "rjms.starts": starts,
        "rjms.decides_per_pass": _ratio(calls["core.decide"], passes),
        "rjms.start_yield": _ratio(starts, calls["core.decide"]),
        "rjms.queue_order_calls": calls["rjms.queue_order"],
        "rjms.queue_order_s": total["rjms.queue_order"],
        "rjms.submit_s": total["rjms.submit"],
        "rjms.controller_self_s": selft["sim.engine_run"],
        "sim.events": events,
        "sim.engine_run_s": total["sim.engine_run"],
        "sim.recorder_samples": calls["sim.recorder.sample"],
        "sim.recorder_s": sum(total[f"sim.recorder.{h}"] for h in _RECORDER_HOOKS),
        "sim.to_grid_s": total["sim.to_grid"],
        "sim.digest_s": total["sim.digest"],
        "exp.sweep_s": total["exp.sweep"],
        "exp.orchestrate_s": total["exp.sweep"] - total["exp.backend"],
        "exp.store.put_s": total["exp.store.put"],
        "exp.store.put_series_s": total["exp.store.put_series"],
        "exp.store.get_s": total["exp.store.get"],
        "exp.store.bytes": store_bytes,
        "exp.ckpt.io_s": total["exp.ckpt.io"],
        "analysis.render_s": total["analysis.render"],
    }

    groups = [
        g for report in reports for g in report.groups.get("groups", {}).values()
    ]
    m["sim.batch.groups"] = len(groups)
    m["sim.batch.warm_groups"] = sum(1 for g in groups if g["fork_t"] > 0)
    m["sim.batch.prefix_share"] = (
        statistics.fmean(g["fork_t"] / cell_duration for g in groups)
        if groups and cell_duration
        else 0.0
    )
    executing = [r for r in reports if r.n_executed]
    # elapsed_seconds is the wall time of the unit that produced a
    # cell; the cells of one lockstep group share it, so each distinct
    # value is one unit.
    unit_s = sum(
        sum({r.elapsed_seconds for r in report.results if not r.cached})
        for report in executing
    )
    m["exp.parallel_eff"] = _ratio(
        unit_s, workers * sum(r.wall_seconds for r in executing)
    )
    busy = [root_seconds(s) for s in span_sets[1:]]
    m["exp.lpt_imbalance"] = _ratio(max(busy), statistics.fmean(busy)) if busy else 0.0

    ckpt: dict[str, int] = defaultdict(int)
    xfer: dict[str, int] = defaultdict(int)
    for report in reports:
        for key, value in report.checkpoints.items():
            ckpt[key] += value
        for key, value in report.transfer.items():
            xfer[key] += value
    m["exp.ckpt.hits"] = ckpt["hits"]
    m["exp.ckpt.misses"] = ckpt["misses"]
    m["exp.ckpt.publishes"] = ckpt["publishes"]
    m["exp.xfer.pipe_bytes"] = xfer["bytes_shipped"]
    m["exp.xfer.shm_bytes"] = xfer["bytes_shared"]
    m["exp.xfer.fallbacks"] = xfer["fallbacks"]
    m["exp.xfer.spec_hit_ratio"] = _ratio(
        xfer["spec_hits"], xfer["spec_hits"] + xfer["spec_misses"]
    )
    return m
