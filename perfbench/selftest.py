"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.exp import Scenario  # noqa: E402
from tracing import SpanSet, Tracer, root_seconds, self_seconds, total_seconds  # noqa: E402

HOUR = 3600.0


# -- span arithmetic ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = SpanSet.from_records(
        [
            ("a", 0, 100, -1),
            ("b", 10, 40, 0),
            ("c", 50, 90, 0),
            ("b", 60, 70, 2),
            ("a", 200, 260, -1),
        ]
    )
    assert self_seconds(spans) == pytest.approx(
        {"a": (30 + 60) / 1e9, "b": 40 / 1e9, "c": 30 / 1e9}
    )
    assert total_seconds(spans) == pytest.approx(
        {"a": 160 / 1e9, "b": 40 / 1e9, "c": 40 / 1e9}
    )
    assert root_seconds(spans) == pytest.approx(160 / 1e9)


class _Base:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n


class _Child(_Base):
    def work(self, n):
        return super().work(n) * 2


def _gen(n):
    yield from range(n)


def test_tracer_records_nesting_and_restores_originals(tmp_path):
    originals = (_Base.__dict__["work"], _Child.__dict__["work"], _Base.__dict__["inner"])
    tracer = Tracer(tmp_path)
    tracer.span_class_tree(_Base, "work", "work")
    tracer.span(_Base, "inner", "inner")
    tracer.count(_Base, "inner", "inner.n", lambda result, self, n: n)
    assert _Child().work(3) == 8
    tracer.uninstall()
    assert (_Base.__dict__["work"], _Child.__dict__["work"], _Base.__dict__["inner"]) == originals

    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    # _Child.work calls _Base.work through super(): one logical call.
    assert names == ["work", "inner"]
    assert list(spans.parent) == [-1, 0]
    assert (spans.end >= spans.start).all()
    assert tracer.counts["inner.n"] == 3


def test_generator_spans_cover_each_resumption(tmp_path):
    module = sys.modules[__name__]
    tracer = Tracer(tmp_path)
    tracer.span_generator(module, "_gen", "gen")
    try:
        assert list(module._gen(3)) == [0, 1, 2]
    finally:
        tracer.uninstall()
    # Three items plus the resumption that ends the generator.
    assert len(tracer.spans()) == 4


def _traced_task(n):
    return _Base().work(n)


def test_forked_workers_write_their_spans_at_exit(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.span(_Base, "work", "work")
    try:
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as pool:
            assert list(pool.map(_traced_task, range(6))) == [n + 1 for n in range(6)]
    finally:
        tracer.uninstall()
    sets, _counts = tracer.collect()
    assert len(sets[0]) == 0  # the main process made no traced call
    assert sum(len(s) for s in sets[1:]) == 6
    assert not list(tmp_path.glob("worker-*"))


def test_speed_probe_samples_until_the_block_ends():
    with speed.SpeedProbe() as probe:
        time.sleep(5 * speed.PERIOD_S)
    assert not any(thread.is_alive() for thread in probe._threads)
    assert len(probe.samples) >= 2
    assert probe.slowdown > 0
    assert probe.cpu_seconds >= sum(probe.samples) > 0


# -- fingerprints and references --------------------------------------------------------


def test_fingerprint_hashes_digests_in_order():
    assert workloads.fingerprint(["a", "b"]) == hashlib.sha256(b"a\nb\n").hexdigest()
    assert workloads.fingerprint(["a", "b"]) != workloads.fingerprint(["b", "a"])


def test_reference_fingerprints_cover_their_cells():
    ref = workloads.load_reference()
    assert set(ref["cells"]) == set(workloads.WORKLOADS)
    for name, digests in ref["cells"].items():
        assert workloads.fingerprint(digests) == ref["fingerprints"][name]


def test_golden_digests_equal_the_pinned_ones():
    pinned = (ROOT / "tests" / "exp" / "test_determinism.py").read_text()
    golden = workloads.load_reference()["golden"]
    assert set(golden) == set(workloads.GOLDEN_CELLS)
    for name, digest in golden.items():
        assert re.search(rf'"{re.escape(name)}":\s*"{digest}"', pinned), name


def test_cap_sweep_shape():
    cells = workloads.cap_sweep_cells()
    assert len(cells) == 72
    assert len({workloads.lockstep_group(sc) for sc in cells}) == 6
    wl = workloads.CapSweep(0, Path("."))
    assert wl.cells == cells + cells
    problems = wl.golden_problems(
        workloads.Outcome(digests=["0" * 64] * 144, events=0),
        {name: "1" * 64 for name in workloads.GOLDEN_CELLS},
    )
    # Every golden cell is found in both sweeps, and its wrong digest reported.
    assert len(problems) == 6 and all("differs" in p for p in problems)


def test_seed_offsets_every_scenario():
    cells = workloads.cap_sweep_cells()
    assert workloads.with_seed(cells, 0) == cells
    per_cell = workloads.with_seed(cells, 7)
    offsets = [b.effective_seed - a.effective_seed for a, b in zip(cells, per_cell)]
    assert offsets == [7000 + i for i in range(72)]
    grouped = workloads.with_seed(cells, 7, unit=workloads.lockstep_group, stream_set=1)
    offsets = [b.effective_seed - a.effective_seed for a, b in zip(cells, grouped)]
    # One stream per lockstep group of 12, distinct across the 6 groups.
    assert offsets == [7100 + g for g in range(6) for _ in range(12)]


def test_replay_full_streams():
    day = workloads.get_scenario("fig6-24h-mix-40").with_(scale=1.0)
    assert workloads.ReplayFull(0, Path(".")).cells == [day] * workloads.REPLAY_STREAMS
    seeds = [sc.effective_seed for sc in workloads.ReplayFull(7, Path(".")).cells]
    assert seeds == [day.effective_seed + 7000 + 100 * k for k in range(workloads.REPLAY_STREAMS)]


# -- declared metrics -------------------------------------------------------------------


def test_printed_metrics_are_declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# -- reduced-size smoke runs ------------------------------------------------------------


def _small(wl: workloads.Workload) -> workloads.Workload:
    """The workload on 90-node, short cells (same code paths)."""
    small = {
        "replay-full": [Scenario.paper_cell("24h", "MIX", 0.4, scale=1 / 56, duration=13 * HOUR)],
        "cap-sweep": [
            Scenario.paper_cell(interval, policy, cap, scale=1 / 56, duration=2 * HOUR)
            for interval in ("medianjob", "smalljob")
            for policy in ("IDLE", "MIX")
            for cap in (0.40, 0.60)
        ],
    }
    if isinstance(wl, workloads.ReplayFull):
        wl.cells = [
            sc
            for k in range(workloads.REPLAY_STREAMS)
            for sc in workloads.with_seed(small[wl.name], wl.seed, stream_set=k)
        ]
    else:
        wl.sweeps = [
            workloads.with_seed(small[wl.name], wl.seed, unit=workloads.lockstep_group, stream_set=k)
            for k in range(wl.n_sweeps)
        ]
    return wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_timed_iteration(name, tmp_path):
    wl = _small(workloads.WORKLOADS[name](3, tmp_path))
    wl.prepare()
    metrics, outcomes = run.timed_run(wl, seconds=0.0)
    assert len(outcomes) == 1
    out = outcomes[0]
    assert out.failed_cells == 0 and not out.problems
    assert out.events > 0
    assert wl.crosscheck(out) == []
    assert all(metrics[m] > 0 for m in ("wall_s", "cpu_s", "sim_node_h_per_s", "peak_rss_mb"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(name, tmp_path):
    exact = (
        "sim.events",
        "rjms.passes",
        "core.decide_calls",
        "rjms.starts",
        "sim.batch.warm_groups",
        "exp.xfer.shm_bytes",
        "exp.xfer.fallbacks",
    )
    runs = []
    for k in range(2):
        wl = _small(workloads.WORKLOADS[name](0, tmp_path / f"w{k}"))
        metrics, outcomes = run.traced_run(wl, tmp_path / f"trace{k}")
        assert set(metrics) == set(layers.PER_LAYER_UNITS)
        assert outcomes[0].digests == outcomes[1].digests
        runs.append(metrics)
    assert {m: runs[0][m] for m in exact} == {m: runs[1][m] for m in exact}
    # Each pickled envelope carries the backend's shm segment prefix,
    # which holds a per-process sequence number: one more hex digit
    # adds a byte per envelope.
    assert abs(runs[0]["exp.xfer.pipe_bytes"] - runs[1]["exp.xfer.pipe_bytes"]) <= len(wl.cells)
    assert runs[0]["sim.events"] > 0 and runs[0]["core.decide_calls"] > 0
    if name != "replay-full":
        assert runs[0]["exp.sweep_s"] > 0 and runs[0]["exp.lpt_imbalance"] >= 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
