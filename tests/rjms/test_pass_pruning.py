"""The pruned scheduling pass against the plain one.

``Controller._sched_pass`` settles, once per pass, which candidates
can never get their nodes in it and hands only the others to the
frequency decision; it also reuses the power-constraint view across
passes and skips drained passes.  ``ReferenceController`` keeps the
plain pass — a fresh view, every candidate through ``_try_start`` with
its own decision, no drained fast path — as the oracle: both must
leave bit-identical traces and scheduler state.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.rjms.controller as controller_mod
from repro.cluster.curie import curie_machine
from repro.core.online import PowercapView
from repro.exp.runner import trace_digest
from repro.policy import policy_names
from repro.rjms.backfill import easy_backfill_window
from repro.rjms.config import PriorityWeights, SchedulerConfig
from repro.rjms.controller import Controller, _PassAllocator
from repro.rjms.job import JobState
from repro.rjms.reservations import PowercapReservation, ReservationRegistry
from repro.sim.engine import EventKind, SimEngine
from repro.sim.metrics import MetricsRecorder
from repro.workload.spec import JobSpec

HOUR = 3600.0
MACHINE = curie_machine(scale=1 / 56)  # 90 nodes


class ReferenceController(Controller):
    """The scheduling pass without pruning, view reuse or fast path."""

    def _sched_pass(self) -> None:
        self._pass_pending = False
        now = self.engine.now
        self._last_pass = now
        if self.freq_selector.tracks_observed and self.policy.enforces_caps:
            target = self.freq_selector.pass_rescale_watts(self.registry.cap_at(now))
            if target is not None and self.accountant.total_power() > target:
                self._rescale_running_jobs(target)
        if len(self.queue) == 0:
            return
        pending_sds = self._pending_shutdowns(now)
        alloc = _PassAllocator(self._free_idle_ids(), self._reserved_mask)
        registry = (
            self.registry if self.policy.enforces_caps else ReservationRegistry(0)
        )
        view = PowercapView(registry, self.accountant, now, self.running.values())
        window = None
        for jid in self.queue.order(now, limit=self.config.backfill_depth):
            job = self.queue.job(int(jid))
            started = self._try_start(job, now, view, alloc, pending_sds, window, {})
            if not started and window is None:
                window = controller_mod.easy_backfill_window(
                    job.n_nodes,
                    alloc.free_total,
                    self._running_snapshot_sorted(),
                    now,
                    presorted=True,
                )
                if not self.config.backfill:
                    break
            if alloc.free_total == 0:
                break


def replay(cls, jobs, policy, *, caps=(), config=None, duration=3 * HOUR):
    engine = SimEngine()
    recorder = MetricsRecorder(MACHINE.freq_table.frequencies)
    ctrl = cls(
        MACHINE, policy, engine, config=config, powercaps=caps, recorder=recorder
    )
    for spec in jobs:
        engine.at(
            spec.submit_time,
            lambda s=spec: ctrl.submit(s),
            kind=EventKind.JOB_SUBMIT,
        )
    engine.run(until=duration)
    recorder.finalize(duration)
    return ctrl


def assert_same_state(a: Controller, b: Controller) -> None:
    assert trace_digest(a.recorder) == trace_digest(b.recorder)
    assert {j: (x.start_time, x.freq_ghz) for j, x in a.jobs.items()} == {
        j: (x.start_time, x.freq_ghz) for j, x in b.jobs.items()
    }
    assert a.fairshare._last_decay == b.fairshare._last_decay
    assert np.array_equal(a.fairshare._usage, b.fairshare._usage)


def _examples(default: int) -> int:
    return max(int(os.environ.get("REPRO_FUZZ_EXAMPLES", default)), 1)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    jobs = []
    for jid in range(n):
        submit = draw(st.floats(min_value=0.0, max_value=2 * HOUR))
        cores = draw(st.integers(min_value=1, max_value=MACHINE.total_cores))
        runtime = draw(st.floats(min_value=1.0, max_value=HOUR))
        slack = draw(st.floats(min_value=1.0, max_value=50.0))
        user = draw(st.integers(min_value=0, max_value=3))
        jobs.append(JobSpec(jid, submit, cores, runtime, runtime * slack, user))
    jobs.sort(key=lambda j: (j.submit_time, j.job_id))
    return jobs


@st.composite
def cap_windows(draw):
    start = draw(st.floats(min_value=0.0, max_value=2 * HOUR))
    length = draw(st.floats(min_value=600.0, max_value=2 * HOUR))
    idle = MACHINE.idle_power() / MACHINE.max_power()
    fraction = draw(st.floats(min_value=idle + 0.03, max_value=0.95))
    return PowercapReservation(
        start, start + length, watts=fraction * MACHINE.max_power()
    )


@settings(
    max_examples=_examples(40),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    jobs=workloads(),
    cap=cap_windows(),
    policy=st.sampled_from(policy_names()),
    backfill=st.booleans(),
    backfill_depth=st.sampled_from([2, 100]),
    horizon=st.sampled_from([0.0, 1800.0, math.inf]),
    strict_future=st.booleans(),
    cluster_rule=st.booleans(),
    min_pass_interval=st.sampled_from([0.0, 60.0]),
)
def test_pruned_pass_matches_reference(
    jobs,
    cap,
    policy,
    backfill,
    backfill_depth,
    horizon,
    strict_future,
    cluster_rule,
    min_pass_interval,
):
    config = SchedulerConfig(
        backfill=backfill,
        backfill_depth=backfill_depth,
        reservation_drain_horizon=horizon,
        strict_future_caps=strict_future,
        # The TRACK selector refuses the cluster-rule ablation.
        cluster_frequency_rule=cluster_rule and policy != "TRACK",
        min_pass_interval=min_pass_interval,
    )
    got = replay(Controller, jobs, policy, caps=[cap], config=config)
    want = replay(ReferenceController, jobs, policy, caps=[cap], config=config)
    assert_same_state(got, want)


# -- edge cases ---------------------------------------------------------------------------


def build(policy="NONE", caps=(), cls=Controller, **cfg_kw):
    engine = SimEngine()
    config = SchedulerConfig(
        priority=PriorityWeights(age=1000, fairshare=0, job_size=0), **cfg_kw
    )
    ctrl = cls(MACHINE, policy, engine, config=config, powercaps=caps)
    return engine, ctrl


def submit(engine, ctrl, jid, t, n_nodes, runtime, walltime=None):
    cores = n_nodes * MACHINE.cores_per_node
    spec = JobSpec(jid, t, cores, runtime, walltime or max(runtime, HOUR))
    engine.at(t, lambda: ctrl.submit(spec), kind=EventKind.JOB_SUBMIT)


def spy_decide(ctrl) -> list[tuple[int, float]]:
    """Record the (n_nodes, walltime) of every frequency decision."""
    calls: list[tuple[int, float]] = []
    decide = ctrl.freq_selector.decide

    def spy(n_nodes, walltime, view):
        calls.append((n_nodes, walltime))
        return decide(n_nodes, walltime, view)

    ctrl.freq_selector.decide = spy
    return calls


def test_too_wide_candidate_never_reaches_decide():
    engine, ctrl = build()
    calls = spy_decide(ctrl)
    submit(engine, ctrl, 0, 0.0, 80, runtime=HOUR)
    submit(engine, ctrl, 1, 1.0, 20, runtime=60.0)  # 10 nodes free
    submit(engine, ctrl, 2, 2.0, 1, runtime=60.0)
    engine.run(until=10.0)
    assert ctrl.jobs[1].state == JobState.PENDING
    assert ctrl.jobs[2].state == JobState.RUNNING  # backfilled past job 1
    assert calls and all(n != 20 for n, _ in calls)


def test_candidate_needing_unavailable_clear_nodes_never_reaches_decide():
    cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=0.6 * MACHINE.max_power())
    engine, ctrl = build("SHUT", caps=[cap])
    (sd,) = ctrl.registry.shutdowns
    n_clear = MACHINE.n_nodes - sd.nodes.size
    assert 0 < n_clear < MACHINE.n_nodes
    calls = spy_decide(ctrl)
    # Crosses the shutdown window: clear nodes only, one too few.
    submit(engine, ctrl, 0, 0.0, n_clear + 1, runtime=60.0, walltime=4 * HOUR)
    submit(engine, ctrl, 1, 1.0, 1, runtime=60.0, walltime=HOUR)
    engine.run(until=10.0)
    assert ctrl.jobs[0].state == JobState.PENDING
    assert ctrl.jobs[1].state == JobState.RUNNING
    assert calls == [(1, HOUR)]


def test_candidate_ending_as_the_shutdown_starts_is_not_pruned():
    cap = PowercapReservation(2 * HOUR, 3 * HOUR, watts=0.6 * MACHINE.max_power())
    engine, ctrl = build("SHUT", caps=[cap])
    (sd,) = ctrl.registry.shutdowns
    n_clear = MACHINE.n_nodes - sd.nodes.size
    # Its expected end is the shutdown's start: no overlap, so it may
    # take reserved nodes.
    submit(engine, ctrl, 0, 0.0, n_clear + 1, runtime=60.0, walltime=sd.start)
    engine.run(until=10.0)
    assert ctrl.jobs[0].state == JobState.RUNNING


def _windows(cls, monkeypatch):
    """EASY windows computed by ``cls`` on a dead-head scenario."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(easy_backfill_window(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(controller_mod, "easy_backfill_window", recording)
    engine, ctrl = build(cls=cls)
    submit(engine, ctrl, 0, 0.0, 60, runtime=2 * HOUR)
    submit(engine, ctrl, 1, 0.0, 20, runtime=3 * HOUR)
    submit(engine, ctrl, 2, 1.0, 40, runtime=60.0)  # head: too wide
    submit(engine, ctrl, 3, 2.0, 5, runtime=60.0)
    submit(engine, ctrl, 4, 3.0, 4, runtime=60.0, walltime=5 * HOUR)
    engine.run(until=4.0)
    return seen, ctrl


def test_dead_head_gets_the_same_backfill_window(monkeypatch):
    got, ctrl = _windows(Controller, monkeypatch)
    want, ref = _windows(ReferenceController, monkeypatch)
    assert got == want
    assert got[-1].shadow_time == 2 * HOUR  # job 0's walltime frees 60
    assert_same_state(ctrl, ref)
    assert ctrl.jobs[3].state == JobState.RUNNING
    assert ctrl.jobs[4].state == JobState.RUNNING


def test_backfill_off_stops_at_a_dead_head():
    engine, ctrl = build(backfill=False)
    calls = spy_decide(ctrl)
    submit(engine, ctrl, 0, 0.0, 80, runtime=HOUR)
    submit(engine, ctrl, 1, 1.0, 20, runtime=60.0)
    submit(engine, ctrl, 2, 2.0, 1, runtime=60.0)
    engine.run(until=10.0)
    assert ctrl.jobs[2].state == JobState.PENDING
    assert calls == [(80, HOUR)]


def test_all_dead_pass_still_advances_fairshare_decay():
    engine, ctrl = build()
    ctrl.fairshare.seed_usage(np.linspace(1.0, 2.0, ctrl.fairshare.n_users))
    calls = spy_decide(ctrl)
    submit(engine, ctrl, 0, 0.0, 80, runtime=HOUR)
    submit(engine, ctrl, 1, 100.0, 20, runtime=60.0)
    submit(engine, ctrl, 2, 200.0, 30, runtime=60.0)
    engine.run(until=300.0)
    assert calls == [(80, HOUR)]
    assert ctrl.fairshare._last_decay == 200.0


@pytest.mark.parametrize("duration", [500.0, 2 * HOUR])
@pytest.mark.parametrize("backfill", [True, False])
def test_drained_fast_path_leaves_full_pass_state(backfill, duration):
    jobs = [
        JobSpec(0, 0.0, 16, 100.0, HOUR, 0),  # leaves usage behind
        JobSpec(1, 200.0, MACHINE.total_cores, HOUR, HOUR, 1),
        JobSpec(2, 300.0, 16, 60.0, HOUR, 2),  # drained passes from here
        JobSpec(3, 400.0, 32, 60.0, HOUR, 3),
    ]
    config = SchedulerConfig(backfill=backfill)
    got = replay(Controller, jobs, "NONE", config=config, duration=duration)
    want = replay(ReferenceController, jobs, "NONE", config=config, duration=duration)
    assert_same_state(got, want)
    if duration == 500.0:
        assert got.fairshare._last_decay == 400.0
