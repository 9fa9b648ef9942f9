"""The benchmark's workloads: fixed inputs, offset only by the seed.

* ``replay-full`` — library scenario ``fig6-24h-mix-40`` at full Curie
  scale (5,040 nodes, 24 h, MIX, a 1 h 40 % cap) for two job streams,
  replayed in-process one after the other: ``build_machine`` ->
  ``build_workload`` -> ``run_replay`` -> ``trace_digest``.
* ``cap-sweep`` — 72 cells, {medianjob, smalljob} x {IDLE, DVFS, MIX}
  x 12 cap fractions at 90 nodes, in 6 lockstep groups on the
  ``batch-pool`` backend with a fresh checkpoint store; swept twice
  per iteration, each sweep followed by the results-grid rendering
  and an all-hit second sweep that reloads every cell's series.

Seed 0 keeps the paper's interval seeds, whose digests are committed
in ``reference.json``; any other seed offsets every scenario's seed
(:func:`with_seed`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.exp import (
    DirectoryCheckpointStore,
    DirectoryStore,
    GridRunner,
    Scenario,
    get_scenario,
    make_backend,
    run_scenario,
)
from repro.exp import aggregate, runner
from repro.sim.replay import run_replay

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: pool workers of every sweep (the reference host has two cores)
WORKERS = 2

#: cap fractions of ``cap-sweep``, as two-decimal literals so that
#: 0.40/0.55/0.45 hash-identically equal the library cells
CAP_FRACTIONS = (0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85)
CAP_SWEEP_SCALE = 1 / 56

#: library scenarios that ``cap-sweep`` contains, checked against the
#: golden digests the determinism tests pin
GOLDEN_CELLS = ("fig7b-smalljob-dvfs-40", "rho-floor-dvfs-55", "rho-combined-mix-45")


def with_seed(
    scenarios: Sequence[Scenario],
    seed: int,
    *,
    unit: Callable[[Scenario], Any] = Scenario.scenario_hash,
    stream_set: int = 0,
) -> list[Scenario]:
    """Seed 0 keeps the scenarios; another seed offsets each one's.

    The offset is ``1000 * seed + 100 * stream_set + u``, where ``u``
    numbers the execution units in input order (``unit`` maps a cell
    to its unit, by default the cell itself; cells of one lockstep
    group must share a job stream).
    Every unit draws its own stream, so a run's cost averages over many
    streams instead of hanging on the one or two of the paper's seeds.
    """
    if seed == 0:
        return list(scenarios)
    units: dict[Any, int] = {}
    out = []
    for sc in scenarios:
        u = units.setdefault(unit(sc), len(units))
        out.append(sc.with_(seed=sc.effective_seed + 1000 * seed + 100 * stream_set + u))
    return out


def lockstep_group(sc: Scenario) -> str:
    """The cap-free scenario: cells that differ only in caps."""
    return sc.with_(caps=()).scenario_hash()


def fingerprint(digests: Sequence[str]) -> str:
    """sha256 over the cells' trace digests, in input order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_reference() -> dict[str, Any]:
    return json.loads(REFERENCE.read_text())


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Outcome:
    """What one iteration produced."""

    #: trace digest per cell, in input order; "" for a failed cell
    digests: list[str]
    #: simulated events over all cells
    events: int
    #: the iteration's sweep reports
    reports: list[Any] = field(default_factory=list)
    #: failed output checks, one line each
    problems: list[str] = field(default_factory=list)
    store_bytes: int = 0

    @property
    def failed_cells(self) -> int:
        return sum(1 for d in self.digests if not d)


class Workload:
    """One workload: its cells, set-up, timed iteration and checks."""

    name = ""
    cells: list[Scenario]
    #: runs in the benchmark's own process only (no pool workers)
    single_process = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    @property
    def node_hours(self) -> float:
        """Simulated node-hours: sum over cells of nodes x hours."""
        return sum(
            sc.build_machine().n_nodes * sc.effective_duration / 3600.0
            for sc in self.cells
        )

    @property
    def cell_duration(self) -> float:
        return self.cells[0].effective_duration

    def prepare(self) -> None:
        """Set-up paid once per process, before the first timed call."""

    def before_iteration(self, k: int) -> None:
        """Untimed per-iteration preparation (fresh stores)."""

    def for_trace(self) -> None:
        """Narrow the iteration to what the traced run covers."""

    def iteration(self) -> Outcome:
        raise NotImplementedError

    def crosscheck(self, outcome: Outcome) -> list[str]:
        """Untimed checks of an outcome against an independent path."""
        return []

    def crosscheck_cells(self, outcome: Outcome, indices: Sequence[int]) -> list[str]:
        """Re-run cells through the in-process solo path and compare."""
        problems = []
        for i in indices:
            solo = run_scenario(self.cells[i]).trace_digest
            if solo != outcome.digests[i]:
                problems.append(
                    f"cell {i} ({self.cells[i].name}): in-process replay digest "
                    f"{solo[:16]} != workload digest {outcome.digests[i][:16]}"
                )
        return problems


def _sweep_digests(cells: Sequence[Scenario], report: Any) -> list[str]:
    by_hash = {r.scenario_hash: r.trace_digest for r in report.results}
    return [by_hash.get(sc.scenario_hash(), "") for sc in cells]


#: job streams that ``replay-full`` replays per iteration
REPLAY_STREAMS = 2


class ReplayFull(Workload):
    """Full-scale day replays, one per job stream, in one iteration.

    At seed 0 every replay is the paper's stream; at another seed each
    draws its own, so that one run averages over two days of jobs.
    """

    name = "replay-full"
    single_process = True

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        day = get_scenario("fig6-24h-mix-40").with_(scale=1.0)
        self.cells = [
            sc for k in range(REPLAY_STREAMS) for sc in with_seed([day], seed, stream_set=k)
        ]

    def for_trace(self) -> None:
        # One day keeps the traced run (one untraced plus one traced
        # iteration) well inside its time limit; its per-layer counts
        # then describe one day's replay.
        self.cells = self.cells[:1]

    def prepare(self) -> None:
        self.inputs = []
        for sc in self.cells:
            machine = sc.build_machine()
            self.inputs.append((sc, machine, sc.build_jobs(machine)))

    def iteration(self) -> Outcome:
        outcome = Outcome(digests=[], events=0)
        for sc, machine, jobs in self.inputs:
            result = run_replay(
                machine,
                jobs,
                sc.build_policy(machine),
                duration=sc.effective_duration,
                powercaps=sc.build_caps(machine),
                config=sc.build_config(),
            )
            outcome.digests.append(runner.trace_digest(result.recorder))
            outcome.events += result.controller.engine.processed_events
            energy, work = result.energy_normalized(), result.work_normalized()
            if not (0.0 < energy <= 1.0 and 0.0 < work <= 1.0):
                outcome.problems.append(
                    f"{sc.name}: normalised energy {energy} / work {work} outside (0, 1]"
                )
            if not 0 < result.launched_jobs() <= result.n_submitted:
                outcome.problems.append(
                    f"{sc.name}: {result.launched_jobs()} launched of {result.n_submitted} submitted"
                )
        return outcome


def _reload_problems(
    cells: Sequence[Scenario], digests: list[str], text: str, reload: Any, series: list[Any]
) -> list[str]:
    """Checks of a sweep's rendering and of its all-hit second sweep."""
    problems = []
    if not text.strip():
        problems.append("empty results-grid rendering")
    if reload.n_hits != len(cells) or reload.n_executed:
        problems.append(f"second sweep: {reload.n_hits} hits, {reload.n_executed} executed")
    if _sweep_digests(cells, reload) != digests:
        problems.append("stored results differ from the sweep's")
    n_steps = {len(s["time"]) for s in series if s is not None and "time" in s}
    if any(s is None for s in series) or len(n_steps) != 1:
        problems.append("a cell's series is missing or misshapen")
    return problems


def cap_sweep_cells() -> list[Scenario]:
    return [
        Scenario.paper_cell(interval, policy, fraction, scale=CAP_SWEEP_SCALE)
        for interval in ("medianjob", "smalljob")
        for policy in ("IDLE", "DVFS", "MIX")
        for fraction in CAP_FRACTIONS
    ]


class CapSweep(Workload):
    """Two sweeps of the 72 cells per iteration, each with fresh stores
    and followed by the rendering and an all-hit reload.

    At seed 0 both sweeps replay the paper's streams; at another seed
    they draw two independent stream sets, so that one run averages
    over 12 job streams rather than 6.
    """

    name = "cap-sweep"
    n_sweeps = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sweeps = [
            with_seed(cap_sweep_cells(), seed, unit=lockstep_group, stream_set=k)
            for k in range(self.n_sweeps)
        ]
        self.before_iteration(0)

    @property
    def cells(self) -> list[Scenario]:
        return [sc for sweep in self.sweeps for sc in sweep]

    def before_iteration(self, k: int) -> None:
        self.store_root = self.workdir / f"cap-{k}"

    def iteration(self) -> Outcome:
        outcome = Outcome(digests=[], events=0)
        for j, cells in enumerate(self.sweeps):
            root = self.store_root / str(j)
            with GridRunner(
                backend=make_backend("batch-pool", workers=WORKERS),
                store=DirectoryStore(root / "results"),
                series=True,
                checkpoints=DirectoryCheckpointStore(root / "checkpoints"),
                on_error="skip",
            ) as grid:
                report = grid.sweep(cells)
                text = aggregate.render_results_grid(report.results)
                reload = grid.sweep(cells)
                series = [grid.load_series(sc) for sc in cells]
            digests = _sweep_digests(cells, report)
            outcome.digests += digests
            outcome.events += sum(r.n_events for r in report.results)
            outcome.reports += [report, reload]
            outcome.problems += _reload_problems(cells, digests, text, reload, series)
        outcome.store_bytes = dir_bytes(self.store_root)
        return outcome

    def for_trace(self) -> None:
        # One sweep keeps the traced run (one untraced plus one traced
        # iteration) well inside its time limit; its per-layer counts
        # then describe one 72-cell sweep.
        self.sweeps = self.sweeps[:1]

    def golden_problems(self, outcome: Outcome, golden: dict[str, str]) -> list[str]:
        """The cells equal to library scenarios against their pinned digests."""
        problems = []
        for name in GOLDEN_CELLS:
            lib = get_scenario(name).with_(scale=CAP_SWEEP_SCALE).scenario_hash()
            found = [i for i, sc in enumerate(self.cells) if sc.scenario_hash() == lib]
            if not found:
                problems.append(f"golden {name}: no hash-identical cell")
            problems += [
                f"golden {name}: cell {i} digest {outcome.digests[i][:16]} differs"
                for i in found
                if outcome.digests[i] != golden[name]
            ]
        return problems

    def crosscheck(self, outcome: Outcome) -> list[str]:
        # A warm-started IDLE cell of the first sweep, a cold-forked
        # MIX cell of the last.
        return self.crosscheck_cells(outcome, [0, len(self.cells) - 1])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ReplayFull, CapSweep)
}
