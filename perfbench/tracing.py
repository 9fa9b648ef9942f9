"""Spans and counters recorded around calls into the program.

The benchmark never edits ``src/``: a :class:`Tracer` replaces public
functions and methods of the ``repro`` packages with thin wrappers
that record one span per call (name, start, end, parent span) into
flat in-memory arrays, and puts the originals back on
:meth:`Tracer.uninstall`.

Pool workers are forked from the main process, so they inherit the wrappers.
After the fork a worker drops the main process's spans, records its own,
and writes them to ``<out_dir>/worker-<pid>-<ns>.npz`` once, when the
worker process exits; :meth:`Tracer.collect` reads those files back.

A layer's self time is its spans' duration minus the part covered by
their direct child spans (:func:`self_seconds`).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np


@dataclass
class SpanSet:
    """The spans of one process, as parallel arrays.

    ``parent`` holds the index of the enclosing span, ``-1`` for a
    root span; times are ``perf_counter_ns`` readings of that process.
    """

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    pid: int

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, int, int, int]], pid: int = 0
    ) -> "SpanSet":
        """Build from ``(name, start_ns, end_ns, parent_index)`` rows."""
        rows = list(records)
        names = sorted({r[0] for r in rows})
        ids = {n: i for i, n in enumerate(names)}
        return cls(
            names=names,
            name=np.array([ids[r[0]] for r in rows], dtype=np.int64),
            start=np.array([r[1] for r in rows], dtype=np.int64),
            end=np.array([r[2] for r in rows], dtype=np.int64),
            parent=np.array([r[3] for r in rows], dtype=np.int64),
            pid=pid,
        )

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            pid=np.array(self.pid),
        )

    @classmethod
    def load(cls, path: Path) -> "SpanSet":
        with np.load(path) as z:
            return cls(
                names=json.loads(str(z["names"])),
                name=z["name"],
                start=z["start"],
                end=z["end"],
                parent=z["parent"],
                pid=int(z["pid"]),
            )

    def __len__(self) -> int:
        return len(self.name)


def total_seconds(spans: SpanSet) -> dict[str, float]:
    """Summed span duration per name, in seconds."""
    dur = (spans.end - spans.start).astype(np.float64)
    sums = np.bincount(spans.name, weights=dur, minlength=len(spans.names))
    return {n: float(s) / 1e9 for n, s in zip(spans.names, sums)}


def call_counts(spans: SpanSet) -> dict[str, int]:
    counts = np.bincount(spans.name, minlength=len(spans.names))
    return {n: int(c) for n, c in zip(spans.names, counts)}


def self_seconds(spans: SpanSet) -> dict[str, float]:
    """Self time per name: each span minus its direct children, summed."""
    dur = (spans.end - spans.start).astype(np.float64)
    covered = np.zeros_like(dur)
    nested = spans.parent >= 0
    np.add.at(covered, spans.parent[nested], dur[nested])
    sums = np.bincount(
        spans.name, weights=dur - covered, minlength=len(spans.names)
    )
    return {n: float(s) / 1e9 for n, s in zip(spans.names, sums)}


def root_seconds(spans: SpanSet) -> float:
    """Time covered by root spans: the busy time of a worker."""
    dur = spans.end - spans.start
    return float(dur[spans.parent < 0].sum()) / 1e9


class Tracer:
    """Installs span/count wrappers and owns what they record."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording --------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recording one span per call.

        A call made while a span of the same name is innermost (a
        subclass calling ``super()``) records nothing, so each logical
        call counts once.
        """
        nid = self._name_id(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        open_ = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if open_ and names[open_[-1]] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced

    def _spanned_generator(
        self, fn: Callable[..., Any], name: str
    ) -> Callable[..., Any]:
        """A generator function whose every resumption is one span."""
        step = self._spanned(next, name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            gen = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = step(gen)
                    except StopIteration as stop:
                        return stop.value
                    yield item
            finally:
                gen.close()

        return traced

    def _counted(
        self, fn: Callable[..., Any], name: str, amount: Callable[..., int]
    ) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counts[name] += amount(result, *args, **kwargs)
            return result

        return traced

    # -- installing -------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        self._patch(owner, attr, self._spanned(owner.__dict__[attr], name))

    def span_generator(self, owner: Any, attr: str, name: str) -> None:
        self._patch(
            owner, attr, self._spanned_generator(owner.__dict__[attr], name)
        )

    def span_class_tree(self, base: type, attr: str, name: str) -> None:
        """Span ``attr`` on ``base`` and on every subclass overriding it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.span(cls, attr, name)
            todo.extend(cls.__subclasses__())

    def count(
        self, owner: Any, attr: str, name: str, amount: Callable[..., int]
    ) -> None:
        """Add ``amount(result, *args, **kwargs)`` to counter ``name``
        after every call of ``owner.attr``."""
        self._patch(
            owner, attr, self._counted(owner.__dict__[attr], name, amount)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output -----------------------------------------------------------------------

    def spans(self) -> SpanSet:
        """This process's spans; call it when no traced call is running."""
        if self._open:
            raise RuntimeError("a traced call is still running")
        return SpanSet(
            names=list(self.names),
            name=np.array(self._name, dtype=np.int64),
            start=np.array(self._start, dtype=np.int64),
            end=np.array(self._end, dtype=np.int64),
            parent=np.array(self._parent, dtype=np.int64),
            pid=os.getpid(),
        )

    def clear(self) -> None:
        for buf in (self._name, self._start, self._end, self._parent):
            del buf[:]
        self._open.clear()
        self.counts.clear()

    def _after_fork(self) -> None:
        # A forked pool worker: forget the main process's spans and write this
        # worker's own once, when it exits.
        self.clear()
        if self.installed:
            multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"worker-{os.getpid()}-{time.perf_counter_ns()}"
        self.spans().save(self.out_dir / f"{stem}.npz")
        (self.out_dir / f"{stem}.counts.json").write_text(json.dumps(self.counts))

    def collect(self) -> tuple[list[SpanSet], dict[str, int]]:
        """Main-process spans plus every worker's, and the summed counters.

        Worker files are consumed (deleted) as they are read.
        """
        sets = [self.spans()]
        counts: dict[str, int] = defaultdict(int, self.counts)
        for path in sorted(self.out_dir.glob("worker-*.npz")):
            sets.append(SpanSet.load(path))
            extra = path.with_name(path.name[: -len(".npz")] + ".counts.json")
            for key, value in json.loads(extra.read_text()).items():
                counts[key] += int(value)
            path.unlink()
            extra.unlink()
        return sets, dict(counts)
