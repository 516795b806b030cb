"""Outside-in layer spans: wrappers around the program's public calls.

Nothing inside ``src/`` is edited.  :func:`install` replaces a fixed set of
public functions and methods with thin wrappers that record one span per
call: ``(name, parent, start_ns, end_ns)`` on ``time.monotonic_ns`` (the
same clock in every process on the host, so server spans line up with the
driver's timestamps).  The parent is the innermost open span of the
current thread or asyncio task -- tracked with a ``ContextVar`` -- so a
call made inside another wrapped call becomes its child and self time is
the span's duration minus its children's.

Spans stay in memory until :meth:`Recorder.dump` (or until the in-process
workload reads them), which keeps the recorded path free of I/O.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict

# Id of the innermost open span in this thread or asyncio task (-1: none).
_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)


class Recorder:
    """Collects spans from installed wrappers; see module docs."""

    def __init__(self) -> None:
        # Parallel lists keep a span at four small objects; a traced
        # server records tens of thousands of them.
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        span_id = len(self.names)
        self.names.append(name)
        self.parents.append(_CURRENT.get())
        self.starts.append(time.monotonic_ns())
        self.ends.append(0)
        return span_id, _CURRENT.set(span_id)

    def _close(self, span_id: int, token: contextvars.Token) -> None:
        self.ends[span_id] = time.monotonic_ns()
        _CURRENT.reset(token)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) in place."""
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                span_id, token = recorder._open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    recorder._close(span_id, token)

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span_id, token = recorder._open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    recorder._close(span_id, token)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every wrapped attribute back (newest first)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every finished span as JSON (the serve entry point's output)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "parents": self.parents,
                    "starts": self.starts,
                    "ends": self.ends,
                },
                fh,
            )


#: ``(module path, attribute path, span name)`` of every wrapped public call.
#: The span names are the layer names the benchmark reports.
WRAPPED = (
    ("repro.core.engine", "NMEngine.__init__", "engine.index_build"),
    ("repro.core.engine", "NMEngine.nm_batch", "engine.nm_batch"),
    ("repro.core.engine", "NMEngine.singular_nm_table", "engine.singular_table"),
    ("repro.core.trajpattern", "TrajPatternMiner.mine", "miner.mine"),
    ("repro.core.topk", "PatternBook.update_omega", "topk.book"),
    ("repro.core.topk", "PatternBook.high_patterns", "topk.book"),
    ("repro.core.topk", "PatternBook.low_patterns", "topk.book"),
    ("repro.core.topk", "PatternBook.partners_by_length", "topk.book"),
    ("repro.core.topk", "PatternBook.membership", "topk.book"),
    # The miner calls the name it imported into its own module.
    ("repro.core.trajpattern", "prune_low_patterns", "pruning.prune"),
    ("repro.core.incremental", "IncrementalIndexer.append", "incremental.append"),
    ("repro.core.incremental", "IncrementalIndexer.evict", "incremental.evict"),
    ("repro.serve.snapshot", "ServingSnapshot.load", "snapshot.load"),
    ("repro.serve.snapshot", "SnapshotStore.swap", "snapshot.swap"),
    ("repro.serve.protocol", "decode_line", "protocol.decode"),
    ("repro.serve.protocol", "parse_score", "protocol.parse"),
    ("repro.serve.protocol", "encode", "protocol.encode"),
    ("repro.serve.batcher", "MicroBatcher.submit", "batcher.submit"),
)


def install(recorder: Recorder) -> Recorder:
    """Wrap every call in :data:`WRAPPED`; returns ``recorder``."""
    import importlib

    for module_name, attr_path, span_name in WRAPPED:
        owner: object = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        recorder.wrap(owner, attr, span_name)
    return recorder


def load(path: str) -> dict:
    """Read a span file written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_times(spans: dict, lo_ns: int = 0, hi_ns: int = 1 << 62) -> dict:
    """Per-name ``{"count", "total_ns", "self_ns"}`` of spans starting in
    ``[lo_ns, hi_ns)``.  Self time is duration minus the children's."""
    names, parents = spans["names"], spans["parents"]
    starts, ends = spans["starts"], spans["ends"]
    child_ns = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0 and ends[i]:
            child_ns[parent] += ends[i] - starts[i]
    out: dict = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
    for i, name in enumerate(names):
        if not ends[i] or not lo_ns <= starts[i] < hi_ns:
            continue
        entry = out[name]
        duration = ends[i] - starts[i]
        entry["count"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns[i]
    return dict(out)


def root_total_ns(spans: dict, names, lo_ns: int, hi_ns: int) -> int:
    """Summed duration of top-level spans called one of ``names`` that start
    in ``[lo_ns, hi_ns)``; nested spans are inside their root's time."""
    return sum(
        e - s
        for n, p, s, e in zip(
            spans["names"], spans["parents"], spans["starts"], spans["ends"]
        )
        if p < 0 and e and n in names and lo_ns <= s < hi_ns
    )


def intervals(spans: dict, name: str) -> list[tuple[int, int]]:
    """``(start_ns, end_ns)`` of every finished span called ``name``."""
    return [
        (s, e)
        for n, s, e in zip(spans["names"], spans["starts"], spans["ends"])
        if n == name and e
    ]


def snapshot(recorder: Recorder) -> dict:
    """The in-memory spans in :func:`load`'s format (copies the lists)."""
    return {
        "names": list(recorder.names),
        "parents": list(recorder.parents),
        "starts": list(recorder.starts),
        "ends": list(recorder.ends),
    }
