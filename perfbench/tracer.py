"""Outside-in span tracing: timing shims on the program's public calls.

The benchmark never edits ``src/``.  For a traced run it replaces a
fixed list of public functions and methods with thin wrappers that
record one span per call — name, start, end, the enclosing span and the
timed phase it fell in — into flat in-memory columns.  Spans nest
because the benchmark is single-threaded, so a span's parent is simply
the innermost span still open when it started.

:func:`self_times` turns the columns into each span's self time: its
duration minus the part of it that its child spans cover.
:meth:`Tracer.write_chrome_trace` writes the spans as Chrome trace
JSON (``"ph": "X"`` complete events, microsecond timestamps), the
format :mod:`repro.monitor` exports.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter
_INHERITED = object()


class Tracer:
    """In-memory span recorder with install/uninstall of timing shims."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.phase = array("q")
        self._stack: list[int] = []
        self._phase = -1
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(_clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        sid = self._open(self._name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    @contextmanager
    def phase_span(self, label: str):
        """A top-level span that also tags every span inside it."""
        with self.span(f"phase:{label}") as sid:
            outer, self._phase = self._phase, sid
            try:
                yield sid
            finally:
                self._phase = outer

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so every call records a span ``name``."""
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        def shim(*args, **kwargs):
            sid = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(sid)

        shim.__wrapped__ = fn
        return shim

    def install(self, targets) -> None:
        """Replace each ``(owner, attribute, span name)`` with a shim."""
        for owner, attr, name in targets:
            # A class keeps its own __dict__ entry (or none, when the
            # method is inherited) so uninstall restores exactly that.
            original = vars(owner).get(attr, _INHERITED)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        """The span columns as numpy arrays (names as integer ids)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "phase": np.frombuffer(self.phase, dtype=np.int64).copy(),
        }

    def write_chrome_trace(self, path, max_events: int = 200_000) -> dict:
        """Write spans as Chrome trace JSON; returns written/dropped counts.

        Phase spans are always written; the rest in start order up to
        ``max_events`` so a long run stays loadable in a trace viewer.
        """
        cols = self.columns()
        n = len(cols["start"])
        is_phase = np.array(
            [self.names[i].startswith("phase:") for i in range(len(self.names))],
            dtype=bool,
        )
        keep = np.flatnonzero(is_phase[cols["name"]]) if n else np.empty(0, int)
        rest = np.flatnonzero(~is_phase[cols["name"]]) if n else np.empty(0, int)
        keep = np.sort(np.concatenate([keep, rest[: max(0, max_events - len(keep))]]))
        t0 = cols["start"].min() if n else 0.0
        events = [
            {
                "name": self.names[cols["name"][i]],
                "ph": "X",
                "ts": round((cols["start"][i] - t0) * 1e6, 3),
                "dur": round((cols["end"][i] - cols["start"][i]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "span": int(i),
                    "parent": int(cols["parent"][i]),
                    "phase": int(cols["phase"][i]),
                },
            }
            for i in keep.tolist()
        ]
        summary = {"spans": n, "written": len(events), "dropped": n - len(events)}
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": summary}, fh)
        return summary


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once, so a span whose children tile it has zero self
    time whatever order or overlap they were recorded in.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return duration.copy()
    p = parent[kids]
    lo = np.maximum(start[kids], start[p])
    hi = np.minimum(end[kids], end[p])
    ok = hi > lo
    p, lo, hi = p[ok], lo[ok], hi[ok]
    order = np.lexsort((lo, p))
    p, lo, hi = p[order], lo[order] - start.min(), hi[order] - start.min()
    # Union length per parent: sweep children in start order, counting
    # only the part of each that extends past the furthest end so far.
    covered = np.zeros(len(start))
    if p.size:
        group_start = np.r_[True, p[1:] != p[:-1]]
        # Running max of end within each parent group: shifting group g
        # by g * (span of all times) keeps groups from seeing each other.
        gid = np.cumsum(group_start) - 1
        offset = gid * (hi.max() + 1.0)
        running = np.maximum.accumulate(hi + offset) - offset
        prev = np.r_[-np.inf, running[:-1]]
        prev[group_start] = -np.inf
        piece = hi - np.maximum(lo, prev)
        np.add.at(covered, p, np.clip(piece, 0.0, None))
    return duration - covered
