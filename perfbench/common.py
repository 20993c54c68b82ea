"""Shared pieces of the workloads: run context, open-loop timing
statistics, reference owners and the host/provenance record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

clock = time.perf_counter

#: The checkout the benchmark runs in; tracebacks are recorded relative
#: to it so records read the same on every machine.
ROOT = Path(__file__).resolve().parent.parent

#: Small integer codes for phase labels in per-lookup columns.
PHASE_CODES = {
    label: code
    for code, label in enumerate(
        ("warmup", "probe", "closed", "ref", *(f"rung{k}" for k in range(8)))
    )
}

#: Fewest samples a latency window needs for its p99 to rest on at
#: least ten samples beyond it.
MIN_WINDOW_SAMPLES = 1000


@dataclass
class Ctx:
    """Everything a workload needs from the command line."""

    seed: int
    seconds: float
    sizes: object
    workdir: Path
    tracer: object = None
    errors: list = field(default_factory=list)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def phase(self, label: str):
        return self.tracer.phase_span(label) if self.tracer is not None else nullcontext()

    def rngs(self, n: int) -> list[np.random.Generator]:
        """``n`` independent generators derived from the workload seed."""
        return [np.random.default_rng(s) for s in np.random.SeedSequence(self.seed).spawn(n)]

    def record_error(self, where: str) -> None:
        """Keep the traceback of an exception the run survived."""
        trace = traceback.format_exc(limit=6).replace(f"{ROOT}/", "")
        self.errors.append({"where": where, "traceback": trace})


class CapturingClock:
    """``perf_counter`` that remembers the last value it returned.

    Handed to :class:`repro.serving.ServingEngine` so the benchmark
    knows the exact enqueue time the engine stamped on a submitted
    chunk, and can time each lookup from when it was *due* instead.
    """

    __slots__ = ("last",)

    def __init__(self):
        self.last = 0.0

    def __call__(self) -> float:
        self.last = t = clock()
        return t


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson stream at ``rate`` over ``seconds``."""
    n = max(1, int(rate * seconds))
    gaps = rng.exponential(1.0 / rate, size=int(n * 1.1) + 64)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def quantile(values: np.ndarray, q: float) -> float:
    """An observed sample at quantile ``q`` (failed lookups are ``inf``)."""
    if len(values) == 0:
        return float("nan")
    return float(np.quantile(values, q, method="inverted_cdf"))


def window_latency(due: np.ndarray, latency: np.ndarray, info: dict) -> dict:
    """Latency percentiles of one open-loop rung.

    Each of the rung's segments (``info["segments"]``: start, seconds)
    is cut into consecutive windows of due time, each long enough for
    ``MIN_WINDOW_SAMPLES`` lookups at the offered rate.  A segment's
    figure is the median over its windows of the window's percentile,
    so one stall moves one window, not the figure; the rung's figure is
    the mean over its segments, which may sit at different points of a
    drifting workload (the route cache's eviction cost grows between
    dict resizes, so a median across all windows would jump between
    segments' levels).  The pooled percentiles over the whole rung are
    kept beside them.  ``latency`` holds ``inf`` for lookups that failed.
    ``info["window_s"]`` sets the window length (a workload with a
    periodic event uses its period, so every window sees one event).
    """
    out = {
        "samples": int(len(latency)),
        "pooled_p50_ms": quantile(latency, 0.5) * 1e3,
        "pooled_p99_ms": quantile(latency, 0.99) * 1e3,
        "pooled_p999_ms": quantile(latency, 0.999) * 1e3,
    }
    # Poisson counts scatter round their mean: size a window for 1.2x
    # the minimum, or about half of them would fall short and be dropped.
    width = max(info.get("window_s") or 0.25, 1.2 * MIN_WINDOW_SAMPLES / info["rate"])
    seg_p50, seg_p99, windows = [], [], []
    for t0, seconds in info["segments"]:
        n_windows = max(1, int(seconds // width))
        edges = np.linspace(t0, t0 + seconds, n_windows + 1)
        p50s, p99s = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = latency[(due >= lo) & (due < hi)]
            if len(sel) >= MIN_WINDOW_SAMPLES:
                p50s.append(quantile(sel, 0.5))
                p99s.append(quantile(sel, 0.99))
        if p99s:
            seg_p50.append(float(np.median(p50s)) * 1e3)
            seg_p99.append(float(np.median(p99s)) * 1e3)
            windows.append([round(v * 1e3, 4) for v in p99s])
    out["window_p99_ms"] = windows
    if seg_p99:
        out["p50_ms"] = float(np.mean(seg_p50))
        out["p99_ms"] = float(np.mean(seg_p99))
    else:  # too few samples for windows: fall back to the pooled figures
        out["p50_ms"] = out["pooled_p50_ms"]
        out["p99_ms"] = out["pooled_p99_ms"]
    return out


def backlog_grows(
    times: np.ndarray, backlog: np.ndarray, t0: float, t1: float, slack: int
) -> bool:
    """True when the mean backlog of the rung's last quarter exceeds the
    first quarter's by half again plus ``slack`` lookups."""
    times = np.asarray(times)
    backlog = np.asarray(backlog, dtype=float)
    quarter = (t1 - t0) / 4
    first = backlog[(times >= t0) & (times < t0 + quarter)]
    last = backlog[(times >= t1 - quarter) & (times < t1)]
    if len(first) == 0 or len(last) == 0:
        return bool(len(last) and last.mean() > slack)
    return bool(last.mean() > 1.5 * first.mean() + slack)


def nearest_owner(sorted_ids: np.ndarray, keys: np.ndarray, ring: bool) -> np.ndarray:
    """Index of the peer nearest each key, lower id on ties.

    Written here from ``searchsorted`` rather than imported, so answers
    are checked against an oracle that shares no code with the router.
    """
    ids = np.asarray(sorted_ids, dtype=float)
    keys = np.asarray(keys, dtype=float)
    n = len(ids)
    pos = np.searchsorted(ids, keys)
    if ring:
        lo, hi = (pos - 1) % n, pos % n
        d_lo = np.abs(ids[lo] - keys)
        d_lo = np.minimum(d_lo, 1.0 - d_lo)
        d_hi = np.abs(ids[hi] - keys)
        d_hi = np.minimum(d_hi, 1.0 - d_hi)
    else:
        lo, hi = np.clip(pos - 1, 0, n - 1), np.clip(pos, 0, n - 1)
        d_lo = np.abs(ids[lo] - keys)
        d_hi = np.abs(ids[hi] - keys)
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (ids[hi] < ids[lo]))
    return np.where(take_hi, hi, lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info(root: Path) -> dict:
    """Host, toolchain and code identity for the run record."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_digest": _src_digest(root / "src"),
    }


def _git_sha(root: Path) -> str | None:
    """HEAD's commit id read from ``.git`` (no subprocess), if present."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _src_digest(src: Path) -> str:
    """SHA-256 over the program's sources, so runs outside git still name
    the exact code they measured."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def evaluate_rung(info: dict, due, latency, done_at, lag=None) -> None:
    """Fill one rung's record: latency and achieved rate.

    ``info`` already holds the rung's ``rate`` and ``segments``;
    ``done_at`` is the completion time of each arrived lookup (``nan``
    otherwise).  The achieved rate is arrivals over the time from each
    segment's start to its last completion.
    """
    info.update(window_latency(due, latency, info))
    busy = 0.0
    for t0, seconds in info["segments"]:
        mine = done_at[(due >= t0) & (due < t0 + seconds) & np.isfinite(done_at)]
        busy += float(mine.max()) - t0 if len(mine) else 0.0
    arrived = int(np.isfinite(done_at).sum())
    info["completed_rate"] = arrived / busy if busy > 0 else 0.0
    if lag is not None:
        lag = lag[np.isfinite(lag)]
        info["lag_p99_ms"] = quantile(lag, 0.99) * 1e3 if len(lag) else 0.0
        info["lag_max_ms"] = float(lag.max()) * 1e3 if len(lag) else 0.0


def run_schedule(ctx, workload, rungs, passes: int) -> dict:
    """Run the timed phases, interleaved so slow spells of a shared host
    spread over every figure instead of landing on one.

    The run makes ``passes`` passes of one segment of the reference
    rung and one closed-loop unit, then runs the other rungs (the
    overloading ones) once each, last, so no figure is taken after an
    overload.  The reference segments go first in each pass, where the
    route cache's growing eviction cost (see ``NOTES.md``) has had the
    least work since warm-up.  Returns the phase records: ``closed``
    (the units), ``ref`` (the segments merged) and ``rung<i>``.
    """
    ref = next(r for r in rungs if r.reference)
    others = [r for r in rungs if not r.reference]
    units, segments, phases = [], [], {}
    for k in range(passes):
        with ctx.phase(f"ref{k}"):
            segments.append(workload.rung(ref, ref.share * ctx.seconds / passes, "ref"))
        with ctx.phase(f"closed{k}"):
            units.append(workload.closed_unit(k, passes))
    for k, rung in enumerate(others):
        with ctx.phase(f"rung{k}"):
            phases[f"rung{k}"] = workload.rung(rung, rung.share * ctx.seconds, f"rung{k}")
    # The slowest unit, not the median: the host this was written on
    # flips between two speed states about 40% apart, and a median over
    # units lands in either one (see NOTES.md).
    rates = [rate for unit in units for rate in unit["rates"]]
    closed = {"units": units, "rates": rates, "lookups_per_s": float(min(rates))}
    merged = {
        "rate": ref.rate,
        "reference": True,
        "seconds": sum(seg["seconds"] for seg in segments),
        "segments": [seg["segments"][0] for seg in segments],
        "window_s": segments[0].get("window_s"),
        "offered": sum(seg["offered"] for seg in segments),
        "backlog_max": max(seg["backlog_max"] for seg in segments),
        "grows": any(seg["grows"] for seg in segments),
    }
    if "restarts" in segments[0]:  # serving: engines replaced after a failure
        merged["restarts"] = sum(seg["restarts"] for seg in segments)
    return {"closed": closed, "ref": merged, **phases}


def batch_open_loop(ctx, due, route_batch, max_batch, drain_s, events=(), run_event=None):
    """Open-loop runner for batch routers: route whatever is due, in order.

    Each pass routes every lookup due by now (at most ``max_batch``) as
    one batch through ``route_batch(i, j)``; a scheduled event (a churn
    round) runs when its time comes and due lookups wait behind it.
    Returns the backlog samples and how many lookups were routed before
    the drain deadline.
    """
    n = len(due)
    events = list(events)
    last = max(due[-1] if n else 0.0, events[-1] if events else 0.0)
    deadline = last + drain_s
    times, backlog = [], []
    i = k = 0
    while True:
        now = clock()
        if now > deadline:
            break
        if k < len(events) and now >= events[k]:
            run_event()
            k += 1
            continue
        j = int(np.searchsorted(due, now, side="right"))
        if j > i:
            times.append(now)
            backlog.append(j - i)
            j = min(j, i + max_batch)
            route_batch(i, j)
            i = j
            continue
        if i >= n and k >= len(events):
            break
        following = min(due[i] if i < n else np.inf, events[k] if k < len(events) else np.inf)
        gap = following - now
        if gap > 2e-4:
            with ctx.span("harness.idle"):
                time.sleep(min(gap - 1e-4, 1e-3))
    return np.asarray(times), np.asarray(backlog), i
