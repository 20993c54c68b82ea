"""``serve-zipf`` and ``serve-unique``: the streaming engine off a snapshot.

Set-up builds the paper's skewed model from the seed, saves it with
:mod:`repro.store`, loads it back (memory-mapped) and serves from the
loaded copy, exactly as ``python -m repro serve --store`` does.  The
whole query stream is drawn during set-up, so the timed phases only
hand the engine arrays.

Timed phases (interleaved by :func:`perfbench.common.run_schedule`):

* **closed** — one chunk always queued, as ``ServingEngine.serve``
  keeps it: the throughput the engine can sustain.
* **rungs** — open-loop Poisson arrivals at fixed rates, each lookup
  timed from when it was *due*.  The reference rate gives the latency
  figures; the other rung overloads the engine on purpose.  An
  exception from the engine is recorded, every lookup it held counts
  as failed, and a fresh engine takes over so the rung still runs its
  full length.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro import telemetry
from repro.core import builder
from repro.distributions import PowerLaw
from repro.monitor import FlightRecorder, Monitor, MonitorConfig
from repro.serving import DemandModel, ServeConfig, ServingEngine
from repro.store import graph_store

from perfbench.common import (
    PHASE_CODES,
    CapturingClock,
    backlog_grows,
    clock,
    evaluate_rung,
    nearest_owner,
    poisson_offsets,
)
from perfbench.spec import ALPHA

AFFINITY = 0.8
TRACE_SAMPLE = 64
MONITOR_WINDOW = 4096
#: How long a rung may keep draining after its last arrival is due.
DRAIN_SECONDS = 0.5
#: Short latency windows, so a rare stall (the result log doubling, the
#: host preempting the process) spoils few of them and the median window
#: stays the engine's; the pooled figures keep the stalls.
WINDOW_SECONDS = 0.1


class Session:
    """One engine, plus the pool row, due time and phase of each ticket."""

    def __init__(self, ctx, graph, monitored: bool):
        self.ctx = ctx
        self.clock = CapturingClock()
        self.engine = ServingEngine(
            graph,
            ServeConfig(cache_capacity=ctx.sizes.serve_cache),
            clock=self.clock,
        )
        if monitored:
            monitor = Monitor(self.engine, MonitorConfig(window=MONITOR_WINDOW))
            self.engine.attach_monitor(monitor)
            self.engine.attach_recorder(FlightRecorder(self.engine, sample_rate=TRACE_SAMPLE))
        self.rows: list[np.ndarray] = []
        self.due: list[np.ndarray] = []
        self.enqueued: list[float] = []
        self.phase: list[int] = []
        self.evictions_at_start = 0

    @property
    def outstanding(self) -> int:
        return self.engine.pending + self.engine.in_flight

    def _log(self, rows, due, enqueued, phase) -> None:
        self.rows.append(rows)
        self.due.append(due)
        self.enqueued.append(enqueued)
        self.phase.append(PHASE_CODES[phase])

    def submit(self, rows, sources, keys, due, phase) -> bool:
        """Hand one chunk to the engine; False when the engine failed."""
        try:
            self.engine.submit(sources, keys)
        except Exception:
            self.ctx.record_error(f"ServingEngine.submit during {phase}")
            # The engine numbers a chunk before queueing it, so a chunk
            # lost in the queue still owns tickets: log it as never sent.
            logged = sum(len(r) for r in self.rows)
            if len(self.engine.results()) > logged:
                self._log(rows, due, np.nan, phase)
            return False
        self._log(rows, due, self.clock.last, phase)
        return True

    def pump(self) -> bool:
        try:
            self.engine.pump()
        except Exception:
            self.ctx.record_error("ServingEngine.pump")
            return False
        return True

    def outcomes(self) -> dict:
        """Per-ticket columns joined with what the benchmark sent."""
        res = self.engine.results()
        n = len(res)
        rows = np.concatenate(self.rows) if self.rows else np.empty(0, np.int64)
        lengths = [len(r) for r in self.rows]
        if len(rows) != n:
            raise RuntimeError(f"{n} tickets but {len(rows)} lookups logged")
        enq = np.repeat(np.asarray(self.enqueued, dtype=float), lengths)
        completed = res.completed.copy()
        return {
            "rows": rows,
            "due": np.concatenate(self.due) if self.due else np.empty(0),
            "phase": np.repeat(np.asarray(self.phase, dtype=np.int16), lengths),
            "completed": completed,
            "enqueued": enq,
            "done_at": np.where(completed, enq + res.latency_seconds, np.nan),
            "owners": res.owners.copy(),
            "success": res.success.copy(),
            "cache_hit": res.cache_hit.copy(),
            "hops": res.hops.copy(),
        }


class ServeWorkload:
    """Both serving workloads; ``unique`` picks the serve-unique traffic."""

    def __init__(self, ctx, unique: bool):
        self.ctx = ctx
        self.unique = unique
        self.name = "serve-unique" if unique else "serve-zipf"
        self.monitored = not unique
        self.sessions: list[Session] = []
        self.cursor = 0
        self.phases: dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        """Build, save, load, pre-draw and warm up (timed as set-up)."""
        ctx, sizes = self.ctx, self.ctx.sizes
        build_rng, traffic_rng, self.arrival_rng = ctx.rngs(3)
        self.sessions = []
        self.cursor = 0
        telemetry.disable()
        if self.monitored:
            telemetry.enable()
        graph = builder.build_skewed_model(PowerLaw(ALPHA), n=sizes.serve_n, rng=build_rng)
        path = ctx.workdir / f"{self.name}-graph"
        shutil.rmtree(path, ignore_errors=True)
        graph_store.save_graph(graph, path)
        del graph
        self.graph = graph_store.load_graph(path)
        with ctx.span("core.adjacency"):
            self.graph.adjacency  # noqa: B018 - the CSR is materialised here
        if self.unique:
            pool = sizes.unique_pool
            self.keys = PowerLaw(ALPHA).sample(pool, traffic_rng)
            self.sources = traffic_rng.integers(0, self.graph.n, size=pool)
        else:
            model = DemandModel(
                self.graph.ids, n_users=sizes.serve_users, n_peers=self.graph.n,
                rng=traffic_rng, affinity=AFFINITY,
            )
            _, self.sources, self.keys = model.draw(sizes.serve_pool, traffic_rng)
        self.session = self._new_session()
        warm = sizes.unique_warmup if self.unique else sizes.zipf_warmup
        self._closed(warm, phase="warmup")
        self.session.evictions_at_start = self._evictions(self.session)

    def _new_session(self) -> Session:
        session = Session(self.ctx, self.graph, self.monitored)
        self.sessions.append(session)
        return session

    def _restart(self) -> Session:
        """Replace a failed or abandoned engine with a fresh one."""
        self.session = self._new_session()
        return self.session

    def _take(self, m: int) -> np.ndarray:
        """The next ``m`` pool rows, wrapping round the pre-drawn stream."""
        rows = (self.cursor + np.arange(m)) % len(self.keys)
        self.cursor = int((self.cursor + m) % len(self.keys))
        return rows

    @staticmethod
    def _evictions(session) -> int:
        cache = session.engine.cache
        return cache.evictions if cache is not None else 0

    # -- closed loop ----------------------------------------------------
    def _closed(self, count: int, phase: str) -> dict:
        """Serve ``count`` lookups keeping one chunk queued.

        A fixed count (not a fixed time) keeps the cache's history, and
        so every later phase, the same from run to run.  Throughput is
        the completed lookups over the wall time to the last completion,
        as ``ServingEngine.serve`` reports it; per-slice rates are kept
        for the record.
        """
        chunk = max(4 * self.session.engine.config.admit_per_round, 8192)
        slices = 6
        started = clock()
        marks = [(started, 0)]
        sent = settled = done = 0  # settled: done, or lost with a failed engine
        while settled < count:
            session = self.session
            if sent < count and session.engine.pending < chunk:
                m = min(chunk, count - sent)
                rows = self._take(m)
                sent += m
                if not session.submit(rows, self.sources[rows], self.keys[rows],
                                      np.full(m, clock()), phase):
                    settled += m + session.outstanding
                    self._restart()
                    continue
            before = session.engine.completed
            if not session.pump():
                settled += session.outstanding
                self._restart()
                continue
            done += session.engine.completed - before
            settled += session.engine.completed - before
            if settled >= len(marks) * count / slices:
                marks.append((clock(), done))
        rates = [
            (d1 - d0) / (t1 - t0)
            for (t0, d0), (t1, d1) in zip(marks[:-1], marks[1:])
            if t1 > t0
        ]
        elapsed = marks[-1][0] - started
        # Only lookups that completed count: those lost with a failed
        # engine are failures, not throughput.
        return {
            "seconds": elapsed,
            "slice_rates": rates,
            "lost": settled - done,
            "lookups_per_s": done / elapsed,
        }

    # -- open loop ------------------------------------------------------
    def rung(self, rung, seconds: float, phase: str) -> dict:
        ctx = self.ctx
        offsets = poisson_offsets(self.arrival_rng, rung.rate, seconds)
        n = len(offsets)
        rows = self._take(n)
        t0 = clock() + 0.002
        due = t0 + offsets
        deadline = t0 + seconds + DRAIN_SECONDS
        times, backlog = [], []
        restarts = 0
        i = 0
        while True:
            now = clock()
            if i < n:
                j = int(np.searchsorted(due, now, side="right"))
                if j > i:
                    sel = rows[i:j]
                    ok = self.session.submit(
                        sel, self.sources[sel], self.keys[sel], due[i:j], phase
                    )
                    i = j
                    if not ok:
                        self._restart()
                        restarts += 1
            outstanding = self.session.outstanding
            if outstanding:
                times.append(now)
                backlog.append(outstanding)
                if not self.session.pump():
                    self._restart()
                    restarts += 1
            elif i >= n:
                break
            else:
                gap = due[i] - now
                if gap > 2e-4:
                    with ctx.span("harness.idle"):
                        time.sleep(min(gap - 1e-4, 1e-3))
            if now > deadline:
                break
        if self.session.outstanding:
            # Past the drain deadline: what is still inside never arrived.
            self._restart()
            restarts += 1
        times = np.asarray(times)
        backlog = np.asarray(backlog)
        return {
            "rate": rung.rate,
            "reference": rung.reference,
            "seconds": seconds,
            "segments": [(t0, seconds)],
            "window_s": WINDOW_SECONDS,
            "offered": n,
            "restarts": restarts,
            "backlog_max": int(backlog.max()) if len(backlog) else 0,
            "grows": backlog_grows(
                times, backlog, t0, t0 + seconds,
                slack=self.session.engine.config.admit_per_round,
            ),
        }

    def _closed_count(self, seconds: float) -> int:
        return int(self.ctx.sizes.closed_rate_hint[self.name] * seconds)

    def closed_unit(self, k: int, passes: int) -> dict:
        if self.unique:
            count = self.ctx.sizes.unique_closed_unit
        else:
            count = self._closed_count(0.25 * self.ctx.seconds / passes)
        unit = self._closed(count, "closed")
        return dict(unit, rates=[unit["lookups_per_s"]])

    def closed_probe(self, seconds: float) -> float:
        return self._closed(self._closed_count(seconds), phase="probe")["lookups_per_s"]

    # -- results --------------------------------------------------------
    def results(self) -> dict:
        """Check every answer and turn the per-ticket log into figures."""
        cols = [s.outcomes() for s in self.sessions]
        out = {k: np.concatenate([c[k] for c in cols]) for k in cols[0]}
        # Every arrived lookup, cache hits included, must name the true
        # owner of its key.
        arrived = out["completed"] & out["success"]
        truth = nearest_owner(self.graph.ids, self.keys[out["rows"]], self.graph.space.is_ring)
        wrong = int((arrived & (out["owners"] != truth)).sum())
        latency = np.where(arrived, out["done_at"] - out["due"], np.inf)
        for label, info in self.phases.items():
            sel = out["phase"] == PHASE_CODES[label]
            info["attempted"] = int(sel.sum())
            info["failed"] = int((sel & ~arrived).sum())
            if label != "closed":
                evaluate_rung(
                    info, out["due"][sel], latency[sel],
                    np.where(arrived, out["done_at"], np.nan)[sel],
                    lag=out["enqueued"][sel] - out["due"][sel],
                )
        measured = np.isin(out["phase"], [PHASE_CODES[k] for k in self.phases]) & arrived
        routed = measured & ~out["cache_hit"]
        main = self.sessions[0].engine  # served the warm-up and every phase until a restart
        ref = self.phases["ref"]
        counted = (self.phases["closed"], ref)
        layers = {
            "serving.latency_p999_ms": ref["pooled_p999_ms"],
            "serving.latency_p999_samples": ref["samples"],
            "serving.generator_lag_ms": ref["lag_p99_ms"],
            "serving.backlog_max": ref["backlog_max"],
            "serving.cache.hit_ratio": float(out["cache_hit"][measured].mean()),
            "serving.cache.evictions": sum(self._evictions(s) for s in self.sessions)
            - self.sessions[0].evictions_at_start,
            "serving.engine_errors": len(self.ctx.errors),
            "core.hops_mean": float(out["hops"][routed].mean()) if routed.any() else 0.0,
            "core.frontier.rounds": sum(s.engine.rounds for s in self.sessions),
            "core.frontier.fill_ratio": float(main.report().extras["frontier_fill_ratio"]),
        }
        return {
            "correct": wrong == 0,
            "checks": {"arrived_checked": int(arrived.sum()), "wrong_owner": wrong},
            "lookups_per_s": self.phases["closed"]["lookups_per_s"],
            "attempted": sum(p["attempted"] for p in counted),
            "failed": sum(p["failed"] for p in counted),
            "closed": self.phases["closed"],
            "rungs": [v for k, v in self.phases.items() if k != "closed"],
            "layers": layers,
        }
