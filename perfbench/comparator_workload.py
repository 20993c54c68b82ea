"""``route-comparators``: batch routing over every overlay family.

Set-up builds, from the seed, the seven baselines on the same uniform
identifiers, the paper's skewed model, and a ring whose long-link
out-degree is heavy-tailed (a few 64- and 256-link hubs, as in
``benchmarks/bench_kernel.py``).  Every overlay is saved with
:mod:`repro.store` and routed from its loaded copy with the default
kernel: the baselines through ``route_many_overlay``, the two graphs
through ``route_many``.

Timed phases: **closed** cycles, each routing one fixed batch per
overlay, then open-loop **rungs** whose lookups go round-robin to the
nine overlays and are routed, per overlay, in batches of whatever is
due.

A non-arriving walk is not a failure here: Watts–Strogatz is not
navigable and Pastry's leaf-set walks stop short on some keys, by
design.  The answer that must be right is the overlay's own: the first
closed cycle's outcomes are checked against each overlay's scalar
``route`` on a fixed sample, and every later routing of the same
lookup must reproduce them exactly.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    WattsStrogatzOverlay,
)
from repro.baselines import base as baselines_base
from repro.core import SmallWorldGraph, batch_routing, builder, routing
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace
from repro.store import graph_store, overlay_store

from perfbench.common import (
    backlog_grows,
    batch_open_loop,
    clock,
    evaluate_rung,
    poisson_offsets,
)
from perfbench.spec import ALPHA, BASELINE_NAMES

DRAIN_SECONDS = 0.5
_COLUMNS = ("owners", "hops", "success")


def _hub_graph(n: int, rng) -> SmallWorldGraph:
    """A ring with heavy-tailed long-link out-degree: median ~6, a 1% tier
    of 64-link peers and a 0.1% tier of 256-link hubs.

    Link lengths are harmonic in rank (``P(d) ~ 1/d``), so greedy walks
    stay short; with uniformly random targets a few walks wander for
    thousands of hops and the slowest one alone would set a batch's time.
    """
    counts = rng.integers(4, 9, size=n)
    tier = rng.random(n)
    counts[tier < 0.01] = 64
    counts[tier < 0.001] = 256
    total = int(counts.sum())
    reach = np.floor(float(n) ** rng.random(total)).astype(np.int64)
    sign = np.where(rng.random(total) < 0.5, -1, 1)
    flat = (np.repeat(np.arange(n), counts) + sign * reach) % n
    ids = np.sort(rng.random(n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SmallWorldGraph.from_flat_links(
        ids, ids.copy(), indptr, flat, space=RingSpace(), model="hub"
    )


class ComparatorWorkload:
    name = "route-comparators"

    def __init__(self, ctx):
        self.ctx = ctx
        self.phases: dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------
    def _build(self, name: str, rng):
        sizes = self.ctx.sizes
        ids = self.ids
        if name == "chord":
            return ChordOverlay(ids)
        if name == "pastry":
            return PastryOverlay(ids, rng)
        if name == "pgrid":
            return PGridOverlay(ids, rng)
        if name == "symphony":
            return SymphonyOverlay(ids, rng, k=4)
        if name == "mercury":
            return MercuryOverlay(ids, rng, sample_size=64)
        if name == "can":
            return CANOverlay(ids, dims=2)
        if name == "ws":
            return WattsStrogatzOverlay(len(ids), k=4, p=0.2, rng=rng)
        if name == "skewed":
            return builder.build_skewed_model(
                PowerLaw(ALPHA), n=sizes.comparator_skewed_n, rng=rng
            )
        return _hub_graph(sizes.hub_n, rng)

    def setup(self) -> None:
        ctx, sizes = self.ctx, self.ctx.sizes
        build_rng, query_rng, self.arrival_rng = ctx.rngs(3)
        self.ids = np.sort(build_rng.random(sizes.baseline_n))
        self.originals = {}
        self.loaded = {}
        self.pools = {}
        for name in BASELINE_NAMES:
            with ctx.span(f"baselines.{name}.build"):
                overlay = self._build(name, build_rng)
            path = ctx.workdir / f"overlay-{name}"
            shutil.rmtree(path, ignore_errors=True)
            if isinstance(overlay, SmallWorldGraph):
                graph_store.save_graph(overlay, path)
                self.loaded[name] = graph_store.load_graph(path)
                with ctx.span("core.adjacency"):
                    self.loaded[name].adjacency  # noqa: B018 - materialise the CSR
            else:
                overlay_store.save_overlay(overlay, path)
                self.loaded[name] = overlay_store.load_overlay(path)
            self.originals[name] = overlay
            n = overlay.n
            batch = sizes.comparator_batch
            keys = (
                PowerLaw(ALPHA).sample(batch, query_rng)
                if name == "skewed"
                else query_rng.random(batch)
            )
            self.pools[name] = (query_rng.integers(0, n, size=batch), keys)
        #: Per overlay, the outcome columns of its first routed batch —
        #: checked against the scalar router, then the reference for
        #: every later routing of the same lookups.
        self.expected: dict[str, dict] = {}
        self.routed: list[tuple] = []
        self.per_overlay = {name: [0, 0.0, 0, 0, 0] for name in BASELINE_NAMES}
        self.counter = 0

    def _route(self, name: str, rows: np.ndarray):
        sources, keys = self.pools[name]
        target = self.loaded[name]
        if name in ("skewed", "hub"):
            return batch_routing.route_many(target, sources[rows], keys[rows], workers=1)
        return baselines_base.route_many_overlay(target, sources[rows], keys[rows])

    def _route_logged(self, name, rows, due, phase):
        try:
            res = self._route(name, rows)
        except Exception:
            self.ctx.record_error(f"routing {name} during {phase}")
            res = None
        self.routed.append((name, rows, due, clock(), phase, res))
        return res

    # -- the timed run --------------------------------------------------
    def _closed(self, cycles: int, phase: str) -> dict:
        """Route the fixed batch of every overlay ``cycles`` times; the
        closed phase's per-overlay totals accumulate in ``per_overlay``
        (routes, seconds, hops, candidates, padded slots)."""
        batch = self.ctx.sizes.comparator_batch
        rows = np.arange(batch)
        scratch = {name: [0, 0.0, 0, 0, 0] for name in BASELINE_NAMES}
        per_overlay = self.per_overlay if phase == "closed" else scratch
        cycle_rates = []
        for _ in range(cycles):
            cycle_s = 0.0
            for name in BASELINE_NAMES:
                started = clock()
                res = self._route_logged(name, rows, np.full(batch, started), phase)
                took = clock() - started
                cycle_s += took
                stat = per_overlay[name]
                stat[0] += batch
                stat[1] += took
                if res is not None:
                    stat[2] += int(res.hops.sum())
                    stat[3] += res.candidates_seen
                    stat[4] += res.padded_slots_seen
                    if name not in self.expected:
                        self.expected[name] = {c: getattr(res, c).copy() for c in _COLUMNS}
            cycle_rates.append(len(BASELINE_NAMES) * batch / cycle_s)
        return {
            "cycles": len(cycle_rates),
            "cycle_rates": cycle_rates,
            "lookups_per_s": float(np.median(cycle_rates)),
        }

    def closed_unit(self, k: int, passes: int) -> dict:
        cycles = self.ctx.sizes.comparator_closed_cycles
        unit = self._closed(cycles // passes + (k < cycles % passes), "closed")
        return dict(unit, rates=unit["cycle_rates"])

    def closed_probe(self, seconds: float) -> float:
        return self._closed(1, "probe")["lookups_per_s"]

    def rung(self, rung, seconds: float, phase: str) -> dict:
        offsets = poisson_offsets(self.arrival_rng, rung.rate, seconds)
        n = len(offsets)
        batch = self.ctx.sizes.comparator_batch
        k = len(BASELINE_NAMES)
        order = self.counter + np.arange(n)
        self.counter += n
        overlay_of = order % k
        rows = (order // k) % batch
        t0 = clock() + 0.002
        due = t0 + offsets

        def route_batch(i, j):
            for o, name in enumerate(BASELINE_NAMES):
                pick = i + np.flatnonzero(overlay_of[i:j] == o)
                if len(pick):
                    self._route_logged(name, rows[pick], due[pick], phase)

        times, backlog, routed = batch_open_loop(
            self.ctx, due, route_batch, max_batch=8 * batch, drain_s=DRAIN_SECONDS
        )
        if routed < n:  # never routed before the deadline: failed
            self.routed.append((None, rows[routed:], due[routed:], np.nan, phase, None))
        return {
            "rate": rung.rate,
            "reference": rung.reference,
            "seconds": seconds,
            "segments": [(t0, seconds)],
            "offered": n,
            "backlog_max": int(backlog.max()) if len(backlog) else 0,
            "grows": backlog_grows(times, backlog, t0, t0 + seconds, slack=batch),
        }

    # -- results --------------------------------------------------------
    def _scalar_mismatches(self) -> int:
        """Compare the verified batch outcomes with each overlay's scalar
        router on a fixed sample of the pool."""
        wrong = 0
        sample = self.ctx.sizes.checks_per_overlay
        for name in BASELINE_NAMES:
            sources, keys = self.pools[name]
            exp = self.expected[name]
            original = self.originals[name]
            for r in range(sample):
                if isinstance(original, SmallWorldGraph):
                    ref = routing.greedy_route(original, int(sources[r]), float(keys[r]))
                else:
                    ref = original.route(int(sources[r]), float(keys[r]))
                if (ref.owner, ref.hops, ref.success) != (
                    int(exp["owners"][r]), int(exp["hops"][r]), bool(exp["success"][r])
                ):
                    wrong += 1
        return wrong

    def results(self) -> dict:
        scalar_wrong = self._scalar_mismatches()
        mismatched = 0
        compared = 0
        parts = {k: [] for k in ("phase", "due", "done_at", "ok")}
        arrived = {name: [0, 0] for name in BASELINE_NAMES}
        for name, rows, due, done, phase, res in self.routed:
            m = len(rows)
            ok = np.zeros(m, dtype=bool)
            if res is not None:
                exp = self.expected[name]
                same = np.ones(m, dtype=bool)
                for c in _COLUMNS:
                    same &= getattr(res, c) == exp[c][rows]
                mismatched += int((~same).sum())
                compared += m
                ok = same
                arrived[name][0] += int(res.success.sum())
                arrived[name][1] += m
            parts["phase"].append(np.full(m, phase, dtype=object))
            parts["due"].append(np.asarray(due, dtype=float))
            parts["done_at"].append(np.full(m, done))
            parts["ok"].append(ok)
        out = {k: np.concatenate(v) for k, v in parts.items()}
        latency = np.where(out["ok"], out["done_at"] - out["due"], np.inf)
        for label, info in self.phases.items():
            sel = out["phase"] == label
            info["attempted"] = int(sel.sum())
            info["failed"] = int((sel & ~out["ok"]).sum())
            if label != "closed":
                evaluate_rung(info, out["due"][sel], latency[sel],
                              np.where(out["ok"], out["done_at"], np.nan)[sel])
        closed = self.phases["closed"]
        layers = {}
        for name, (routes, seconds, hops, seen, slots) in self.per_overlay.items():
            layers[f"baselines.{name}.lookups_per_s"] = routes / seconds if seconds else 0.0
            layers[f"baselines.{name}.hops_mean"] = hops / routes if routes else 0.0
            layers[f"baselines.{name}.fill_ratio"] = seen / slots if slots else 1.0
        counted = (closed, self.phases["ref"])
        return {
            "correct": scalar_wrong == 0 and mismatched == 0,
            "checks": {
                "scalar_sampled": len(BASELINE_NAMES) * self.ctx.sizes.checks_per_overlay,
                "scalar_wrong": scalar_wrong,
                "replayed": compared,
                "replay_mismatched": mismatched,
                "arrival_ratio": {k: a / m if m else 0.0 for k, (a, m) in arrived.items()},
            },
            "lookups_per_s": closed["lookups_per_s"],
            "attempted": sum(p["attempted"] for p in counted),
            "failed": sum(p["failed"] for p in counted),
            "closed": closed,
            "rungs": [v for k, v in self.phases.items() if k != "closed"],
            "layers": layers,
        }
