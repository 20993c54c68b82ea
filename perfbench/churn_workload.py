"""``churn-mixed``: leave/join/repair rounds beside reads on a live overlay.

Set-up builds the skewed model from the seed, saves and loads it with
:mod:`repro.store`, and turns the loaded graph into a live
:class:`repro.overlay.Network` (array engine).  One churn round is

1. a ``bulk_leave`` of a random 10% of the peers,
2. ``sample_cohort_ids`` + ``bulk_join`` of as many fresh peers,
3. a 10% refresh ``bulk_repair``,
4. a ``snapshot()``, which the following reads route on.

Timed phases: **closed** rounds, each followed by a fixed read batch
(``churn_events_per_s`` and ``lookups_per_s`` come from these), then
open-loop **rungs**: reads arrive at a fixed rate while a round runs
every ``PERIOD`` seconds, and reads that come due during a round wait
for it.

Each read must name ``Network.owner_of(key)`` as of its snapshot: every
read is checked against an independent nearest-peer search over the
snapshot's identifiers, which per round are checked equal to the live
network's, and a fixed sample of keys per round against
``Network.owner_of`` itself.
"""

from __future__ import annotations

import shutil

import numpy as np

from repro.core import batch_routing, builder
from repro.distributions import PowerLaw
from repro.overlay import Network, bulk_dynamics
from repro.store import graph_store

from perfbench.common import (
    backlog_grows,
    batch_open_loop,
    clock,
    evaluate_rung,
    nearest_owner,
    poisson_offsets,
)
from perfbench.spec import ALPHA

#: Seconds between churn rounds in the open-loop rungs.
PERIOD = 2.5
DRAIN_SECONDS = 1.0
OWNER_SAMPLE = 16


class ChurnWorkload:
    name = "churn-mixed"

    def __init__(self, ctx):
        self.ctx = ctx
        self.phases: dict[str, dict] = {}

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        ctx, sizes = self.ctx, self.ctx.sizes
        build_rng, self.churn_rng, read_rng, self.arrival_rng = ctx.rngs(4)
        self.dist = PowerLaw(ALPHA)
        graph = builder.build_skewed_model(self.dist, n=sizes.churn_n, rng=build_rng)
        path = ctx.workdir / "churn-graph"
        shutil.rmtree(path, ignore_errors=True)
        graph_store.save_graph(graph, path)
        del graph
        loaded = graph_store.load_graph(path)
        with ctx.span("overlay.from_graph"):
            self.net = Network.from_graph(loaded, engine="array")
        self.ring = loaded.space.is_ring
        del loaded
        self.keys = self.dist.sample(sizes.churn_pool, read_rng)
        self.source_u = read_rng.random(sizes.churn_pool)
        self.sample_keys = self.dist.sample(OWNER_SAMPLE, read_rng)
        self.cursor = 0
        self.rounds: list[dict] = []
        self.snap_ids: list[np.ndarray] = []
        self.batches: list[tuple] = []
        self.owner_of_samples: list[tuple] = []
        self._publish_snapshot(self.net.snapshot())

    def _publish_snapshot(self, snap) -> None:
        """Make ``snap`` the one reads route on, remembering what the live
        network said at that moment for the answer checks."""
        self.snap = snap
        self.snap_ids.append(np.asarray(snap.ids))
        live_matches = bool(np.array_equal(snap.ids, self.net.ids_array()))
        owners = np.asarray([self.net.owner_of(float(k)) for k in self.sample_keys])
        self.owner_of_samples.append((len(self.snap_ids) - 1, owners, live_matches))

    def _take(self, m: int) -> np.ndarray:
        rows = (self.cursor + np.arange(m)) % len(self.keys)
        self.cursor = int((self.cursor + m) % len(self.keys))
        return rows

    # -- one churn round ------------------------------------------------
    def _round(self, phase: str, count_dangling: bool = False) -> dict:
        net, rng, dist = self.net, self.churn_rng, self.dist
        fraction = self.ctx.sizes.churn_fraction
        ids = net.ids_array()
        m = int(round(fraction * len(ids)))
        leaving = rng.choice(ids, size=m, replace=False)
        t = {"phase": phase, "events": 2 * m}
        started = clock()
        bulk_dynamics.bulk_leave(net, leaving)
        t["leave_s"] = clock() - started
        started = clock()
        cohort = bulk_dynamics.sample_cohort_ids(net, dist, m, rng)
        t["cohort_s"] = clock() - started
        started = clock()
        bulk_dynamics.bulk_join(net, cohort, dist, rng)
        t["join_s"] = clock() - started
        started = clock()
        bulk_dynamics.bulk_repair(net, rng, distribution=dist, fraction=fraction, refresh=True)
        t["repair_s"] = clock() - started
        if count_dangling:
            with self.ctx.span("overlay.dangling_link_count"):
                t["dangling_links"] = net.dangling_link_count()
        started = clock()
        snap = net.snapshot()
        t["snapshot_s"] = clock() - started
        self._publish_snapshot(snap)
        churn_s = t["leave_s"] + t["cohort_s"] + t["join_s"] + t["repair_s"]
        t["events_per_s"] = t["events"] / churn_s
        self.rounds.append(t)
        return t

    def _route(self, rows, due, phase) -> float:
        """Route one read batch on the current snapshot; returns its seconds."""
        snap = self.snap
        sources = (self.source_u[rows] * snap.n).astype(np.int64)
        started = clock()
        try:
            res = batch_routing.route_many(snap, sources, self.keys[rows], workers=1)
        except Exception:
            self.ctx.record_error(f"route_many during {phase}")
            res = None
        done = clock()
        self.batches.append((len(self.snap_ids) - 1, rows, due, done, phase, res))
        return done - started

    # -- the timed run --------------------------------------------------
    def _closed(self, rounds: int, phase: str) -> dict:
        """A fixed number of rounds, so the overlay's history (dangling
        links grow round by round) is the same in every run."""
        batch = self.ctx.sizes.churn_read_batch
        per_round = []
        for _ in range(rounds):
            t = self._round(phase, count_dangling=True)
            rows = self._take(batch)
            route_s = self._route(rows, np.full(batch, clock()), phase)
            t["route_s"] = route_s
            per_round.append(batch / (t["snapshot_s"] + route_s))
        return {
            "rounds": len(per_round),
            "round_lookups_per_s": per_round,
            "lookups_per_s": float(np.median(per_round)),
        }

    def closed_unit(self, k: int, passes: int) -> dict:
        rounds = self.ctx.sizes.churn_closed_rounds
        unit = self._closed(rounds // passes + (k < rounds % passes), "closed")
        return dict(unit, rates=unit["round_lookups_per_s"])

    def closed_probe(self, seconds: float) -> float:
        return self._closed(1, "probe")["lookups_per_s"]

    def rung(self, rung, seconds: float, phase: str) -> dict:
        periods = max(1, round(seconds / PERIOD))
        seconds = periods * PERIOD
        offsets = poisson_offsets(self.arrival_rng, rung.rate, seconds)
        rows = self._take(len(offsets))
        t0 = clock() + 0.002
        due = t0 + offsets
        events = [t0 + k * PERIOD for k in range(periods)]
        times, backlog, routed = batch_open_loop(
            self.ctx, due,
            lambda i, j: self._route(rows[i:j], due[i:j], phase),
            max_batch=self.ctx.sizes.churn_read_batch,
            drain_s=DRAIN_SECONDS,
            events=events,
            run_event=lambda: self._round(phase),
        )
        if routed < len(rows):  # never routed before the deadline: failed
            self.batches.append((-1, rows[routed:], due[routed:], np.nan, phase, None))
        return {
            "rate": rung.rate,
            "reference": rung.reference,
            "seconds": seconds,
            "segments": [(t0, seconds)],
            "window_s": PERIOD,
            "offered": len(rows),
            "backlog_max": int(backlog.max()) if len(backlog) else 0,
            "grows": backlog_grows(
                times, backlog, t0, t0 + seconds, slack=self.ctx.sizes.churn_read_batch
            ),
        }

    # -- results --------------------------------------------------------
    def results(self) -> dict:
        wrong = 0
        checked = 0
        parts = {k: [] for k in ("phase", "due", "done_at", "arrived", "hops")}
        fill = [0, 0]
        frontier_rounds = 0
        for snap_id, rows, due, done, phase, res in self.batches:
            m = len(rows)
            if res is None:
                arrived = np.zeros(m, dtype=bool)
                hops = np.zeros(m)
            else:
                arrived = res.success.copy()
                truth = nearest_owner(self.snap_ids[snap_id], self.keys[rows], self.ring)
                wrong += int((arrived & (res.owners != truth)).sum())
                checked += int(arrived.sum())
                hops = res.hops
                fill[0] += res.candidates_seen
                fill[1] += res.padded_slots_seen
                frontier_rounds += res.rounds
            parts["phase"].append(np.full(m, phase, dtype=object))
            parts["due"].append(np.asarray(due, dtype=float))
            parts["done_at"].append(np.full(m, done))
            parts["arrived"].append(arrived)
            parts["hops"].append(hops)
        # Per round: snapshot identifiers equal the live network's, and
        # Network.owner_of agrees with the nearest-peer oracle.
        owner_of_wrong = 0
        for snap_id, owners, live_matches in self.owner_of_samples:
            ids = self.snap_ids[snap_id]
            expect = ids[nearest_owner(ids, self.sample_keys, self.ring)]
            owner_of_wrong += int((owners != expect).sum())
            owner_of_wrong += 0 if live_matches else OWNER_SAMPLE
        out = {k: np.concatenate(v) for k, v in parts.items()}
        latency = np.where(out["arrived"], out["done_at"] - out["due"], np.inf)
        for label, info in self.phases.items():
            sel = out["phase"] == label
            info["attempted"] = int(sel.sum())
            info["failed"] = int((sel & ~out["arrived"]).sum())
            if label != "closed":
                evaluate_rung(info, out["due"][sel], latency[sel],
                              np.where(out["arrived"], out["done_at"], np.nan)[sel])
        timed = [r for r in self.rounds if r["phase"] in self.phases]
        closed_rounds = [r for r in timed if r["phase"] == "closed"]
        measured = np.isin(out["phase"], list(self.phases)) & out["arrived"]
        counted = (self.phases["closed"], self.phases["ref"])
        layers = {
            "overlay.events": sum(r["events"] for r in timed),
            "overlay.dangling_links": closed_rounds[-1]["dangling_links"],
            "overlay.churn_events_per_s": float(
                np.median([r["events_per_s"] for r in closed_rounds])
            ),
            "core.hops_mean": float(out["hops"][measured].mean()) if measured.any() else 0.0,
            "core.frontier.rounds": frontier_rounds,
            "core.frontier.fill_ratio": fill[0] / fill[1] if fill[1] else 1.0,
        }
        return {
            "correct": wrong == 0 and owner_of_wrong == 0,
            "checks": {
                "arrived_checked": checked,
                "wrong_owner": wrong,
                "owner_of_sampled": len(self.owner_of_samples) * OWNER_SAMPLE,
                "owner_of_wrong": owner_of_wrong,
            },
            "lookups_per_s": self.phases["closed"]["lookups_per_s"],
            "attempted": sum(p["attempted"] for p in counted),
            "failed": sum(p["failed"] for p in counted),
            "closed": dict(self.phases["closed"], churn_rounds=closed_rounds),
            "rungs": [v for k, v in self.phases.items() if k != "closed"],
            "layers": layers,
        }
