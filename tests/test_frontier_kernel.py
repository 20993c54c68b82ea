"""Bit-identity suite for the degree-bucketed frontier kernel.

The kernel must reproduce the dense oracle's outcomes *bitwise* (one
``(frontier, max_degree)`` lane block per round,
``tests/oracles/dense_frontier.py``) — success, hops, neighbour/long
split, reasons, owners, and full recorded paths — across:

* all six shipped metric families (greedy-value, clockwise/Chord with
  its terminal owner hop, prefix-digit/Pastry, trie/P-Grid,
  torus-zone/CAN, lattice/Watts–Strogatz), uniform and skewed keys;
* skew-degree adversaries: a hub row with degree far above the median,
  zero-out-degree rows mixed into a live frontier, liveness masks that
  kill every candidate of some walks;
* streaming admission — walks joining a resident frontier in staggered
  micro-batches.

Plus the fill-ratio accounting, the telemetry counters/gauge, the
per-round block count, and serving-engine parity.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    WattsStrogatzOverlay,
    route_many_overlay,
    sample_overlay_lookups,
)
from repro.core import build_uniform_model, route_many
from repro.core.adjacency import CSRAdjacency, csr_from_flat_links
from repro.core.batch_routing import _graph_metric
from repro.core.metric_routing import (
    GreedyValueMetric,
    StreamFrontier,
    frontier_route_many,
)
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace
from repro.serving import ServeConfig, ServingEngine

from oracles.dense_frontier import DenseFrontier, dense_route_many


def _uniform_ids(n, seed):
    return np.sort(np.random.default_rng(seed).random(n))


def _skewed_ids(n, seed):
    rng = np.random.default_rng(seed)
    dist = PowerLaw(alpha=1.8, shift=1e-4)
    ids = np.unique(dist.sample(n, rng))
    while len(ids) < n:
        ids = np.unique(np.concatenate([ids, dist.sample(n - len(ids), rng)]))
    return ids


#: One overlay per shipped metric family.
SIX_FAMILIES = ["chord", "pastry", "pgrid", "symphony", "can-2d", "ws"]


def _make_family(name, ids, rng):
    if name == "chord":
        return ChordOverlay(ids)  # ClockwiseMetric + terminal owner hop
    if name == "pastry":
        return PastryOverlay(ids, rng)  # PrefixDigitMetric
    if name == "pgrid":
        return PGridOverlay(ids, rng)  # TrieMetric
    if name == "symphony":
        return SymphonyOverlay(ids, rng, k=4)  # GreedyValueMetric
    if name == "can-2d":
        return CANOverlay(ids, dims=2)  # TorusZoneMetric
    if name == "ws":
        return WattsStrogatzOverlay(len(ids), k=4, p=0.2, rng=rng)  # LatticeMetric
    raise KeyError(name)


def _assert_batches_identical(expect, got):
    for col in (
        "success", "hops", "neighbor_hops", "long_hops",
        "reason_codes", "owners",
    ):
        assert np.array_equal(getattr(expect, col), getattr(got, col)), col
    if expect.paths is not None or got.paths is not None:
        assert expect.paths == got.paths


def _route_against_oracle(overlay, sources, keys):
    csr, metric = overlay._frontier()
    expect = dense_route_many(csr, metric, sources, keys, record_paths=True)
    got = route_many_overlay(overlay, sources, keys, record_paths=True)
    _assert_batches_identical(expect, got)
    return got


class TestSixFamilyParity:
    """Kernel vs dense oracle, bitwise, for every family × key regime."""

    @pytest.mark.parametrize("name", SIX_FAMILIES)
    def test_uniform_population(self, name, rng):
        overlay = _make_family(name, _uniform_ids(192, 71), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(3), targets="uniform"
        )
        _route_against_oracle(overlay, sources, keys)

    @pytest.mark.parametrize("name", SIX_FAMILIES)
    def test_skewed_population(self, name, rng):
        overlay = _make_family(name, _skewed_ids(192, 72), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(4), targets="uniform"
        )
        _route_against_oracle(overlay, sources, keys)

    @pytest.mark.parametrize("name", ["chord", "pastry", "pgrid", "symphony"])
    def test_peer_id_keys(self, name, rng):
        """Exact-peer keys exercise arrival and the terminal owner hop."""
        overlay = _make_family(name, _uniform_ids(160, 73), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(5),
            targets="peers", target_ids=overlay.ids,
        )
        _route_against_oracle(overlay, sources, keys)


class TestSkewDegreeParity:
    """Degree-pathological graphs: hubs, empty rows, dead neighbourhoods."""

    def _hub_graph(self, n=256, hub_links=180, seed=11):
        """Ring CSR whose node 0 out-degree dwarfs the median (2–5)."""
        rng = np.random.default_rng(seed)
        long_counts = rng.integers(0, 4, size=n)
        long_counts[0] = hub_links
        long_flat = rng.integers(0, n, size=int(long_counts.sum()))
        csr = csr_from_flat_links(n, True, long_counts, long_flat)
        ids = _uniform_ids(n, seed)
        return csr, GreedyValueMetric(ids, RingSpace()), ids

    def test_hub_row_parity(self):
        csr, metric, ids = self._hub_graph()
        rng = np.random.default_rng(21)
        # Force many walks through the hub: half the sources start there.
        sources = np.where(
            rng.random(300) < 0.5, 0, rng.integers(0, csr.n, size=300)
        ).astype(np.int64)
        keys = rng.random(300)
        expect = dense_route_many(csr, metric, sources, keys, record_paths=True)
        got = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        _assert_batches_identical(expect, got)
        assert expect.success.any()

    def test_hub_fill_ratio_below_one(self):
        csr, metric, ids = self._hub_graph()
        rng = np.random.default_rng(22)
        sources = rng.integers(0, csr.n, size=400)
        frontier = StreamFrontier(csr, metric, capacity=400)
        frontier.admit(sources, metric.prepare(rng.random(400)))
        blocks = []
        while frontier.active_count:
            frontier.step()
            blocks.append(frontier.last_round_blocks)
        assert frontier.padded_slots_seen > frontier.candidates_seen
        assert 0.0 < frontier.fill_ratio < 1.0
        # The hub's rounds are padding-heavy, so they split into buckets.
        assert max(blocks) > 1

    def test_zero_degree_rows_in_live_frontier(self):
        """Walks on edgeless nodes go stuck alongside advancing walks."""
        rng = np.random.default_rng(31)
        n = 96
        ids = _uniform_ids(n, 31)
        degrees = rng.integers(1, 6, size=n)
        degrees[rng.choice(n, size=12, replace=False)] = 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = rng.integers(0, n, size=int(indptr[-1])).astype(np.int64)
        csr = CSRAdjacency(
            indptr=indptr, indices=indices,
            is_long=np.zeros(len(indices), dtype=bool),
        )
        metric = GreedyValueMetric(ids, RingSpace())
        sources = np.arange(n, dtype=np.int64)  # every row, empty ones included
        keys = rng.random(n)
        expect = dense_route_many(csr, metric, sources, keys, record_paths=True)
        got = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        _assert_batches_identical(expect, got)
        # The empty rows really were part of the live frontier.
        empty = degrees[sources] == 0
        assert (got.reasons[empty & ~got.success] == "stuck").all()

    @pytest.mark.parametrize("kill", ["some", "all"])
    def test_alive_masks(self, kill, rng):
        """Dead candidates compress out; all-dead rows retire stuck."""
        graph = build_uniform_model(n=384, rng=rng)
        wrng = np.random.default_rng(41)
        sources = wrng.integers(0, graph.n, size=250)
        keys = wrng.random(250)
        alive = np.ones(graph.n, dtype=bool)
        if kill == "some":
            alive[wrng.choice(graph.n, size=120, replace=False)] = False
        else:
            alive[:] = False  # every candidate dead: only sources survive
        alive[sources] = True
        expect = dense_route_many(
            graph.adjacency, _graph_metric(graph, "key"), sources, keys,
            alive=alive, record_paths=True,
        )
        got = route_many(graph, sources, keys, alive=alive, record_paths=True)
        _assert_batches_identical(expect, got)
        if kill == "all":
            assert (got.reasons[~got.success] == "stuck").all()


class TestStreamingAdmission:
    """Staggered admit/step interleavings match the dense oracle."""

    def test_staggered_admission_parity(self, rng):
        graph = build_uniform_model(n=512, rng=rng)
        metric = GreedyValueMetric(graph.ids, graph.space)
        wrng = np.random.default_rng(51)
        sources = wrng.integers(0, graph.n, size=600)
        keys = wrng.random(600)
        chunks = np.array_split(np.arange(600), 7)

        outcomes = {}
        for kernel in (DenseFrontier, StreamFrontier):
            frontier = kernel(graph.adjacency, metric, capacity=64)
            slots = np.empty(600, dtype=np.int64)
            for chunk in chunks:
                slots[chunk] = frontier.admit(
                    sources[chunk], metric.prepare(keys[chunk])
                )
                frontier.step()  # interleave rounds between admissions
            while frontier.active_count:
                frontier.step()
            outcomes[kernel] = {
                col: getattr(frontier, col)[slots].copy()
                for col in (
                    "success", "hops", "neighbor_hops", "long_hops",
                    "reason_codes", "owners",
                )
            }
        for col, expect in outcomes[DenseFrontier].items():
            assert np.array_equal(expect, outcomes[StreamFrontier][col]), col


class TestKernelPlumbing:
    def test_uniform_degree_frontier_is_padding_free(self, rng):
        """An unrewired WS ring is degree-uniform: fill ratio exactly 1."""
        overlay = WattsStrogatzOverlay(128, k=2, p=0.0, rng=rng)
        csr, metric = overlay._frontier()
        wrng = np.random.default_rng(81)
        sources = wrng.integers(0, 128, size=100)
        keys = wrng.random(100)
        for kernel in (DenseFrontier, StreamFrontier):
            frontier = kernel(csr, metric, capacity=100)
            frontier.admit(sources, metric.prepare(keys))
            while frontier.active_count:
                frontier.step()
                assert frontier.last_round_blocks <= 1
            assert frontier.fill_ratio == 1.0
        _route_against_oracle(overlay, sources, keys)

    def test_telemetry_counters_and_fill_gauge(self, rng):
        graph = build_uniform_model(n=256, rng=rng)
        wrng = np.random.default_rng(91)
        telemetry.reset()
        telemetry.enable()
        try:
            route_many(graph, wrng.integers(0, graph.n, 300), wrng.random(300))
            registry = telemetry.get_registry()
            candidates = registry.counter("routing.frontier.candidates").value
            padded_slots = registry.counter("routing.frontier.padded_slots").value
            assert candidates > 0
            assert padded_slots >= candidates
            gauge = registry.gauge("routing.frontier.fill_ratio").value
            assert gauge == pytest.approx(candidates / padded_slots)
        finally:
            telemetry.disable()

    def test_counters_kernel_independent(self, rng):
        """Kernel and oracle see the same frontier, so the stats agree."""
        graph = build_uniform_model(n=256, rng=rng)
        metric = GreedyValueMetric(graph.ids, graph.space)
        wrng = np.random.default_rng(92)
        sources = wrng.integers(0, graph.n, size=300)
        keys = wrng.random(300)
        stats = {}
        for kernel in (DenseFrontier, StreamFrontier):
            frontier = kernel(graph.adjacency, metric, capacity=300)
            frontier.admit(sources, metric.prepare(keys))
            while frontier.active_count:
                frontier.step()
            stats[kernel] = (frontier.candidates_seen, frontier.padded_slots_seen)
        assert stats[DenseFrontier] == stats[StreamFrontier]


class TestServingKernelParity:
    def test_engine_outcomes_identical_across_kernels(self, rng):
        """The resident serving frontier retires what the oracle does."""
        graph = build_uniform_model(n=512, rng=rng)
        wrng = np.random.default_rng(101)
        sources = wrng.integers(0, graph.n, size=2000)
        keys = graph.ids[wrng.integers(0, graph.n, size=2000)]
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=128, max_active=256)
        )
        engine.submit(sources, keys)
        engine.drain()
        got = engine.results()
        assert 0.0 < engine.report().extras["frontier_fill_ratio"] <= 1.0
        expect = dense_route_many(
            graph.adjacency, _graph_metric(graph, "key"), sources, keys
        )
        for col in (
            "owners", "hops", "neighbor_hops", "long_hops",
            "success", "reason_codes",
        ):
            assert np.array_equal(getattr(expect, col), getattr(got, col)), col
