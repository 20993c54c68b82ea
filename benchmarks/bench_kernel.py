"""The degree-bucketed frontier kernel against the dense oracle.

The dense oracle (``tests/oracles/dense_frontier.py``) scores every
round as one ``(frontier, max_degree)`` lane matrix, so one hub row
makes *every* walk pay hub-width scoring.  The kernel splits such
padding-heavy rounds (fill below one half) into one padded block per
power-of-two degree bucket, and keeps the single dense block otherwise.

Two checks, each asserting bit-identical outcomes before any timing:

* **hub gate** — a 1e5-peer ring whose long-link out-degree is
  heavy-tailed (median ~6, a 1% tier at 64 links, a 0.1% tier of
  256-link hubs): the kernel must deliver >= 1.5x the oracle's
  batch-routing throughput;
* **uniform-degree check** — every row has the same degree, so every
  round is one block: the kernel must keep >= 0.95x the oracle.

Measurements append to ``benchmarks/results/BENCH_kernel.json``.  The
oracle lives under ``tests/``; this module puts ``tests/`` on
``sys.path`` to import it, as pytest does for the test suite.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

from repro.core.adjacency import csr_from_flat_links
from repro.core.metric_routing import (
    GreedyValueMetric,
    StreamFrontier,
    frontier_route_many,
)
from repro.keyspace import RingSpace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from oracles.dense_frontier import dense_route_many  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_kernel.json"

N_PEERS = 100_000
N_ROUTES = 16_384
HUB_GATE = 1.5  # kernel routes/sec over the dense oracle's, hub graph
UNIFORM_GATE = 0.95  # the same ratio on a degree-uniform graph
#: Alternating kernel/oracle runs, best of each side counting.  The hub
#: gate has a wide margin and the oracle is slow there; the uniform
#: check's margin is thin, so it takes more rounds.
HUB_REPEATS = 2
UNIFORM_REPEATS = 5
COLUMNS = ("success", "hops", "neighbor_hops", "long_hops", "reason_codes", "owners")


def _record_trajectory(entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def _skewed_degree_workload(rng):
    """A ring CSR with heavy-tailed long-link out-degree, plus lookups."""
    long_counts = rng.integers(4, 9, size=N_PEERS)  # median ~6
    tier = rng.random(N_PEERS)
    long_counts[tier < 0.01] = 64
    long_counts[tier < 0.001] = 256
    long_flat = rng.integers(0, N_PEERS, size=int(long_counts.sum()))
    csr = csr_from_flat_links(N_PEERS, True, long_counts, long_flat)
    ids = np.sort(rng.random(N_PEERS))
    metric = GreedyValueMetric(ids, RingSpace())
    sources = rng.integers(0, N_PEERS, size=N_ROUTES)
    keys = rng.random(N_ROUTES)
    return csr, metric, sources, keys


def _assert_identical(csr, metric, sources, keys):
    """Parity first — speed on a wrong answer is worthless."""
    expect = dense_route_many(csr, metric, sources, keys)
    got = frontier_route_many(csr, metric, sources, keys)
    for col in COLUMNS:
        assert np.array_equal(getattr(expect, col), getattr(got, col)), col
    return got


def _best_seconds(csr, metric, sources, keys, repeats) -> tuple[float, float]:
    """Best-of wall time for (kernel, oracle), runs interleaved."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, route in enumerate((frontier_route_many, dense_route_many)):
            start = time.perf_counter()
            route(csr, metric, sources, keys)
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def test_kernel_speedup_on_skewed_degree(rng):
    """The gate: >= 1.5x the dense oracle's throughput where degrees skew."""
    csr, metric, sources, keys = _skewed_degree_workload(rng)
    got = _assert_identical(csr, metric, sources, keys)
    assert got.success.all()
    frontier = StreamFrontier(csr, metric, capacity=N_ROUTES)
    frontier.admit(sources, metric.prepare(keys))
    blocks = 0
    while frontier.active_count:
        frontier.step()
        blocks = max(blocks, frontier.last_round_blocks)
    fill_ratio = frontier.fill_ratio

    kernel_seconds, dense_seconds = _best_seconds(
        csr, metric, sources, keys, HUB_REPEATS
    )
    kernel_rps = N_ROUTES / kernel_seconds
    dense_rps = N_ROUTES / dense_seconds
    speedup = kernel_rps / dense_rps
    print(
        f"\nkernel throughput, n={N_PEERS}, {N_ROUTES} routes, "
        f"fill ratio {fill_ratio:.3f}, up to {blocks} blocks per round: "
        f"dense oracle {dense_rps:,.0f} routes/s, kernel {kernel_rps:,.0f} "
        f"routes/s, speedup {speedup:.2f}x (gate >= {HUB_GATE}x)"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "kernel_vs_dense_hub",
            "n": N_PEERS,
            "routes": N_ROUTES,
            "fill_ratio": fill_ratio,
            "max_blocks_per_round": blocks,
            "dense_routes_per_sec": dense_rps,
            "kernel_routes_per_sec": kernel_rps,
            "speedup": speedup,
            "identical": True,
            "gate": HUB_GATE,
        }
    )
    assert speedup >= HUB_GATE, (
        f"kernel {speedup:.2f}x over the dense oracle, below the "
        f"{HUB_GATE}x gate on the skewed-degree graph"
    )


def test_uniform_degree_no_regression(rng):
    """Degree-uniform graphs: one block per round, no throughput lost."""
    n = N_PEERS // 4
    long_counts = np.full(n, 8)
    long_flat = rng.integers(0, n, size=int(long_counts.sum()))
    csr = csr_from_flat_links(n, True, long_counts, long_flat)
    metric = GreedyValueMetric(np.sort(rng.random(n)), RingSpace())
    sources = rng.integers(0, n, size=N_ROUTES // 4)
    keys = rng.random(N_ROUTES // 4)
    _assert_identical(csr, metric, sources, keys)

    kernel_seconds, dense_seconds = _best_seconds(
        csr, metric, sources, keys, UNIFORM_REPEATS
    )
    ratio = dense_seconds / kernel_seconds
    print(
        f"\nuniform-degree check, n={n}: kernel {ratio:.2f}x the dense "
        f"oracle's throughput (>= {UNIFORM_GATE}x required)"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "kernel_vs_dense_uniform",
            "n": n,
            "routes": N_ROUTES // 4,
            "kernel_over_dense": ratio,
            "identical": True,
            "gate": UNIFORM_GATE,
        }
    )
    assert ratio >= UNIFORM_GATE, (
        f"kernel regressed to {ratio:.2f}x the dense oracle on a "
        "degree-uniform graph"
    )
