"""Differential fuzz: the bucketed frontier kernel against the dense oracle.

Hypothesis generates small adversarial routing problems — CSRs of 1 to
64 rows mixing zero-degree rows, low-degree rows and hub rows (so one
round holds anything from one to several power-of-two degree buckets),
coincident and 1e-12-apart peer ids, keys at ``0`` and just below ``1``,
liveness masks that kill a walk's whole neighbourhood or every peer but
one, and hop budgets of 0, 1 and unbounded — over four routing rules:
greedy distance on the ring and on the interval, Chord's clockwise rule
with its terminal owner hop, and the Watts–Strogatz lattice distance.

Each problem runs through :class:`repro.core.metric_routing.StreamFrontier`
and :class:`oracles.dense_frontier.DenseFrontier`, once as a drained
batch (with and without recorded paths) and once as a staggered stream
of admit/step/release calls.  Every outcome column, path, reason code,
round count, fill counter and the order in which walks retire must
match exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.dense_frontier import DenseFrontier, dense_route_many
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import (
    ClockwiseMetric,
    GreedyValueMetric,
    LatticeMetric,
    StreamFrontier,
    frontier_route_many,
)
from repro.keyspace import IntervalSpace, RingSpace

#: Out-degree tiers: empty rows, the common low degrees, and hub rows
#: wide enough to push a round's fill ratio below one half.
DEGREES = st.one_of(
    st.just(0), st.integers(1, 4), st.integers(5, 16), st.integers(17, 130)
)
METRICS = ("ring", "interval", "clockwise", "lattice")
ALIVE_MODES = ("none", "random", "dead_neighbourhood", "one_alive")
_TOP = float(np.nextafter(1.0, 0.0))

COLUMNS = (
    "success", "hops", "neighbor_hops", "long_hops", "reason_codes", "owners",
)


@st.composite
def problems(draw):
    """One routing problem: ``(csr, metric, alive, max_hops, sources, keys)``."""
    n = draw(st.integers(1, 64), label="n")
    degrees = np.array(
        draw(st.lists(DEGREES, min_size=n, max_size=n), label="degrees"),
        dtype=np.int64,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    csr = CSRAdjacency(
        indptr=indptr,
        indices=rng.integers(0, n, size=int(indptr[-1])).astype(np.int64),
        is_long=rng.random(int(indptr[-1])) < 0.5,
    )

    ids = rng.random(n)
    if draw(st.booleans(), label="crowded ids"):
        # Coincident ids and ids 1e-12 apart.
        twins = ids[: n // 2] + rng.choice([0.0, 1e-12], size=n // 2)
        ids[n - n // 2 :] = np.minimum(twins, _TOP)
    ids = np.sort(ids)

    kind = draw(st.sampled_from(METRICS), label="metric")
    if kind == "ring":
        metric = GreedyValueMetric(ids, RingSpace())
    elif kind == "interval":
        metric = GreedyValueMetric(ids, IntervalSpace())
    elif kind == "clockwise":
        metric = ClockwiseMetric(ids, owner_rule="successor", terminal_owner_hop=True)
    else:
        metric = LatticeMetric(n)

    # Only the greedy-value rule resolves owners among live peers.
    mode = (
        draw(st.sampled_from(ALIVE_MODES), label="alive")
        if isinstance(metric, GreedyValueMetric)
        else "none"
    )
    m = draw(st.integers(1, 48), label="walks")
    alive = None
    if mode == "none":
        sources = rng.integers(0, n, size=m)
    elif mode == "random":
        alive = rng.random(n) < 0.6
        alive[rng.integers(0, n)] = True
        sources = rng.choice(np.flatnonzero(alive), size=m)
    elif mode == "dead_neighbourhood":
        # Kill every candidate of one source (it stays alive itself).
        alive = np.ones(n, dtype=bool)
        hub = int(np.argmax(degrees))
        alive[csr.indices[indptr[hub] : indptr[hub + 1]]] = False
        alive[hub] = True
        live = np.flatnonzero(alive)
        sources = np.where(rng.random(m) < 0.5, hub, rng.choice(live, size=m))
    else:  # one_alive: every peer but one is dead
        alive = np.zeros(n, dtype=bool)
        only = int(rng.integers(0, n))
        alive[only] = True
        sources = np.full(m, only)

    keys = rng.random(m)
    edge = rng.random(m)
    keys[edge < 0.1] = 0.0
    keys[(edge >= 0.1) & (edge < 0.2)] = _TOP
    exact = edge >= 0.8  # exact peer ids: arrivals and terminal hops
    keys[exact] = ids[rng.integers(0, n, size=int(exact.sum()))]

    max_hops = draw(st.sampled_from([0, 1, None]), label="max_hops")
    return csr, metric, alive, max_hops, sources.astype(np.int64), keys


@settings(max_examples=150)
@given(problem=problems(), record_paths=st.booleans())
def test_batch_matches_dense_oracle(problem, record_paths):
    csr, metric, alive, max_hops, sources, keys = problem
    expect = dense_route_many(
        csr, metric, sources, keys,
        alive=alive, max_hops=max_hops, record_paths=record_paths,
    )
    got = frontier_route_many(
        csr, metric, sources, keys,
        alive=alive, max_hops=max_hops, record_paths=record_paths,
    )
    for col in COLUMNS:
        assert np.array_equal(getattr(expect, col), getattr(got, col)), col
    assert expect.paths == got.paths
    assert (expect.rounds, expect.candidates_seen, expect.padded_slots_seen) == (
        got.rounds, got.candidates_seen, got.padded_slots_seen,
    )


def _drive_stream(frontier, metric, alive, sources, keys, schedule):
    """Admit, step and release on ``schedule``; log every retirement."""
    log = []

    def retire(slots):
        log.append(frontier.take(slots))
        frontier.release(np.array(slots))

    pos = 0
    for admit_count, steps in schedule + [(len(sources), 0)]:
        chunk = np.arange(pos, min(pos + admit_count, len(sources)))
        pos += len(chunk)
        if len(chunk):
            slots = frontier.admit(
                sources[chunk], metric.prepare(keys[chunk], alive), tickets=chunk
            )
            retire(slots[~frontier.active[slots]])
        for _ in range(steps):
            retire(frontier.step())
    while frontier.active_count:
        retire(frontier.step())
    return log


@settings(max_examples=100)
@given(
    problem=problems(),
    schedule=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3)), min_size=1, max_size=8
    ),
)
def test_staggered_stream_matches_dense_oracle(problem, schedule):
    csr, metric, alive, max_hops, sources, keys = problem
    logs, stats = [], []
    for kind in (DenseFrontier, StreamFrontier):
        frontier = kind(csr, metric, alive=alive, max_hops=max_hops, capacity=2)
        logs.append(_drive_stream(frontier, metric, alive, sources, keys, schedule))
        stats.append(
            (frontier.rounds, frontier.candidates_seen, frontier.padded_slots_seen)
        )
    expect, got = logs
    assert len(expect) == len(got)
    for cohort_expect, cohort_got in zip(expect, got):
        # Same walks retiring in the same order, with the same outcomes.
        for col, values in cohort_expect.items():
            assert np.array_equal(values, cohort_got[col]), col
    assert stats[0] == stats[1]
