"""Differential tests: the array-backed RouteCache against the dict LRU.

:class:`oracles.dict_lru.DictLRU` applies every batch one key at a time;
the array cache must agree with it on owners, hit masks, accounting and
the resident set in recency order after every step — and a serving
engine must produce the same outcome columns with either cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as serving_engine
from oracles.dict_lru import DictLRU
from repro.core import build_uniform_model
from repro.core.builder import GraphConfig
from repro.serving import DemandModel, RouteCache, ServeConfig, ServingEngine

#: Keys that stress exact float identity: signed zeros, the float just
#: below 1, and neighbours 1e-12 apart.
EDGE_KEYS = (0.0, -0.0, float(np.nextafter(1.0, 0.0)), 0.5, 0.5 + 1e-12, 0.5 + 2e-12)

# Edge keys two times in three: small pools make repeats, re-inserts and
# evictions common.
keys_st = st.one_of(
    st.sampled_from(EDGE_KEYS),
    st.sampled_from(EDGE_KEYS),
    st.floats(0.0, 1.0, allow_nan=False),
)


def _resident(cache: RouteCache) -> list[tuple[float, int]]:
    """The array cache's live ``(key, owner)`` pairs, least recently used first."""
    keys, owners, stamps = cache._live()
    order = np.argsort(stamps)
    return list(zip(keys[order].tolist(), owners[order].tolist()))


def _assert_same(cache: RouteCache, oracle: DictLRU) -> None:
    assert _resident(cache) == oracle.items()
    assert len(cache) == len(oracle)
    assert cache.stats() == oracle.stats()
    runs = (cache._bulk.keys, cache._recent.keys)
    assert all(np.all(np.diff(keys) > 0) for keys in runs), "each run stays sorted"
    stored = np.concatenate(runs)
    assert len(np.unique(stored)) == len(stored), "a key is stored at most once"


@settings(max_examples=300)
@given(capacity=st.integers(1, 16), data=st.data())
def test_matches_dict_lru_on_random_interleavings(capacity, data):
    cache, oracle = RouteCache(capacity), DictLRU(capacity)
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        op = data.draw(st.sampled_from(("lookup", "insert", "reinsert")), label="op")
        key_st = keys_st
        if op == "reinsert" and len(oracle):
            key_st = st.one_of(st.sampled_from([k for k, _ in oracle.items()]), keys_st)
        # Batches often outgrow the cache.
        keys = np.array(
            data.draw(st.lists(key_st, max_size=3 * capacity + 2), label="keys"), dtype=float
        )
        if op == "lookup":
            got_owners, got_hit = cache.lookup(keys)
            want_owners, want_hit = oracle.lookup(keys)
            assert np.array_equal(got_hit, want_hit)
            assert np.array_equal(got_owners, want_owners)
        else:
            owners = np.array(
                data.draw(st.lists(st.integers(0, 99), min_size=len(keys), max_size=len(keys)),
                          label="owners"),
                dtype=np.int64,
            )
            cache.insert(keys, owners)
            oracle.insert(keys, owners)
        _assert_same(cache, oracle)


@pytest.fixture(scope="module")
def graph():
    return build_uniform_model(2048, np.random.default_rng(4321), GraphConfig(out_degree=6))


def test_engine_outcomes_match_with_dict_oracle(graph, monkeypatch):
    demand = DemandModel(
        graph.ids, n_users=300, n_peers=graph.n, rng=np.random.default_rng(5),
        affinity=0.3,
    )

    def serve():
        engine = ServingEngine(graph, ServeConfig(admit_per_round=300, cache_capacity=128))
        report = engine.serve(demand, 20_000, np.random.default_rng(6))
        return engine.results(), report.cache

    fast, fast_stats = serve()
    monkeypatch.setattr(serving_engine, "RouteCache", DictLRU)
    slow, slow_stats = serve()
    # Working set well past the cache: it both hits and evicts.
    assert len(np.unique(fast.keys)) > 4 * 128
    assert 0 < fast_stats["hits"] and fast_stats["evictions"] > 0
    assert fast_stats == slow_stats
    for col in (
        "sources", "keys", "owners", "hops", "neighbor_hops", "long_hops",
        "success", "reason_codes", "cache_hit", "completed",
    ):
        assert np.array_equal(getattr(fast, col), getattr(slow, col)), col
