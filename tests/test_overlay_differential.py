"""Differential state machine: slab-backed Network against the DictNetwork oracle.

Hypothesis drives :class:`repro.overlay.Network` and
:class:`oracles.dict_network.DictNetwork` through one random sequence of
population splices, per-peer protocol runs, link rewrites and snapshot
loads.  After every step both must agree on the sorted ids, every
peer's links (in stored order), the dangling count, the mean long
degree, and a fixed set of greedy routes — path, hops, termination
reason and owner — on the interval and on the ring.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oracles.dict_network import DictNetwork
from repro.core import GraphConfig, build_uniform_model
from repro.distributions import PowerLaw, Uniform
from repro.keyspace import IntervalSpace, RingSpace
from repro.overlay import Network, join_known_f, refresh_peer

IDS = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DISTRIBUTIONS = st.sampled_from([Uniform(), PowerLaw(alpha=1.5, shift=1e-2)])
#: Route probes: keys at the edges, the middle and off-grid points.
PROBE_KEYS = (0.0, 0.013, 0.5, 0.77, float(np.nextafter(1.0, 0.0)))
PROBE_SOURCES = 5


class _OverlayParity(RuleBasedStateMachine):
    """Subclasses set ``space``."""

    def __init__(self):
        super().__init__()
        self.net = Network(space=self.space)
        self.ref = DictNetwork(space=self.space)

    def _live(self, data) -> float:
        return data.draw(st.sampled_from(self.ref.ids_array().tolist()), label="peer")

    @rule(peer_id=IDS)
    def add_peer(self, peer_id):
        if peer_id in self.ref:
            for net in (self.net, self.ref):
                try:
                    net.add_peer(peer_id)
                except ValueError:
                    continue
                raise AssertionError(f"{net!r} accepted duplicate {peer_id!r}")
            return
        self.net.add_peer(peer_id)
        self.ref.add_peer(peer_id)

    @precondition(lambda self: self.ref.n > 0)
    @rule(data=st.data())
    def remove_peer(self, data):
        peer_id = self._live(data)
        self.net.remove_peer(peer_id)
        self.ref.remove_peer(peer_id)

    @rule(peer_id=IDS, dist=DISTRIBUTIONS, seed=SEEDS)
    def join_peer(self, peer_id, dist, seed):
        if peer_id in self.ref:
            return
        a = join_known_f(self.net, dist, np.random.default_rng(seed), peer_id=peer_id)
        b = join_known_f(self.ref, dist, np.random.default_rng(seed), peer_id=peer_id)
        assert a == b

    @precondition(lambda self: self.ref.n > 0)
    @rule(data=st.data(), dist=st.none() | DISTRIBUTIONS, seed=SEEDS)
    def refresh(self, data, dist, seed):
        peer_id = self._live(data)
        a = refresh_peer(
            self.net, peer_id, np.random.default_rng(seed), distribution=dist,
            sample_size=8,
        )
        b = refresh_peer(
            self.ref, peer_id, np.random.default_rng(seed), distribution=dist,
            sample_size=8,
        )
        assert a == b

    @precondition(lambda self: self.ref.n > 0)
    @rule(data=st.data(), mode=st.sampled_from(["assign", "append", "extend", "clear"]))
    def rewrite_links(self, data, mode):
        peer_id = self._live(data)
        live = self.ref.ids_array().tolist()
        # Live targets and arbitrary (usually dangling) ones, duplicates allowed.
        targets = data.draw(
            st.lists(st.sampled_from(live) | IDS, max_size=6), label="targets"
        )
        for net in (self.net, self.ref):
            state = net.peer(peer_id)
            if mode == "assign":
                state.long_links = list(targets)
            elif mode == "append":
                for target in targets:
                    state.long_links.append(target)
            elif mode == "extend":
                state.long_links.extend(targets)
            else:
                state.long_links.clear()

    @rule(n=st.integers(min_value=1, max_value=40), seed=SEEDS)
    def from_graph(self, n, seed):
        graph = build_uniform_model(
            n=n, rng=np.random.default_rng(seed), config=GraphConfig(space=self.space)
        )
        self.net = Network.from_graph(graph)
        self.ref = DictNetwork.from_graph(graph)

    @invariant()
    def same_state(self):
        ids = self.ref.ids_array()
        assert np.array_equal(self.net.ids_array(), ids)
        for peer_id in ids.tolist():
            assert list(self.net.peer(peer_id).long_links) == list(
                self.ref.peer(peer_id).long_links
            )
        assert self.net.dangling_link_count() == self.ref.dangling_link_count()
        assert self.net.mean_long_degree() == self.ref.mean_long_degree()

    @invariant()
    def same_routes(self):
        ids = self.ref.ids_array()
        if len(ids) == 0:
            return
        picks = np.unique(np.linspace(0, len(ids) - 1, PROBE_SOURCES).astype(int))
        for source in ids[picks].tolist():
            for key in (*PROBE_KEYS, float(ids[-1])):
                assert self.net.route(source, key) == self.ref.route(source, key)


class IntervalOverlayParity(_OverlayParity):
    space = IntervalSpace()


class RingOverlayParity(_OverlayParity):
    space = RingSpace()


_SETTINGS = settings(max_examples=20, stateful_step_count=25, deadline=None)
TestIntervalOverlayParity = IntervalOverlayParity.TestCase
TestIntervalOverlayParity.settings = _SETTINGS
TestRingOverlayParity = RingOverlayParity.TestCase
TestRingOverlayParity.settings = _SETTINGS
