"""Reference live overlay: a sorted id list plus a dict of per-peer link lists.

The original storage of :class:`repro.overlay.Network`, kept verbatim as
the independent reference the slab-backed network is checked against.
:class:`DictNetwork` has the same public API (``add_peer``,
``remove_peer``, ``peer``, ``neighbors_of``, ``owner_of``, ``route``,
``ids_array``, ``dangling_link_count``, ``mean_long_degree``,
``snapshot``, ``from_graph``), so the per-peer Section 4.2 protocols
(:func:`repro.overlay.join_known_f`, :func:`repro.overlay.join_adaptive`,
:func:`repro.overlay.refresh_peer`) run on it unchanged.

Beside it live the per-peer loops the bulk cohort engine replaced in
``src/``: one-at-a-time bootstrap, cohort join, maintenance round, churn
epochs and lookup measurement.  They price link resolution in routed
hops and route every lookup with :meth:`DictNetwork.route`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import SmallWorldGraph
from repro.core.theory import default_out_degree
from repro.distributions import Distribution
from repro.keyspace import IntervalSpace, KeySpace, nearest_index
from repro.overlay import (
    ChurnConfig,
    ChurnEpoch,
    LookupResult,
    LookupStats,
    MaintenanceReport,
    join_known_f,
    refresh_peer,
    summarize_lookups,
)
from repro.overlay.bulk_dynamics import _per_member


@dataclass
class PeerState:
    """Mutable routing state of one live peer.

    Attributes:
        peer_id: the peer's identifier.
        long_links: identifiers of long-range neighbours.  A link whose
            target has departed is *dangling*: routing skips it and
            maintenance replaces it.
    """

    peer_id: float
    long_links: list[float] = field(default_factory=list)


class DictNetwork:
    """A dynamic overlay stored as a sorted id list and a dict of :class:`PeerState`."""

    def __init__(self, space: KeySpace | None = None):
        self.space = space or IntervalSpace()
        self._sorted_ids: list[float] = []
        self._peers: dict[float, PeerState] = {}

    @classmethod
    def from_graph(cls, graph: SmallWorldGraph) -> DictNetwork:
        """Build a live network from a static snapshot, one peer at a time.

        Raises:
            ValueError: for identifiers outside ``[0, 1)`` or not
                sorted and distinct.
        """
        ids = np.asarray(graph.ids, dtype=float)
        if len(ids) and (
            not np.all(np.isfinite(ids)) or ids[0] < 0.0 or ids[-1] >= 1.0
        ):
            raise ValueError("snapshot identifiers must lie in [0, 1)")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("snapshot identifiers must be sorted and distinct")
        net = cls(space=graph.space)
        for peer_id in ids.tolist():
            net.add_peer(peer_id)
        for i, links in enumerate(graph.long_links):
            net._peers[float(ids[i])].long_links = [float(ids[int(j)]) for j in links]
        return net

    def snapshot(self) -> SmallWorldGraph:
        """Freeze the live state into a :class:`SmallWorldGraph`, dropping dangling links.

        Raises:
            ValueError: on an empty network.
        """
        n = self.n
        if n == 0:
            raise ValueError("cannot snapshot an empty network")
        ids = self.ids_array().copy()
        counts = np.zeros(n, dtype=np.int64)
        cols: list[int] = []
        for i, peer_id in enumerate(self._sorted_ids):
            for target in self._peers[peer_id].long_links:
                if target in self._peers:
                    cols.append(int(np.searchsorted(ids, target)))
                    counts[i] += 1
        flat = np.asarray(cols, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return SmallWorldGraph.from_flat_links(
            ids, ids.copy(), indptr, flat, space=self.space, model="live"
        )

    @property
    def n(self) -> int:
        """Number of live peers."""
        return len(self._sorted_ids)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, peer_id: float) -> bool:
        return peer_id in self._peers

    def ids_array(self) -> np.ndarray:
        """Return the live identifiers as a sorted numpy array."""
        return np.asarray(self._sorted_ids, dtype=float)

    def peer(self, peer_id: float) -> PeerState:
        """Return the state of a live peer.

        Raises:
            KeyError: if the peer is not live.
        """
        return self._peers[peer_id]

    def add_peer(self, peer_id: float) -> PeerState:
        """Insert a peer into the population (low-level splice).

        Raises:
            ValueError: for an out-of-range or duplicate identifier.
        """
        if not 0.0 <= peer_id < 1.0:
            raise ValueError(f"identifier {peer_id!r} outside [0, 1)")
        peer_id = float(peer_id)
        if peer_id in self:
            raise ValueError(f"peer {peer_id!r} already present")
        bisect.insort(self._sorted_ids, peer_id)
        state = PeerState(peer_id=peer_id)
        self._peers[peer_id] = state
        return state

    def remove_peer(self, peer_id: float) -> None:
        """Remove a peer (it departs without notice; links to it dangle).

        Raises:
            KeyError: if the peer is not live.
        """
        if peer_id not in self._peers:
            raise KeyError(f"peer {peer_id!r} not present")
        idx = bisect.bisect_left(self._sorted_ids, peer_id)
        del self._sorted_ids[idx]
        del self._peers[peer_id]

    def neighbors_of(self, peer_id: float) -> tuple[float, ...]:
        """Return the live ring/interval neighbours of ``peer_id``."""
        n = self.n
        if n <= 1:
            return ()
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, peer_id)
        if self.space.is_ring:
            left = float(ids[(idx - 1) % n])
            right = float(ids[(idx + 1) % n])
            return (left, right) if left != right else (left,)
        out = []
        if idx > 0:
            out.append(float(ids[idx - 1]))
        if idx < n - 1:
            out.append(float(ids[idx + 1]))
        return tuple(out)

    def owner_of(self, key: float) -> float:
        """Return the live peer closest to ``key``.

        Raises:
            ValueError: on an empty network.
        """
        if self.n == 0:
            raise ValueError("network has no peers")
        ids = self.ids_array()
        return float(ids[nearest_index(ids, key, self.space)])

    def random_peer(self, rng: np.random.Generator) -> float:
        """Return a uniformly random live peer identifier.

        Raises:
            ValueError: on an empty network.
        """
        if self.n == 0:
            raise ValueError("network has no peers")
        return float(self.ids_array()[int(rng.integers(self.n))])

    def dangling_link_count(self) -> int:
        """Return the number of long links pointing at departed peers."""
        return sum(
            1
            for state in self._peers.values()
            for target in state.long_links
            if target not in self._peers
        )

    def mean_long_degree(self) -> float:
        """Return the mean number of (live or dangling) long links per peer."""
        if self.n == 0:
            return 0.0
        return sum(len(s.long_links) for s in self._peers.values()) / self.n

    def route(
        self, source_id: float, key: float, max_hops: int | None = None
    ) -> LookupResult:
        """Greedy-route a lookup for ``key`` starting at live peer ``source_id``.

        Dangling long links are skipped (and counted).

        Raises:
            KeyError: if the source peer is not live.
        """
        if source_id not in self:
            raise KeyError(f"source peer {source_id!r} not present")
        if max_hops is None:
            max_hops = self.n
        owner = self.owner_of(key)
        current = source_id
        current_dist = self.space.distance(current, key)
        path = [current]
        neighbor_hops = 0
        long_hops = 0
        dangling = 0
        while current != owner:
            if len(path) - 1 >= max_hops:
                return LookupResult(
                    False, len(path) - 1, neighbor_hops, long_hops, path,
                    "max_hops", key, owner, dangling,
                )
            ring = self.neighbors_of(current)
            best = None
            best_dist = current_dist
            best_is_long = False
            for cand in ring:
                dist = self.space.distance(cand, key)
                if dist < best_dist:
                    best, best_dist, best_is_long = cand, dist, False
            for cand in self._peers[current].long_links:
                if cand not in self:
                    dangling += 1
                    continue
                dist = self.space.distance(cand, key)
                if dist < best_dist:
                    best, best_dist, best_is_long = cand, dist, True
            if best is None:
                return LookupResult(
                    False, len(path) - 1, neighbor_hops, long_hops, path,
                    "stuck", key, owner, dangling,
                )
            current, current_dist = best, best_dist
            path.append(current)
            if best_is_long:
                long_hops += 1
            else:
                neighbor_hops += 1
        return LookupResult(
            True, len(path) - 1, neighbor_hops, long_hops, path,
            "arrived", key, owner, dangling,
        )

    def __repr__(self) -> str:
        return f"DictNetwork(n={self.n}, space={self.space.name!r})"


def bootstrap_per_peer(
    distribution: Distribution,
    n: int,
    rng: np.random.Generator,
    space: KeySpace | None = None,
) -> DictNetwork:
    """Grow a :class:`DictNetwork` to ``n`` peers by successive known-``f`` joins.

    Draws from ``rng`` exactly as
    ``repro.overlay.bootstrap_network(protocol="known")`` does.
    """
    network = DictNetwork(space=space)
    for _ in range(n):
        peer_id = float(distribution.sample(1, rng)[0])
        while peer_id in network:
            peer_id = float(distribution.sample(1, rng)[0])
        join_known_f(network, distribution, rng, peer_id=peer_id)
    return network


def join_cohort_per_peer(
    network: DictNetwork,
    ids: np.ndarray,
    distribution: Distribution,
    rng: np.random.Generator,
    out_degree=None,
    cutoff=None,
) -> int:
    """Join a cohort one :func:`join_known_f` call at a time, in input order.

    ``out_degree``/``cutoff`` default to the post-cohort ``log2 N`` and
    ``1/N``, as in :func:`repro.overlay.bulk_join`.  Returns the number
    of long links installed.
    """
    ids = np.asarray(ids, dtype=float).ravel()
    m = len(ids)
    if m == 0:
        return 0
    post_n = network.n + m
    k = _per_member(
        out_degree, np.full(m, default_out_degree(post_n), dtype=float), m, "out_degree"
    ).astype(np.int64)
    c = _per_member(cutoff, np.full(m, 1.0 / post_n), m, "cutoff")
    installed = 0
    for i, peer_id in enumerate(ids.tolist()):
        receipt = join_known_f(
            network, distribution, rng,
            peer_id=peer_id, out_degree=int(k[i]), cutoff=float(c[i]),
        )
        installed += len(receipt.long_links)
    return installed


def maintenance_round_per_peer(
    network: DictNetwork,
    rng: np.random.Generator,
    distribution: Distribution | None = None,
    fraction: float = 1.0,
    sample_size: int = 64,
    estimator_factory=None,
    out_degree: int | None = None,
    cutoff: float | None = None,
) -> MaintenanceReport:
    """Refresh a random ``fraction`` of peers with :func:`refresh_peer`, one by one.

    Link resolution is always priced in routed hops.

    Raises:
        ValueError: for a fraction outside ``(0, 1]``.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ids = network.ids_array()
    n_refresh = max(1, int(round(fraction * len(ids)))) if len(ids) else 0
    chosen = rng.choice(len(ids), size=n_refresh, replace=False) if n_refresh else []
    total = MaintenanceReport()
    for idx in chosen:
        peer_id = float(ids[idx])
        if peer_id not in network:  # departed mid-round
            continue
        report = refresh_peer(
            network,
            peer_id,
            rng,
            distribution=distribution,
            sample_size=sample_size,
            estimator_factory=estimator_factory,
            out_degree=out_degree,
            cutoff=cutoff,
        )
        total.peers_refreshed += report.peers_refreshed
        total.links_installed += report.links_installed
        total.dangling_repaired += report.dangling_repaired
        total.lookup_hops += report.lookup_hops
    return total


def run_churn_per_peer(
    network: DictNetwork,
    distribution: Distribution,
    config: ChurnConfig,
    rng: np.random.Generator,
) -> list[ChurnEpoch]:
    """Per-peer form of :func:`repro.overlay.run_churn`.

    Each epoch removes leavers one by one, joins each newcomer with
    :func:`join_known_f`, refreshes peers with
    :func:`maintenance_round_per_peer` and routes every lookup with
    :meth:`DictNetwork.route`.

    Raises:
        ValueError: if the network starts empty.
    """
    if network.n == 0:
        raise ValueError("cannot churn an empty network")
    history = []
    for epoch in range(config.epochs):
        ids = network.ids_array()
        n_leave = min(int(round(config.leave_fraction * len(ids))), len(ids) - 2)
        if n_leave > 0:
            leavers = rng.choice(len(ids), size=n_leave, replace=False)
            for idx in leavers:
                network.remove_peer(float(ids[idx]))
        n_join = int(round(config.join_fraction * network.n))
        for _ in range(n_join):
            peer_id = float(distribution.sample(1, rng)[0])
            while peer_id in network:
                peer_id = float(distribution.sample(1, rng)[0])
            join_known_f(network, distribution, rng, peer_id=peer_id)
        maintenance_hops = 0
        if config.maintenance_fraction > 0.0 and network.n > 1:
            report = maintenance_round_per_peer(
                network, rng, distribution=distribution,
                fraction=config.maintenance_fraction,
            )
            maintenance_hops = report.lookup_hops
        hops = []
        successes = 0
        reasons: dict[str, int] = {}
        for _ in range(config.lookups_per_epoch):
            source = network.random_peer(rng)
            target = network.random_peer(rng)
            result = network.route(source, target)
            hops.append(result.hops)
            if result.success:
                successes += 1
            else:
                reasons[result.reason] = reasons.get(result.reason, 0) + 1
        history.append(
            ChurnEpoch(
                epoch=epoch,
                n_peers=network.n,
                mean_hops=float(np.mean(hops)) if hops else float("nan"),
                success_rate=successes / max(1, config.lookups_per_epoch),
                dangling_links=network.dangling_link_count(),
                maintenance_hops=maintenance_hops,
                failed_reasons=reasons,
            )
        )
    return history


def measure_network_per_peer(
    network: DictNetwork,
    n_lookups: int,
    rng: np.random.Generator,
    targets: str = "peers",
) -> LookupStats:
    """Per-peer form of :func:`repro.overlay.measure_network`.

    Draws the same workload from ``rng`` (all sources first, then all
    keys) and routes each lookup with :meth:`DictNetwork.route`.

    Raises:
        ValueError: for an unknown target mode or an empty network.
    """
    if targets not in ("peers", "uniform"):
        raise ValueError(f"unknown targets mode {targets!r}")
    if network.n == 0:
        raise ValueError("cannot measure an empty network")
    ids = network.ids_array()
    sources = rng.integers(len(ids), size=n_lookups)
    if targets == "peers":
        keys = ids[rng.integers(len(ids), size=n_lookups)]
    else:
        keys = rng.random(n_lookups)
    results: list[LookupResult] = [
        network.route(float(ids[s]), float(k)) for s, k in zip(sources, keys)
    ]
    return summarize_lookups(results)
