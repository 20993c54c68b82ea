"""A live, mutable overlay network.

Where :class:`~repro.core.SmallWorldGraph` is a *snapshot* built offline,
:class:`Network` models the deployed system of Section 4.2: peers join
and leave over time, immediate-neighbour links are always kept correct
("both u and v correct their routing tables of the immediate neighboring
links"), and each peer owns an explicit set of long-range links that may
*dangle* after churn until maintenance repairs them.

Peers are addressed by identifier (a float in ``[0, 1)``), not by index:
indices are meaningless in a population that changes.

The sorted identifier vector is a numpy array and every peer's long
links live in one row of a shared *slab* — a 2-d float array of link
targets plus a per-row count, with departed peers' rows recycled
through a free-list (the mutable sibling of the CSR layout in
:mod:`repro.core.adjacency`).  The bulk engine
(:mod:`repro.overlay.bulk_dynamics`) operates on this layout with
whole-cohort numpy passes, and it makes population-wide queries
(:meth:`dangling_link_count`, :meth:`mean_long_degree`,
:meth:`snapshot`) single vectorized sweeps.  Per-peer protocols (joins,
refresh, :meth:`Network.route`) reach a peer's row through the
:class:`PeerView` handle that :meth:`Network.peer` returns.

A freed slab row deliberately keeps the departed peer's stale link
targets until the next repair round
(:func:`repro.overlay.bulk_dynamics.bulk_repair`) purges the free-list —
departure is an O(1) splice, cleanup is batched — or until the row is
recycled for a joiner, which clears it first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.keyspace import IntervalSpace, KeySpace, membership_mask, nearest_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph import SmallWorldGraph

__all__ = ["PeerView", "LinkRowView", "LookupResult", "Network"]

#: Initial slab geometry: rows (peers) and columns (links per peer) both
#: grow by doubling, so repeated joins are amortised O(1) per peer.
_MIN_SLOTS = 16
_MIN_WIDTH = 4


class _PeerRow:
    """A slab row bound to the peer that owned it when the handle was made.

    Every access goes through :meth:`_row`, which raises :class:`KeyError`
    once that peer has departed — its row may already be recycled for a
    later joiner, and a stale handle must not reach it.
    """

    __slots__ = ("_net", "_peer_id", "_slot")

    def __init__(self, net: "Network", peer_id: float, slot: int):
        self._net = net
        self._peer_id = peer_id
        self._slot = slot

    def _row(self) -> int:
        if self._net._slot_of.get(self._peer_id) != self._slot:
            raise KeyError(f"peer {self._peer_id!r} is no longer live")
        return self._slot


class LinkRowView(_PeerRow):
    """Mutable sequence view of one peer's long links in the slab.

    Supports the list operations the join/maintenance protocols use
    (``append``, ``extend``, ``clear``, iteration, ``len``, ``in``,
    indexing) and writes through to the owning network's slab row.
    """

    __slots__ = ()

    def _values(self) -> np.ndarray:
        slot = self._row()
        return self._net._link_tg[slot, : self._net._link_cnt[slot]]

    def __len__(self) -> int:
        return len(self._values())

    def __iter__(self):
        return iter(self._values().tolist())

    def __getitem__(self, index):
        return self._values().tolist()[index]

    def __contains__(self, target) -> bool:
        return bool(np.any(self._values() == float(target)))

    def __eq__(self, other) -> bool:
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None  # mutable view; defining __eq__ disables hashing

    def append(self, target: float) -> None:
        self._net._append_link(self._row(), float(target))

    def extend(self, targets) -> None:
        for target in targets:
            self.append(target)

    def clear(self) -> None:
        self._net._set_slot_links(self._row(), ())

    def tolist(self) -> list[float]:
        return self._values().tolist()

    def __repr__(self) -> str:
        return f"LinkRowView({self.tolist()!r})"


class PeerView(_PeerRow):
    """Handle on one live peer: its identifier and its slab row of long links.

    ``long_links`` reads and writes the peer's slab row; assigning a list
    to it replaces the whole row.  Link access raises :class:`KeyError`
    once the peer has departed.
    """

    __slots__ = ()

    @property
    def peer_id(self) -> float:
        return self._peer_id

    @property
    def long_links(self) -> LinkRowView:
        return LinkRowView(self._net, self._peer_id, self._row())

    @long_links.setter
    def long_links(self, targets) -> None:
        self._net._set_slot_links(self._row(), targets)

    def __repr__(self) -> str:
        try:
            links = self.long_links.tolist()
        except KeyError:
            return f"PeerView(peer_id={self._peer_id!r}, departed)"
        return f"PeerView(peer_id={self._peer_id!r}, long_links={links!r})"


@dataclass
class LookupResult:
    """Outcome of one lookup routed over the live network.

    Mirrors :class:`repro.core.RouteResult` but identifies peers by id.
    """

    success: bool
    hops: int
    neighbor_hops: int
    long_hops: int
    path: list[float] = field(default_factory=list)
    reason: str = "arrived"
    target_key: float = 0.0
    owner_id: float = -1.0
    dangling_links_seen: int = 0


class Network:
    """A dynamic overlay with implicit ring links and explicit long links.

    Args:
        space: key-space geometry; the interval matches the paper's
            proofs, the ring matches deployed DHT practice.

    The sorted peer list gives every peer its immediate neighbours "for
    free" (they are maintained by the join/leave splice, exactly as the
    paper's join protocol prescribes), so only long links carry state.
    """

    def __init__(self, space: KeySpace | None = None):
        self.space = space or IntervalSpace()
        self._ids = np.empty(0, dtype=float)
        self._slot_at = np.empty(0, dtype=np.int64)  # sorted pos -> slab row
        self._slot_of: dict[float, int] = {}  # id -> slab row
        self._link_tg = np.empty((0, 0), dtype=float)  # slab link targets
        self._link_cnt = np.empty(0, dtype=np.int64)  # slab per-row counts
        self._free_slots: list[int] = []
        self._slots_used = 0

    # ------------------------------------------------------------------
    # construction from snapshots
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "SmallWorldGraph", engine: str = "array") -> "Network":
        """Build a live network from a static snapshot in one vectorized load.

        Peer identifiers become the live population; every index-valued
        long link becomes an identifier-valued live link.  This is how
        churn experiments start from a Theorem-2 construction without
        paying per-peer joins.

        Args:
            graph: the snapshot to load.
            engine: must be ``"array"``.  The keyword survives only for
                ``perfbench/churn_workload.py``, its one remaining
                caller, and is due to be removed.

        Raises:
            ValueError: for identifiers outside ``[0, 1)``, duplicate
                identifiers in the snapshot, or any other ``engine``.
        """
        if engine != "array":
            raise ValueError(f"unknown engine {engine!r}; only 'array' is supported")
        ids = np.asarray(graph.ids, dtype=float)
        if len(ids) and (
            not np.all(np.isfinite(ids)) or ids[0] < 0.0 or ids[-1] >= 1.0
        ):
            raise ValueError("snapshot identifiers must lie in [0, 1)")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("snapshot identifiers must be sorted and distinct")
        net = cls(space=graph.space)
        n = len(ids)
        counts = np.fromiter(
            (len(links) for links in graph.long_links), dtype=np.int64, count=n
        )
        width = _MIN_WIDTH
        while width < int(counts.max(initial=0)):
            width *= 2
        net._ids = ids.copy()
        net._slot_at = np.arange(n, dtype=np.int64)
        net._slot_of = {float(x): i for i, x in enumerate(ids.tolist())}
        net._link_cnt = counts.copy()
        net._link_tg = np.full((n, width), np.nan)
        if counts.any():
            flat = np.concatenate(
                [np.asarray(links, dtype=np.int64) for links in graph.long_links]
            )
            lane = np.arange(width)[None, :] < counts[:, None]
            net._link_tg[lane] = ids[flat]
        net._slots_used = n
        return net

    def snapshot(self) -> "SmallWorldGraph":
        """Freeze the live state into a routable :class:`SmallWorldGraph`.

        Dangling long links (targets that have departed) are dropped —
        they cannot be expressed as peer indices, and live routing skips
        them anyway, so routing the snapshot with the batch engine
        (:func:`repro.core.route_many`) is hop-for-hop identical to
        :meth:`route` on the live network.

        Raises:
            ValueError: on an empty network.
        """
        from repro.core.graph import SmallWorldGraph

        n = self.n
        if n == 0:
            raise ValueError("cannot snapshot an empty network")
        ids = self._ids.copy()
        targets, sources = self._flat_live_links()
        live = membership_mask(ids, targets)
        targets, sources = targets[live], sources[live]
        counts = np.bincount(sources, minlength=n)
        flat = np.searchsorted(ids, targets).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return SmallWorldGraph.from_flat_links(
            ids, ids.copy(), indptr, flat, space=self.space, model="live"
        )

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of live peers."""
        return len(self._ids)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, peer_id: float) -> bool:
        return peer_id in self._slot_of

    def ids_array(self) -> np.ndarray:
        """Return the live identifiers as a sorted numpy array.

        This is the live sorted vector itself — treat it as read-only;
        mutations replace the vector wholesale, so held references behave
        as snapshots.
        """
        return self._ids

    def peer(self, peer_id: float) -> PeerView:
        """Return a handle on a live peer's state.

        Raises:
            KeyError: if the peer is not live.
        """
        slot = self._slot_of[peer_id]
        return PeerView(self, float(peer_id), slot)

    def add_peer(self, peer_id: float) -> PeerView:
        """Insert a peer into the population (low-level splice).

        Raises:
            ValueError: for an out-of-range or duplicate identifier.
        """
        if not 0.0 <= peer_id < 1.0:
            raise ValueError(f"identifier {peer_id!r} outside [0, 1)")
        peer_id = float(peer_id)
        if peer_id in self:
            raise ValueError(f"peer {peer_id!r} already present")
        slot = int(self._alloc_slots(1)[0])
        pos = int(np.searchsorted(self._ids, peer_id))
        self._ids = np.insert(self._ids, pos, peer_id)
        self._slot_at = np.insert(self._slot_at, pos, slot)
        self._slot_of[peer_id] = slot
        return PeerView(self, peer_id, slot)

    def remove_peer(self, peer_id: float) -> None:
        """Remove a peer (it departs without notice; links to it dangle).

        The departed peer's slab row goes onto the free-list with its
        link targets still in place — the next repair
        round (:func:`~repro.overlay.bulk_dynamics.bulk_repair`) purges
        them, or row recycling clears them first.  They are invisible to
        every population query either way.

        Raises:
            KeyError: if the peer is not live.
        """
        peer_id = float(peer_id)
        slot = self._slot_of.pop(peer_id, None)
        if slot is None:
            raise KeyError(f"peer {peer_id!r} not present")
        pos = int(np.searchsorted(self._ids, peer_id))
        self._ids = np.delete(self._ids, pos)
        self._slot_at = np.delete(self._slot_at, pos)
        self._free_slots.append(int(slot))

    # ------------------------------------------------------------------
    # bulk splices (validated entry points live in
    # repro.overlay.bulk_dynamics)
    # ------------------------------------------------------------------
    def _bulk_insert(self, cohort: np.ndarray) -> np.ndarray:
        """Splice a *sorted, distinct, absent* cohort in; return its slab rows.

        One merge pass regardless of cohort size — the vectorized form of
        repeated :meth:`add_peer`.
        """
        slots = self._alloc_slots(len(cohort))
        pos = np.searchsorted(self._ids, cohort)
        self._ids = np.insert(self._ids, pos, cohort)
        self._slot_at = np.insert(self._slot_at, pos, slots)
        for peer_id, slot in zip(cohort.tolist(), slots.tolist()):
            self._slot_of[peer_id] = slot
        return slots

    def _bulk_remove(self, leaving: np.ndarray) -> None:
        """Splice a *sorted, distinct, live* cohort out in one masked pass.

        Freed rows go to the free-list with their links still in place,
        exactly like :meth:`remove_peer`.
        """
        gone = membership_mask(leaving, self._ids)
        self._free_slots.extend(self._slot_at[gone].tolist())
        self._ids = self._ids[~gone]
        self._slot_at = self._slot_at[~gone]
        for peer_id in leaving.tolist():
            del self._slot_of[peer_id]

    # ------------------------------------------------------------------
    # slab management
    # ------------------------------------------------------------------
    def _ensure_width(self, width: int) -> None:
        """Grow the slab's link columns to hold ``width`` targets per row."""
        current = self._link_tg.shape[1]
        if width <= current:
            return
        new = max(_MIN_WIDTH, current)
        while new < width:
            new *= 2
        pad = np.full((self._link_tg.shape[0], new - current), np.nan)
        self._link_tg = np.concatenate([self._link_tg, pad], axis=1)

    def _ensure_slots(self, fresh: int) -> None:
        """Grow the slab's rows so ``fresh`` never-used rows are available."""
        need = self._slots_used + fresh
        capacity = len(self._link_cnt)
        if need <= capacity:
            return
        new = max(_MIN_SLOTS, capacity)
        while new < need:
            new *= 2
        width = max(self._link_tg.shape[1], _MIN_WIDTH)
        link_tg = np.full((new, width), np.nan)
        link_tg[:capacity, : self._link_tg.shape[1]] = self._link_tg
        self._link_tg = link_tg
        link_cnt = np.zeros(new, dtype=np.int64)
        link_cnt[:capacity] = self._link_cnt
        self._link_cnt = link_cnt

    def _alloc_slots(self, m: int) -> np.ndarray:
        """Claim ``m`` cleared slab rows (free-list first)."""
        reused = [self._free_slots.pop() for _ in range(min(len(self._free_slots), m))]
        fresh_n = m - len(reused)
        self._ensure_slots(fresh_n)
        fresh = range(self._slots_used, self._slots_used + fresh_n)
        self._slots_used += fresh_n
        slots = np.fromiter((*reused, *fresh), dtype=np.int64, count=m)
        self._link_cnt[slots] = 0
        self._link_tg[slots, :] = np.nan
        return slots

    def _append_link(self, slot: int, target: float) -> None:
        cnt = int(self._link_cnt[slot])
        self._ensure_width(cnt + 1)
        self._link_tg[slot, cnt] = target
        self._link_cnt[slot] = cnt + 1

    def _set_slot_links(self, slot: int, targets) -> None:
        values = np.asarray(tuple(targets), dtype=float)
        self._ensure_width(len(values))
        self._link_tg[slot, :] = np.nan
        self._link_tg[slot, : len(values)] = values
        self._link_cnt[slot] = len(values)

    def _flat_live_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(targets, source positions)`` over all live rows, flat.

        Row-major flattening preserves each peer's stored link order;
        sources index into the sorted identifier vector.
        """
        counts = self._link_cnt[self._slot_at]
        width = self._link_tg.shape[1]
        lane = np.arange(width)[None, :] < counts[:, None]
        targets = self._link_tg[self._slot_at][lane]
        sources = np.repeat(np.arange(self.n, dtype=np.int64), counts)
        return targets, sources

    def _purge_free_slots(self) -> int:
        """Clear stale link targets lingering on free-listed rows.

        Returns the number of stale link slots released.  Called by
        repair rounds; O(free rows), not O(population).
        """
        if not self._free_slots:
            return 0
        slots = np.asarray(self._free_slots, dtype=np.int64)
        purged = int(self._link_cnt[slots].sum())
        self._link_cnt[slots] = 0
        self._link_tg[slots, :] = np.nan
        return purged

    # ------------------------------------------------------------------
    # neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors_of(self, peer_id: float) -> tuple[float, ...]:
        """Return the live ring/interval neighbours of ``peer_id``."""
        n = self.n
        if n <= 1:
            return ()
        ids = self._ids
        idx = int(np.searchsorted(ids, peer_id))
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
        return float(self._ids[nearest_index(self._ids, key, self.space)])

    def random_peer(self, rng: np.random.Generator) -> float:
        """Return a uniformly random live peer identifier.

        Raises:
            ValueError: on an empty network.
        """
        if self.n == 0:
            raise ValueError("network has no peers")
        return float(self._ids[int(rng.integers(self.n))])

    def _long_targets(self, peer_id: float) -> list[float]:
        """Return one live peer's long-link targets as plain floats."""
        slot = self._slot_of[peer_id]
        return self._link_tg[slot, : self._link_cnt[slot]].tolist()

    def dangling_link_count(self) -> int:
        """Return the number of long links pointing at departed peers.

        Only live peers' links are counted: a departed peer's own stale
        row (lingering on the free-list until repair) is invisible here.
        """
        if self.n == 0:
            return 0
        targets, _ = self._flat_live_links()
        if len(targets) == 0:
            return 0
        return int((~membership_mask(self._ids, targets)).sum())

    def mean_long_degree(self) -> float:
        """Return the mean number of (live or dangling) long links per peer."""
        if self.n == 0:
            return 0.0
        return float(self._link_cnt[self._slot_at].mean())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(
        self, source_id: float, key: float, max_hops: int | None = None
    ) -> LookupResult:
        """Greedy-route a lookup for ``key`` starting at live peer ``source_id``.

        Dangling long links are skipped (and counted); ring neighbours
        are always live by construction, so the walk reaches the owner
        unless the hop budget runs out.  Batch measurement goes through
        :meth:`snapshot` plus :func:`repro.core.route_many` instead, hop
        for hop identically.

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
            for cand in self._long_targets(current):
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
        return f"Network(n={self.n}, space={self.space.name!r})"
