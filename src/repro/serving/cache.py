"""Hot-key route cache: exact-LRU key→owner memoisation on sorted arrays.

Under popularity-skewed demand a small set of keys absorbs most
lookups; once a key's owner is resolved there is no reason to walk the
overlay for it again while the population is stable.  The serving
engine consults and fills this cache *at admission time* — before any
routing happens — so hit/miss/eviction accounting depends only on the
admission order of the query stream, never on worker count or frontier
interleaving (the admission-determinism contract the tests pin).

Entries live in numpy arrays, never in a per-key Python structure:
keys sorted ascending (``float64``) with aligned owners (``int64``)
and recency stamps (``int64``) drawn from a tick that advances by one
for every key probed or inserted.  **Invariant:** the live entries are
always the ``capacity`` distinct keys touched most recently, and
ordering them by stamp gives their LRU order — exactly what a per-key
LRU map holds, so owners, hit masks and hit/miss/eviction counts match
one bit for bit.

A probe batch is one ``searchsorted`` per run, in key order.  So that
a batch of a few keys neither copies nor scans the whole cache, the
entries sit in two sorted runs — the bulk, and the keys
added since the last rebuild, which folds the recent run into the bulk
once it holds an eighth of the capacity.  An evicted entry is only
marked dead (stamp ``-1``) until then, and eviction order comes from
an LRU queue: bulk slots sorted by stamp when the queue was last
filled, whose entries stop matching once their key is touched or
evicted.

Accounting is plain attributes (``hits`` / ``misses`` / ``evictions``),
mirrored into :mod:`repro.telemetry` counters
(``serving.cache.{hits,misses,evictions}``) whenever telemetry is
enabled.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry

__all__ = ["RouteCache"]


class _Run:
    """Keys sorted ascending with aligned owners and stamps (-1: evicted)."""

    __slots__ = ("keys", "owners", "stamps")

    def __init__(self, keys=None, owners=None, stamps=None):
        self.keys = np.empty(0, dtype=float) if keys is None else keys
        self.owners = np.empty(0, dtype=np.int64) if owners is None else owners
        self.stamps = np.empty(0, dtype=np.int64) if stamps is None else stamps

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each key's slot, whether it is stored here, and its stamp (-1 if not live)."""
        n = len(keys)
        if not len(self.keys):
            return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool), np.full(n, -1)
        slot = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        stored = self.keys[slot] == keys
        return slot, stored, np.where(stored, self.stamps[slot], -1)

    def add(self, keys: np.ndarray, owners: np.ndarray, stamps: np.ndarray) -> np.ndarray:
        """Merge sorted keys not stored here in; return where the old entries went."""
        at = np.searchsorted(self.keys, keys) + np.arange(len(keys))
        kept = np.ones(len(self.keys) + len(keys), dtype=bool)
        kept[at] = False
        for name, new in (("keys", keys), ("owners", owners), ("stamps", stamps)):
            merged = np.empty(len(kept), dtype=getattr(self, name).dtype)
            merged[at] = new
            merged[kept] = getattr(self, name)
            setattr(self, name, merged)
        return kept

    def live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keep = self.stamps >= 0
        return self.keys[keep], self.owners[keep], self.stamps[keep]


class RouteCache:
    """Bounded exact-LRU map from lookup key to owner peer index.

    Keys are exact float identifiers (corpus keys repeat bit-for-bit
    under skewed demand, which is what makes caching them worthwhile;
    ``0.0`` and ``-0.0`` are one key).  A hit refreshes the key's
    recency; inserting past capacity evicts the least-recently-used
    entries.  Batches behave as if applied one key at a time in batch
    order: a key repeated in one batch takes its last position's
    recency and, on insert, its last owner.

    Args:
        capacity: maximum number of resident entries (>= 1).

    Raises:
        ValueError: on a non-positive capacity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        # Rebuild once this many keys sit in the recent run: rebuilds
        # cost O(capacity), inserts into the recent run O(its length).
        self._spill = max(1, self.capacity // 8)
        self._bulk = _Run()
        self._recent = _Run()
        self._size = 0
        self._tick = 0
        # LRU queue: bulk slots sorted by stamp when last filled.
        self._queue_slots = np.empty(0, dtype=np.int64)
        self._queue_stamps = np.empty(0, dtype=np.int64)
        self._queue_head = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._size

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe a key batch; return ``(owners, hit_mask)``.

        ``owners[i]`` is the cached owner for hits and ``-1`` for
        misses.  Hits are touched most-recently-used in batch order.
        """
        keys = np.asarray(keys, dtype=float)
        owners = np.full(len(keys), -1, dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        # Probing in key order keeps the binary searches cache-friendly.
        todo = np.argsort(keys)
        for run in (self._bulk, self._recent):
            slot, _, stamp = run.find(keys[todo])
            live = stamp >= 0
            at = todo[live]
            if at.size:
                owners[at] = run.owners[slot[live]]
                hit[at] = True
                # A key probed twice keeps the later stamp.
                np.maximum.at(run.stamps, slot[live], self._tick + at)
            todo = todo[~live]
        self._tick += len(keys)
        n_hits = int(hit.sum())
        n_misses = len(keys) - n_hits
        self.hits += n_hits
        self.misses += n_misses
        if telemetry.enabled():
            telemetry.count("serving.cache.hits", n_hits)
            telemetry.count("serving.cache.misses", n_misses)
        return owners, hit

    def insert(self, keys: np.ndarray, owners: np.ndarray) -> None:
        """Insert resolved ``key → owner`` pairs, evicting LRU overflow."""
        keys = np.asarray(keys, dtype=float)
        owners = np.asarray(owners, dtype=np.int64)
        m = len(keys)
        if not m:
            return
        # Each distinct key at its last batch position, keys ascending.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        last = order[np.append(ranked[1:] != ranked[:-1], True)]
        new_keys, new_owners, new_stamps = keys[last], owners[last], self._tick + last
        found = [(run, *run.find(new_keys)) for run in (self._bulk, self._recent)]
        resident = (found[0][3] >= 0) | (found[1][3] >= 0)
        if resident.any() or m > self.capacity:
            misses = self._sequential_misses(keys)
        else:
            # Nothing resident and no repeat can be evicted before it recurs.
            misses = len(new_keys)
        self._tick += m

        # Refresh resident keys and revive evicted ones where they are stored.
        absent = np.ones(len(new_keys), dtype=bool)
        for run, slot, stored, _ in found:
            if stored.any():
                run.owners[slot[stored]] = new_owners[stored]
                run.stamps[slot[stored]] = new_stamps[stored]
                absent &= ~stored
        if absent.any():
            self._recent.add(new_keys[absent], new_owners[absent], new_stamps[absent])
        grown = len(new_keys) - int(resident.sum())
        self._size += grown
        over = self._size - self.capacity
        if over > 0:
            self._evict(over)
            self._size = self.capacity
        if len(self._recent.keys) > self._spill:
            self._rebuild()

        # Each one-at-a-time miss either grew the cache or evicted an entry.
        evicted = misses - grown + max(over, 0)
        self.evictions += evicted
        if evicted and telemetry.enabled():
            telemetry.count("serving.cache.evictions", evicted)

    def _live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(keys, owners, stamps)`` of both runs (each run sorted)."""
        bulk, recent = self._bulk.live(), self._recent.live()
        return tuple(np.concatenate([a, b]) for a, b in zip(bulk, recent))

    def _rebuild(self) -> None:
        """Merge the recent run into the bulk, dropping evicted entries.

        Queued slots follow their entries; queued entries that no
        longer match are dropped.
        """
        bulk = self._bulk
        live = bulk.stamps >= 0
        slots = self._queue_slots[self._queue_head :]
        queued = self._queue_stamps[self._queue_head :]
        still = bulk.stamps[slots] == queued
        self._bulk = _Run(bulk.keys[live], bulk.owners[live], bulk.stamps[live])
        kept = self._bulk.add(*self._recent.live())
        self._recent = _Run()
        moved = np.empty(len(live), dtype=np.int64)
        moved[live] = np.flatnonzero(kept)
        self._queue_slots = moved[slots[still]]
        self._queue_stamps = queued[still]
        self._queue_head = 0

    def _evict(self, count: int) -> None:
        """Mark the ``count`` least-recently-used live entries evicted."""
        while count:
            if self._queue_head == len(self._queue_slots):
                # Only the bulk run is queued: fold the recent run in first.
                self._rebuild()
                self._queue_slots = np.argsort(self._bulk.stamps)
                self._queue_stamps = self._bulk.stamps[self._queue_slots]
            head = self._queue_head
            window = slice(head, head + count + 64)  # slack for entries gone stale
            slots = self._queue_slots[window]
            # A queued entry touched or evicted since no longer matches.
            valid = self._bulk.stamps[slots] == self._queue_stamps[window]
            take = np.flatnonzero(valid)[:count]
            self._bulk.stamps[slots[take]] = -1
            count -= take.size
            self._queue_head = head + (int(take[-1]) + 1 if not count else len(slots))

    def _sequential_misses(self, keys: np.ndarray) -> int:
        """How many of ``keys``, inserted one at a time, find their key absent.

        Every such insert grows the cache or evicts one entry, so this
        fixes the eviction count — including keys evicted and re-inserted
        within the same batch.  The touch sequence is the residents
        oldest-first (replaying them into an empty cache rebuilds the
        current state) followed by the batch; a touch finds its key
        resident iff fewer than ``capacity`` distinct other keys were
        touched since that key's previous touch.
        """
        cap = self.capacity
        resident, _, stamps = self._live()
        r = len(resident)
        seq = np.concatenate([resident[np.argsort(stamps)], keys])
        n = len(seq)
        order = np.argsort(seq, kind="stable")
        ranked = seq[order]
        same = ranked[1:] == ranked[:-1]
        prev = np.full(n, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        nxt = np.full(n, n, dtype=np.int64)
        nxt[order[:-1][same]] = order[1:][same]
        first = prev == -1
        seen_before = (np.cumsum(first) - first)[r:]
        i = np.arange(r, n)
        j = prev[r:]
        # Cheap sufficient tests: fewer than `cap` touches in between, or
        # no more than `cap` distinct keys touched so far at all.
        hit = ~first[r:] & ((i - j - 1 < cap) | (seen_before <= cap))
        for x in np.flatnonzero(~first[r:] & ~hit):
            # Distinct keys in (j, i): the positions whose next touch is >= i.
            hit[x] = np.count_nonzero(nxt[j[x] + 1 : i[x]] >= i[x]) < cap
        return len(keys) - int(hit.sum())

    def stats(self) -> dict[str, int | float]:
        """Return the accounting snapshot (hits/misses/evictions/...)."""
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self._size,
            "capacity": self.capacity,
            "hit_rate": self.hits / probes if probes else 0.0,
        }
