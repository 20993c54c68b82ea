"""Reference LRU route cache: one ``dict`` in insertion (recency) order.

The obvious per-key implementation of :class:`repro.serving.RouteCache`
— a hit re-inserts its key at the end, an insert past capacity pops the
first (least-recently-used) key, one key at a time in batch order.  It
defines the semantics the array-backed cache must reproduce bit for
bit: owners, hit masks, hit/miss/eviction counts and the resident set
in recency order.
"""

from __future__ import annotations

import numpy as np


class DictLRU:
    """Bounded LRU map from lookup key to owner peer index."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._map: dict[float, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._map)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        owners = np.full(len(keys), -1, dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        mapping = self._map
        for i, key in enumerate(np.asarray(keys, dtype=float).tolist()):
            owner = mapping.get(key)
            if owner is not None:
                del mapping[key]  # re-insert → most recently used
                mapping[key] = owner
                owners[i] = owner
                hit[i] = True
        n_hits = int(hit.sum())
        self.hits += n_hits
        self.misses += len(keys) - n_hits
        return owners, hit

    def insert(self, keys: np.ndarray, owners: np.ndarray) -> None:
        mapping = self._map
        for key, owner in zip(
            np.asarray(keys, dtype=float).tolist(),
            np.asarray(owners, dtype=np.int64).tolist(),
        ):
            if key in mapping:
                del mapping[key]
            mapping[key] = owner
            if len(mapping) > self.capacity:
                mapping.pop(next(iter(mapping)))
                self.evictions += 1

    def items(self) -> list[tuple[float, int]]:
        """Resident ``(key, owner)`` pairs, least recently used first."""
        return list(self._map.items())

    def stats(self) -> dict[str, int | float]:
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._map),
            "capacity": self.capacity,
            "hit_rate": self.hits / probes if probes else 0.0,
        }
