"""Reference frontier round: one dense ``(frontier, max_degree)`` block.

:class:`DenseFrontier` is :class:`repro.core.metric_routing.StreamFrontier`
with every round scored as a single lane matrix as wide as the round's
widest row — the original padded layout, never split into degree
buckets, with its own move/retire code.  It defines the outcomes the
bucketed kernel must reproduce bit for bit: success, hop split, reason
codes, owners, recorded paths and the stuck-then-arrived retirement
order.  Its cost grows with ``frontier × max_degree``, so one hub row
makes every walk pay hub-width scoring.
"""

from __future__ import annotations

import numpy as np

from repro.core.metric_routing import (
    REASON_STUCK,
    BatchRouteResult,
    PreparedTargets,
    StreamFrontier,
    _assemble_paths,
)


class DenseFrontier(StreamFrontier):
    """A resident frontier whose every round is one dense lane block."""

    def _advance(self, frontier: np.ndarray) -> list[np.ndarray]:
        indptr = self.csr.indptr
        if self._state is None:
            self._state = PreparedTargets(
                owners=self.owners, targets=self._targets, extra=self._extra
            )
        cur = self.current[frontier]
        starts = indptr[cur]
        degrees = indptr[cur + 1] - starts
        max_degree = int(degrees.max())
        n_candidates = int(degrees.sum())
        padded_slots = frontier.size * max_degree
        self.candidates_seen += n_candidates
        self.padded_slots_seen += padded_slots
        self.last_round_candidates = n_candidates
        self.last_round_padded_slots = padded_slots
        if max_degree == 0:
            self.reason_codes[frontier] = REASON_STUCK
            self.active[frontier] = False
            return [frontier]
        self.last_round_blocks = 1
        return self._advance_dense(frontier, cur, starts, degrees, max_degree)

    def _advance_dense(
        self,
        frontier: np.ndarray,
        cur: np.ndarray,
        starts: np.ndarray,
        degrees: np.ndarray,
        max_degree: int,
    ) -> list[np.ndarray]:
        indices, is_long = self.csr.indices, self.csr.is_long
        retired: list[np.ndarray] = []
        lanes = self._ramp(max_degree)
        uniform = int(degrees.min()) == max_degree
        if uniform:
            # Degree-uniform frontier: every lane is real, so skip the
            # validity mask and the np.where slot clamp entirely.
            slots = starts[:, None] + lanes[None, :]
            valid = np.broadcast_to(np.True_, slots.shape)
        else:
            valid = lanes[None, :] < degrees[:, None]
            slots = np.where(valid, starts[:, None] + lanes[None, :], 0)
        candidates = indices[slots]
        usable = valid
        all_usable = uniform
        if self.alive is not None:
            usable = usable & self.alive[candidates]
            all_usable = False

        scores = self.metric.candidate_scores(
            candidates, slots, usable, self._state, frontier, cur
        )
        if all_usable:
            scores = np.asarray(scores, dtype=float)
        else:
            scores = np.where(usable, scores, np.inf)

        rows = self._ramp(frontier.size)
        best_lane = np.argmin(scores, axis=1)
        improves = scores[rows, best_lane] < self.current_score[frontier]

        if self.metric.terminal_owner_hop and not improves.all():
            # Chord's final hop: a walk with no improving candidate may
            # still step onto a candidate that IS its key's owner.
            owner_mask = usable & (candidates == self.owners[frontier][:, None])
            terminal = ~improves & owner_mask.any(axis=1)
            if terminal.any():
                best_lane = np.where(terminal, owner_mask.argmax(axis=1), best_lane)
                improves = improves | terminal

        stuck = frontier[~improves]
        if stuck.size:
            self.reason_codes[stuck] = REASON_STUCK
            self.active[stuck] = False
            retired.append(stuck)

        movers = frontier[improves]
        if movers.size:
            move_rows = rows[improves]
            move_lanes = best_lane[improves]
            chosen = candidates[move_rows, move_lanes]
            chosen_long = is_long[slots[move_rows, move_lanes]]
            self.current[movers] = chosen
            if self.metric.greedy:
                self.current_score[movers] = scores[move_rows, move_lanes]
            self.hops[movers] += 1
            self.neighbor_hops[movers] += ~chosen_long
            self.long_hops[movers] += chosen_long
            if self.record_paths:
                self._step_walks.append(movers)
                self._step_nodes.append(chosen)
            arrived = chosen == self.owners[movers]
            if arrived.any():
                done = movers[arrived]
                self.success[done] = True
                self.active[done] = False
                retired.append(done)
        return retired


def dense_route_many(
    csr,
    metric,
    sources,
    target_keys,
    alive=None,
    max_hops=None,
    record_paths=False,
) -> BatchRouteResult:
    """Batch-route every pair through a :class:`DenseFrontier`, drained."""
    sources = np.asarray(sources, dtype=np.int64)
    target_keys = np.asarray(target_keys, dtype=float)
    n_routes = len(sources)
    state = metric.prepare(target_keys, alive)
    frontier = DenseFrontier(
        csr, metric, alive=alive, max_hops=max_hops,
        record_paths=record_paths, capacity=n_routes,
    )
    frontier.admit(sources, state)
    while frontier.active_count:
        frontier.step()
    return BatchRouteResult(
        success=frontier.success[:n_routes],
        hops=frontier.hops[:n_routes],
        neighbor_hops=frontier.neighbor_hops[:n_routes],
        long_hops=frontier.long_hops[:n_routes],
        reason_codes=frontier.reason_codes[:n_routes],
        sources=sources,
        target_keys=target_keys,
        owners=np.asarray(state.owners, dtype=np.int64),
        paths=(
            _assemble_paths(sources, frontier._step_walks, frontier._step_nodes)
            if record_paths
            else None
        ),
        rounds=frontier.rounds,
        candidates_seen=frontier.candidates_seen,
        padded_slots_seen=frontier.padded_slots_seen,
    )
