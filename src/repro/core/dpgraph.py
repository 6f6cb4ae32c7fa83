"""The layered DAG and dynamic programs of Steps 2 and 3.

Paper Figures 6 and 7: vertices are grouped (per pin in Step 2, per
instance in Step 3); complete bipartite edges connect neighboring
groups; a virtual source precedes the first group and a virtual sink
follows the last.  The DP relaxes groups left to right and traces back
the minimum-cost source-to-sink path, visiting exactly one vertex per
group (Algorithm 2).

Two solvers share that contract:

* :class:`LayeredDpGraph` prices every edge through a callback.  The
  callback receives the *back-pointer* of the predecessor vertex,
  which is what makes Algorithm 3's history-aware cost (lines 9-10)
  well defined: when edge (prev -> curr) is priced, prev's own best
  predecessor is already fixed.  Step 3's cluster DP runs on it, and
  the tests use it as the reference for :class:`FlatDp`.
* :class:`FlatDp` is Step 2's solver: Algorithm 3's edge cost
  compiled into flat cost arrays and per-vertex compatibility
  bitmasks, so each pattern iteration re-runs only the integer
  relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

INFINITY = float("inf")


@dataclass
class DpVertex:
    """DP state for one vertex: best path cost and back-pointer."""

    payload: object
    cost: float = INFINITY
    prev: "DpVertex" = None


class LayeredDpGraph:
    """A layered DAG over payload groups."""

    def __init__(self, groups: list):
        if not groups:
            raise ValueError("graph needs at least one group")
        if any(not group for group in groups):
            raise ValueError("every group needs at least one vertex")
        self.layers = [
            [DpVertex(payload=p) for p in group] for group in groups
        ]

    def solve(self, edge_cost) -> tuple:
        """Run Algorithm 2; return (chosen payloads, total cost).

        ``edge_cost(prev_payload, curr_payload, prev_prev_payload)`` is
        called for every candidate edge; for the first group
        ``prev_payload`` and ``prev_prev_payload`` are None and the
        returned value is the vertex's source cost.
        """
        for vertex in self.layers[0]:
            vertex.cost = edge_cost(None, vertex.payload, None)
            vertex.prev = None
        for m in range(1, len(self.layers)):
            for curr in self.layers[m]:
                for prev in self.layers[m - 1]:
                    if prev.cost is INFINITY:
                        continue
                    prev_prev = prev.prev.payload if prev.prev else None
                    path_cost = prev.cost + edge_cost(
                        prev.payload, curr.payload, prev_prev
                    )
                    if path_cost < curr.cost:
                        curr.cost = path_cost
                        curr.prev = prev
        return self._trace_back()

    def _trace_back(self) -> tuple:
        """Return the minimum-cost path as (payloads, cost)."""
        best = min(self.layers[-1], key=lambda v: v.cost)
        if best.cost is INFINITY:
            raise RuntimeError("no path through the DP graph")
        path = []
        vertex = best
        while vertex is not None:
            path.append(vertex.payload)
            vertex = vertex.prev
        path.reverse()
        return path, best.cost


class FlatDp:
    """Algorithm 2 over flat cost arrays with precompiled edge masks.

    ``groups`` are Step 2's per-pin lists of ``(pin name, access
    point)`` vertices.  Vertices are addressed by (group, ordinal); the
    iteration-invariant parts of Algorithm 3's edge cost -- the
    pairwise via compatibility between neighboring groups and (for the
    history term) between a group and the one two back -- compile once
    into per-vertex integer bitmasks, so each of the N pattern
    iterations re-runs only the integer relaxation.  Identical to
    feeding :class:`LayeredDpGraph` the Algorithm 3 closure: same
    strict-less relaxation order, same first-minimum trace-back.

    Each :meth:`solve` keeps its boundary flags and parent indices, so
    :meth:`priced_edges` can replay every edge's price after the
    verdict: telemetry reads the solver and never steers it.
    """

    def __init__(self, groups, compatible, config):
        self.groups = groups
        self.config = config
        scale = config.ap_cost_scale
        self.src = [
            [scale * ap.cost for _, ap in group] for group in groups
        ]
        self.compat_prev = [None]
        self.compat_skip = [None, None]
        for m in range(1, len(groups)):
            prev_group = groups[m - 1]
            self.compat_prev.append([
                self._mask(prev_group, curr, compatible)
                for curr in groups[m]
            ])
            if m >= 2:
                self.compat_skip.append([
                    self._mask(groups[m - 2], curr, compatible)
                    for curr in groups[m]
                ])
        self._last = None

    @staticmethod
    def _mask(prev_group, curr, compatible) -> int:
        mask = 0
        curr_ap = curr[1]
        for i, (_, prev_ap) in enumerate(prev_group):
            if compatible(prev_ap, curr_ap):
                mask |= 1 << i
        return mask

    def solve(self, is_used) -> tuple:
        """One DP iteration; returns ``(chosen payloads, cost)``.

        ``is_used`` flags boundary vertices already consumed by earlier
        patterns (Algorithm 3's boundary-conflict penalty); it is the
        only part of the edge cost that changes between iterations.
        """
        groups = self.groups
        cfg = self.config
        bca = cfg.boundary_conflict_aware
        history = cfg.history_aware
        penalty = cfg.penalty_cost
        drc = cfg.drc_cost
        last = len(groups) - 1
        used_first = [is_used(v) for v in groups[0]] if bca else None
        used_last = (
            [is_used(v) for v in groups[last]] if bca and last else used_first
        )
        costs = list(self.src[0])
        parents = [None]
        for m in range(1, len(groups)):
            src_prev = self.src[m - 1]
            src_curr = self.src[m]
            cmasks = self.compat_prev[m]
            smasks = self.compat_skip[m] if history and m >= 2 else None
            prev_parents = parents[m - 1]
            prev_used = used_first if m == 1 and bca else None
            curr_used = used_last if m == last and bca else None
            nprev = len(src_prev)
            curr_costs = []
            curr_parents = []
            for j in range(len(src_curr)):
                cmask = cmasks[j]
                smask = smasks[j] if smasks is not None else None
                j_used = curr_used is not None and curr_used[j]
                j_src = src_curr[j]
                best = None
                best_i = 0
                for i in range(nprev):
                    if prev_used is not None and prev_used[i]:
                        edge = penalty
                    elif j_used:
                        edge = penalty
                    elif not cmask >> i & 1:
                        edge = drc
                    elif (
                        smask is not None
                        and not smask >> prev_parents[i] & 1
                    ):
                        edge = drc
                    else:
                        edge = src_prev[i] + j_src
                    total = costs[i] + edge
                    if best is None or total < best:
                        best = total
                        best_i = i
                curr_costs.append(best)
                curr_parents.append(best_i)
            costs = curr_costs
            parents.append(curr_parents)
        self._last = (used_first, used_last, parents)
        best_j = 0
        for j in range(1, len(costs)):
            if costs[j] < costs[best_j]:
                best_j = j
        path = []
        j = best_j
        for m in range(len(groups) - 1, -1, -1):
            path.append(groups[m][j])
            if m:
                j = parents[m][j]
        path.reverse()
        return path, costs[best_j]

    def priced_edges(self):
        """Yield every edge of the last :meth:`solve` with its price.

        Items are ``(prev, curr, cost, reason)`` in the order
        :class:`LayeredDpGraph` would price them: the first group's
        source edges (``prev`` None), then for each group every
        ``curr`` against every ``prev``.  ``reason`` names Algorithm
        3's penalty (``boundary-used``, ``drc-pair`` or
        ``history-drc``), or is None for a plain AP-cost edge.  The
        prices are re-read from the compiled masks and the solve's
        parent indices, so no solve pays for them.
        """
        used_first, used_last, parents = self._last
        groups = self.groups
        cfg = self.config
        bca = cfg.boundary_conflict_aware
        last = len(groups) - 1
        for j, curr in enumerate(groups[0]):
            yield None, curr, self.src[0][j], None
        for m in range(1, len(groups)):
            prev_used = used_first if m == 1 and bca else None
            curr_used = used_last if m == last and bca else None
            smasks = (
                self.compat_skip[m] if cfg.history_aware and m >= 2 else None
            )
            for j, curr in enumerate(groups[m]):
                cmask = self.compat_prev[m][j]
                for i, prev in enumerate(groups[m - 1]):
                    if (prev_used is not None and prev_used[i]) or (
                        curr_used is not None and curr_used[j]
                    ):
                        yield prev, curr, cfg.penalty_cost, "boundary-used"
                    elif not cmask >> i & 1:
                        yield prev, curr, cfg.drc_cost, "drc-pair"
                    elif (
                        smasks is not None
                        and not smasks[j] >> parents[m - 1][i] & 1
                    ):
                        yield prev, curr, cfg.drc_cost, "history-drc"
                    else:
                        yield (
                            prev, curr,
                            self.src[m - 1][i] + self.src[m][j], None,
                        )
