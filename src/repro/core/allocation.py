"""Cluster-level power allocation (§III-B.1, Algorithm 1 step 1).

Decides how many nodes participate and what power each gets, reasoning
entirely in CLIP's fitted models:

* The application's **acceptable node power range**
  ``[node_lo, node_hi]`` (from :class:`ClipPowerModel`) bounds how thin
  the budget may be sliced: below ``node_lo`` a node's performance
  collapses; above ``node_hi`` watts are wasted.
* Candidate node counts are those keeping the per-node share inside
  the range (or the application's predefined decomposition counts, per
  Algorithm 1's first branch).
* Following §III-B.1 ("determine the number of nodes by predicting the
  performance with different configurations"), each candidate is scored
  with the performance model — per-node iteration time at the
  achievable frequency, divided by the node count for the strong-scaled
  work — and the best predicted cluster performance wins.  The
  ``simple`` mode instead follows Algorithm 1's listed arithmetic
  literally (useful for ablations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.coordination import VARIABILITY_THRESHOLD, coordinate_power
from repro.core.powermodel import ClipPowerModel
from repro.core.recommend import Recommender
from repro.errors import InfeasibleBudgetError, SchedulingError

__all__ = ["ClusterAllocation", "ClusterAllocator"]


@dataclass(frozen=True)
class ClusterAllocation:
    """Node count plus per-node budgets chosen for one job.

    ``node_lo_w`` / ``node_hi_w`` describe the primary hardware class;
    on a heterogeneous cluster ``node_ranges_w`` additionally carries
    each participating slot's own ``(lo, hi)`` (``None`` when every
    slot shares the primary range).
    """

    n_nodes: int
    node_budgets_w: tuple[float, ...]
    node_lo_w: float
    node_hi_w: float
    predicted_cluster_perf: float
    node_ranges_w: tuple[tuple[float, float], ...] | None = None
    rack_budgets_w: tuple[float, ...] | None = None

    @property
    def total_allocated_w(self) -> float:
        """Sum of per-node budgets (<= the cluster budget)."""
        return float(sum(self.node_budgets_w))

    @property
    def n_racks(self) -> int:
        """Racks the participating nodes span (1 on a flat cluster)."""
        return len(self.rack_budgets_w) if self.rack_budgets_w else 1


class ClusterAllocator:
    """Chooses node count and per-node budgets for one application."""

    def __init__(
        self,
        recommender: Recommender,
        n_total_nodes: int,
        node_factors: np.ndarray | None = None,
        variability_threshold: float = VARIABILITY_THRESHOLD,
        node_ranges: tuple[tuple[float, float], ...] | None = None,
        rack_of_slot: tuple[int, ...] | None = None,
        rack_names: tuple[str, ...] | None = None,
    ):
        if n_total_nodes < 1:
            raise SchedulingError("cluster must have at least one node")
        self._rec = recommender
        self._n_total = n_total_nodes
        self._factors = (
            np.asarray(node_factors, dtype=np.float64)
            if node_factors is not None
            else np.ones(n_total_nodes)
        )
        if len(self._factors) != n_total_nodes:
            raise SchedulingError("node_factors must cover every node")
        self._threshold = variability_threshold
        # per-slot (lo, hi) acceptable ranges: None on a homogeneous
        # cluster (every slot shares the recommender's range)
        self._ranges = (
            tuple((float(lo), float(hi)) for lo, hi in node_ranges)
            if node_ranges is not None
            else None
        )
        if self._ranges is not None and len(self._ranges) != n_total_nodes:
            raise SchedulingError("node_ranges must cover every node")
        # rack structure: None on a flat (single-rack) cluster, which
        # keeps every legacy code path untouched; multi-rack fleets
        # split hierarchically and search rack-decomposed candidates
        self._rack_of = (
            tuple(int(r) for r in rack_of_slot)
            if rack_of_slot is not None
            else None
        )
        if self._rack_of is not None and len(self._rack_of) != n_total_nodes:
            raise SchedulingError("rack_of_slot must cover every node")
        self._rack_names = rack_names

    @property
    def power_model(self) -> ClipPowerModel:
        """The fitted power model the ranges come from."""
        return self._rec.power_model

    # ------------------------------------------------------------------

    def acceptable_range(self) -> tuple[float, float]:
        """Per-node acceptable power range.

        The ceiling is the power worth giving a node at the unbounded
        concurrency; the floor is the cheapest *candidate* concurrency
        — a node below the all-core floor can still contribute at
        reduced concurrency, CLIP's node-level lever.
        """
        return self._rec.acceptable_range

    def candidate_node_counts(
        self, cluster_budget_w: float, predefined: tuple[int, ...] | None = None
    ) -> tuple[int, ...]:
        """Node counts whose per-node share lies in the acceptable range."""
        lo, hi = self.acceptable_range()
        if self._ranges is None:
            max_nodes = min(int(cluster_budget_w // lo), self._n_total)
            floor0 = lo
        else:
            # slots are filled in order: n nodes fit when the first n
            # floors fit under the budget together
            floors = np.cumsum([r[0] for r in self._ranges])
            max_nodes = int(
                np.searchsorted(floors, cluster_budget_w + 1e-9, side="right")
            )
            floor0 = self._ranges[0][0]
        if max_nodes < 1:
            raise InfeasibleBudgetError(
                f"cluster budget {cluster_budget_w:.1f} W below the single-node "
                f"floor {floor0:.1f} W"
            )
        if predefined:
            cands = tuple(n for n in sorted(predefined) if 1 <= n <= max_nodes)
            if not cands:
                raise InfeasibleBudgetError(
                    f"no predefined node count fits budget {cluster_budget_w:.1f} W"
                )
            return cands
        if self._rack_of is None:
            return tuple(range(1, max_nodes + 1))
        return self._rack_candidates(max_nodes)

    def _rack_candidates(self, max_nodes: int) -> tuple[int, ...]:
        """Rack-decomposed candidate node counts.

        Slots fill in rack order, and within one rack every node is
        interchangeable at the cluster-level granularity, so the search
        only needs (a) every count inside the first rack — the
        small-job regime where exact node count matters most — plus
        (b) each whole-rack prefix boundary, plus (c) the feasibility
        maximum.  Search cost scales with rack size, not fleet size.
        """
        sizes = np.bincount(np.asarray(self._rack_of, dtype=np.int64))
        boundaries = np.cumsum(sizes)
        cands = set(range(1, min(int(boundaries[0]), max_nodes) + 1))
        cands.update(int(b) for b in boundaries if b <= max_nodes)
        cands.add(max_nodes)
        return tuple(sorted(cands))

    def allocate(
        self,
        cluster_budget_w: float,
        predefined: tuple[int, ...] | None = None,
        mode: str = "predictive",
    ) -> ClusterAllocation:
        """Choose the node count and split the budget.

        ``mode='predictive'`` scores candidates with the performance
        model (the §III-B.1 procedure); ``mode='simple'`` applies
        Algorithm 1's listed arithmetic (largest count fitting the
        floor for predefined decompositions, budget over the range top
        otherwise).
        """
        if cluster_budget_w <= 0:
            raise InfeasibleBudgetError("cluster budget must be > 0")
        lo, hi = self.acceptable_range()
        if mode == "simple":
            n_nodes = self._simple_node_count(cluster_budget_w, lo, hi, predefined)
        elif mode == "predictive":
            n_nodes = self._predictive_node_count(cluster_budget_w, predefined)
        else:
            raise SchedulingError(f"unknown allocation mode {mode!r}")

        rack_budgets = None
        if self._rack_of is not None:
            # multi-rack fleet: split cluster → rack → node
            if self._ranges is None:
                lo_b: float | np.ndarray = lo
                hi_b: float | np.ndarray = hi
                total = min(cluster_budget_w / n_nodes, hi) * n_nodes
            else:
                lo_b = np.array([r[0] for r in self._ranges[:n_nodes]])
                hi_b = np.array([r[1] for r in self._ranges[:n_nodes]])
                total = min(cluster_budget_w, float(hi_b.sum()))
            from repro.core.hierarchy import split_cluster_budget

            budgets, rack_records = split_cluster_budget(
                total,
                self._factors[:n_nodes],
                lo_b,
                hi_b,
                self._rack_of,
                rack_names=self._rack_names,
                threshold=self._threshold,
            )
            rack_budgets = tuple(r.budget_w for r in rack_records)
        elif self._ranges is None:
            per_node = min(cluster_budget_w / n_nodes, hi)
            budgets = coordinate_power(
                per_node * n_nodes,
                self._factors[:n_nodes],
                lo_w=lo,
                hi_w=hi,
                threshold=self._threshold,
            )
        else:
            lo_arr = np.array([r[0] for r in self._ranges[:n_nodes]])
            hi_arr = np.array([r[1] for r in self._ranges[:n_nodes]])
            budgets = coordinate_power(
                min(cluster_budget_w, float(hi_arr.sum())),
                self._factors[:n_nodes],
                lo_w=lo_arr,
                hi_w=hi_arr,
                threshold=self._threshold,
            )
        perf = self._predict_cluster_perf(n_nodes, float(np.mean(budgets)))
        return ClusterAllocation(
            n_nodes=n_nodes,
            node_budgets_w=tuple(float(b) for b in budgets),
            node_lo_w=lo,
            node_hi_w=hi,
            predicted_cluster_perf=perf,
            node_ranges_w=(
                self._ranges[:n_nodes] if self._ranges is not None else None
            ),
            rack_budgets_w=rack_budgets,
        )

    # ------------------------------------------------------------------

    def _simple_node_count(
        self,
        budget: float,
        lo: float,
        hi: float,
        predefined: tuple[int, ...] | None,
    ) -> int:
        """Algorithm 1's literal node-count arithmetic."""
        if self._ranges is not None:
            return self._simple_node_count_ranged(budget, predefined)
        if predefined:
            fitting = [n for n in sorted(predefined) if n <= budget / lo]
            if not fitting:
                raise InfeasibleBudgetError(
                    f"no predefined count fits {budget:.1f} W at floor {lo:.1f} W"
                )
            return min(fitting[-1], self._n_total)
        if budget > self._n_total * hi:
            return self._n_total
        n = int(budget // hi)
        if n >= 1:
            return min(n, self._n_total)
        if budget >= lo:
            return 1
        raise InfeasibleBudgetError(
            f"budget {budget:.1f} W below single-node floor {lo:.1f} W"
        )

    def _simple_node_count_ranged(
        self, budget: float, predefined: tuple[int, ...] | None
    ) -> int:
        """The 'simple' arithmetic against per-slot ranges.

        Cumulative per-slot sums replace the ``n * lo`` / ``n * hi``
        products: n nodes fit when the first n floors fit, and the
        "each node at the range top" count is the largest n whose
        ceilings sum under the budget.
        """
        floors = np.cumsum([r[0] for r in self._ranges])
        if predefined:
            fitting = [
                n
                for n in sorted(predefined)
                if n <= self._n_total and floors[n - 1] <= budget + 1e-9
            ]
            if not fitting:
                raise InfeasibleBudgetError(
                    f"no predefined count fits {budget:.1f} W at floor "
                    f"{self._ranges[0][0]:.1f} W"
                )
            return fitting[-1]
        ceilings = np.cumsum([r[1] for r in self._ranges])
        if budget > ceilings[-1]:
            return self._n_total
        n = int(np.searchsorted(ceilings, budget + 1e-9, side="right"))
        if n >= 1:
            return n
        if budget >= self._ranges[0][0]:
            return 1
        raise InfeasibleBudgetError(
            f"budget {budget:.1f} W below single-node floor "
            f"{self._ranges[0][0]:.1f} W"
        )

    def _predictive_node_count(
        self, budget: float, predefined: tuple[int, ...] | None
    ) -> int:
        """Score candidate counts with the performance model.

        The per-node share clamps to the acceptable ceiling, so many
        candidate counts collapse to the same recommendation input on a
        large fleet — the recommender is consulted once per *unique*
        clamped share, keeping the scan's model cost bounded by the
        number of distinct shares rather than the fleet size.
        """
        _, hi = self.acceptable_range()
        best_n, best_perf = None, -np.inf
        memo: dict[float, float] = {}
        for n in self.candidate_node_counts(budget, predefined):
            share = min(budget / n, hi)
            node_perf = memo.get(share)
            if node_perf is None:
                node_perf = self._predict_node_perf(share)
                memo[share] = node_perf
            perf = node_perf * n
            if perf > best_perf * (1.0 + 1e-9):
                best_n, best_perf = n, perf
        if best_n is None:  # pragma: no cover - candidates is non-empty
            raise InfeasibleBudgetError("no feasible node count")
        return best_n

    def _predict_cluster_perf(self, n_nodes: int, node_budget: float) -> float:
        """Predicted job throughput at a candidate allocation.

        The profile measured full-problem single-node iteration times;
        with the work strong-scaled over *n_nodes*, the predicted step
        time is the node time divided by the node count (CLIP has no
        communication model — the allocator's estimate is deliberately
        the paper's optimistic one).
        """
        return self._predict_node_perf(node_budget) * n_nodes

    def _predict_node_perf(self, node_budget: float) -> float:
        """Predicted single-node throughput at a candidate budget."""
        _, hi = self.acceptable_range()
        try:
            cfg = self._rec.recommend(min(node_budget, hi))
        except InfeasibleBudgetError:
            return -np.inf
        return cfg.predicted_perf
