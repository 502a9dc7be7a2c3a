"""Cluster-wide budget-invariant auditing.

A power-bounded system has one non-negotiable contract: the sum of the
caps it programs never exceeds the cluster budget, and every node's cap
stays inside the application's acceptable power range (§III-B.1's
:math:`[L2, L1]`).  The scheduler, the multi-job coordinator, the job
queue, and the §VII runtime all *intend* to honour that contract, but
each computes caps on its own path — re-coordination after a budget
swing, a shrink onto surviving nodes, a co-scheduled batch — and a bug
on any path silently hands out watts the facility does not have.

:class:`BudgetInvariantMonitor` closes the loop: every issued cap set
is audited at the moment it is committed, and the audit trail is a
first-class artifact (JSON-safe, CI-checkable).  The monitor is shared
through :class:`~repro.core.pipeline.DecisionPipeline`, so every
consumer of the pipeline reports to the same ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BudgetInvariantError

__all__ = ["CapAudit", "BudgetInvariantMonitor"]

#: Absolute slack (watts) granted to floating-point cap arithmetic.
AUDIT_TOLERANCE_W = 1e-6


def _bound_field(bound, n_ranks: int):
    """The bound as stored on :class:`CapAudit`: one float when every
    rank shares it, a per-rank tuple otherwise."""
    if bound is None or isinstance(bound, (int, float)):
        return bound if bound is None else float(bound)
    seq = tuple(map(float, bound))
    if len(seq) != n_ranks:
        raise ValueError(
            f"per-rank bounds cover {len(seq)} ranks, cap set has {n_ranks}"
        )
    if seq and seq.count(seq[0]) == n_ranks:
        return seq[0]
    return seq


def _per_rank_bounds(bound, n_ranks: int):
    """One bound per rank from a stored :func:`_bound_field` value."""
    if bound is None or isinstance(bound, tuple):
        return bound
    return (bound,) * n_ranks


@dataclass(frozen=True)
class CapAudit:
    """One audited cap set: who issued what against which budget.

    ``node_lo_w`` / ``node_hi_w`` hold one float when every rank shares
    the bound and a per-rank tuple otherwise (ranks of different node
    classes), which keeps the audit ledger small on large one-class
    fleets.
    """

    source: str
    app_name: str
    cluster_budget_w: float
    #: Per-node cap tuples: ``(pkg, dram)`` on CPU nodes, ``(pkg,
    #: dram, gpu)`` on accelerator nodes — a set may mix both.
    caps: tuple[tuple[float, ...], ...]
    node_lo_w: float | tuple[float, ...] | None
    node_hi_w: float | tuple[float, ...] | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether the cap set satisfied every checked invariant."""
        return not self.violations

    @property
    def total_capped_w(self) -> float:
        """Sum of every programmed cap across all nodes and domains."""
        return float(sum(sum(cap) for cap in self.caps))

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "source": self.source,
            "app_name": self.app_name,
            "cluster_budget_w": self.cluster_budget_w,
            "total_capped_w": self.total_capped_w,
            "n_nodes": len(self.caps),
            "node_lo_w": (
                list(self.node_lo_w)
                if isinstance(self.node_lo_w, tuple)
                else self.node_lo_w
            ),
            "node_hi_w": (
                list(self.node_hi_w)
                if isinstance(self.node_hi_w, tuple)
                else self.node_hi_w
            ),
            "ok": self.ok,
            "violations": list(self.violations),
        }


@dataclass
class BudgetInvariantMonitor:
    """Audits every issued cap set against the cluster power contract.

    The monitor is append-only: :meth:`audit` records the outcome and
    returns it, never raising, so enforcement paths stay hot;
    :meth:`assert_clean` is the strict checkpoint for tests, CI, and
    drain loops that must prove zero violations.
    """

    audits: list[CapAudit] = field(default_factory=list)
    #: The failed audits, appended as they land (no ledger rescans).
    _failed: list[CapAudit] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._failed = [a for a in self.audits if not a.ok]

    def audit(
        self,
        source: str,
        app_name: str,
        cluster_budget_w: float,
        caps: tuple[tuple[float, ...], ...],
        node_lo_w: "float | Sequence[float] | None" = None,
        node_hi_w: "float | Sequence[float] | None" = None,
        tolerance_w: float = AUDIT_TOLERANCE_W,
    ) -> CapAudit:
        """Record one issued cap set and check the invariants.

        Checks: the caps summed over every node and power domain stay
        at or under ``cluster_budget_w``; when the acceptable range is
        supplied, every node's total cap sits in ``[node_lo_w,
        node_hi_w]``.  Each node's tuple carries one entry per capped
        domain — ``(pkg, dram)`` on CPU nodes, ``(pkg, dram, gpu)`` on
        accelerator nodes — and a set may mix lengths on a mixed
        fleet.  Bounds are per-rank sequences aligned with *caps* —
        each slot's class has its own range — or one scalar for every
        rank.  Range checks use a relative tolerance on top of
        *tolerance_w* so legitimate float round-off never flags.
        """
        node_lo_w = _bound_field(node_lo_w, len(caps))
        node_hi_w = _bound_field(node_hi_w, len(caps))
        lo_seq = _per_rank_bounds(node_lo_w, len(caps))
        hi_seq = _per_rank_bounds(node_hi_w, len(caps))
        violations: list[str] = []
        total = float(sum(sum(cap) for cap in caps))
        slack = tolerance_w + 1e-9 * max(abs(cluster_budget_w), 1.0)
        if total > cluster_budget_w + slack:
            violations.append(
                f"sum of caps {total:.3f} W exceeds cluster budget "
                f"{cluster_budget_w:.3f} W"
            )
        for rank, cap in enumerate(caps):
            node_total = sum(cap)
            lo = lo_seq[rank] if lo_seq is not None else None
            hi = hi_seq[rank] if hi_seq is not None else None
            if any(c < -tolerance_w for c in cap):
                listed = ", ".join(f"{c:.3f}" for c in cap)
                violations.append(
                    f"node {rank}: negative cap ({listed}) W"
                )
            if lo is not None and node_total < lo - slack:
                violations.append(
                    f"node {rank}: cap {node_total:.3f} W below the "
                    f"acceptable floor {lo:.3f} W"
                )
            if hi is not None and node_total > hi + slack:
                violations.append(
                    f"node {rank}: cap {node_total:.3f} W above the "
                    f"acceptable ceiling {hi:.3f} W"
                )
        audit = CapAudit(
            source=source,
            app_name=app_name,
            cluster_budget_w=cluster_budget_w,
            caps=tuple(tuple(float(c) for c in cap) for cap in caps),
            node_lo_w=node_lo_w,
            node_hi_w=node_hi_w,
            violations=tuple(violations),
        )
        self.audits.append(audit)
        if violations:
            self._failed.append(audit)
        return audit

    def audit_split(
        self,
        source: str,
        app_name: str,
        parent_budget_w: float,
        child_budgets_w,
        tolerance_w: float = AUDIT_TOLERANCE_W,
    ) -> CapAudit:
        """Audit one level of a hierarchical budget split.

        Checks that the child budgets (e.g. per-rack shares of the
        cluster budget) sum to at most the parent budget.  Each child
        budget is recorded as a ``(budget, 0)`` cap pair so the split
        rides the same append-only ledger as node-level cap sets.
        """
        return self.audit(
            source,
            app_name,
            parent_budget_w,
            tuple((float(b), 0.0) for b in child_budgets_w),
            tolerance_w=tolerance_w,
        )

    # ------------------------------------------------------------------

    @property
    def n_audits(self) -> int:
        """Total cap sets recorded so far."""
        return len(self.audits)

    @property
    def n_violations(self) -> int:
        """Number of recorded cap sets that broke an invariant."""
        return len(self._failed)

    def violations(self) -> list[CapAudit]:
        """The failed audits, in issue order."""
        return list(self._failed)

    def assert_clean(self) -> None:
        """Raise :class:`BudgetInvariantError` if any audit failed."""
        bad = self.violations()
        if bad:
            first = bad[0]
            raise BudgetInvariantError(
                f"{len(bad)}/{self.n_audits} cap sets violated the power "
                f"contract; first: [{first.source}] {first.violations[0]}"
            )

    def reset(self) -> None:
        """Clear the audit trail (between independent scenarios)."""
        self.audits.clear()
        self._failed.clear()

    def report(self) -> dict:
        """JSON-safe summary: counts per source plus any violations."""
        per_source: dict[str, int] = {}
        for a in self.audits:
            per_source[a.source] = per_source.get(a.source, 0) + 1
        return {
            "n_audits": self.n_audits,
            "n_violations": self.n_violations,
            "audits_by_source": per_source,
            "violations": [a.to_dict() for a in self.violations()],
        }
