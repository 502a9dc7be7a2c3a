"""Power-trace export and run audits.

The paper's helper tools automate "the collection and recording of
performance and power data for jobs" (§IV-B.4).  These utilities turn
the simulator's meters and run records into the artifacts an operator
would keep: CSV traces, per-run summaries, and cap-violation audits.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.hw.cluster import SimulatedCluster
from repro.sim.trace import RunResult

__all__ = [
    "samples_to_csv",
    "cluster_trace_csv",
    "CapViolation",
    "audit_cap_violations",
    "summarize_run",
    "ThermalAssessment",
    "assess_thermals",
]


def samples_to_csv(samples) -> str:
    """Render meter samples as CSV (t_s, pkg_w, dram_w, other_w, total_w)."""
    buf = io.StringIO()
    buf.write("t_s,pkg_w,dram_w,other_w,total_w\n")
    for s in samples:
        buf.write(
            f"{s.t_s:.3f},{s.pkg_w:.3f},{s.dram_w:.3f},"
            f"{s.other_w:.3f},{s.total_w:.3f}\n"
        )
    return buf.getvalue()


def cluster_trace_csv(cluster: SimulatedCluster) -> str:
    """One CSV over all nodes' meters (node_id column added)."""
    buf = io.StringIO()
    buf.write("node_id,t_s,pkg_w,dram_w,other_w,total_w\n")
    for node in cluster.nodes:
        for s in node.meter.samples():
            buf.write(
                f"{node.node_id},{s.t_s:.3f},{s.pkg_w:.3f},{s.dram_w:.3f},"
                f"{s.other_w:.3f},{s.total_w:.3f}\n"
            )
    return buf.getvalue()


@dataclass(frozen=True)
class CapViolation:
    """A node whose RAPL cap was below the hardware floor during a run."""

    node_id: int
    domain: str
    steady_power_w: float


def audit_cap_violations(result: RunResult) -> list[CapViolation]:
    """List every domain that ran above its programmed limit.

    Violations happen only when a cap was set below the domain's
    hardware floor (lowest P-state, lowest memory level, or the GPU
    board's lowest clock busy or its idle draw) — a scheduler bug or an
    infeasible budget the caller should know about.  Per node, in
    PKG, DRAM, GPU order.
    """
    out: list[CapViolation] = []
    for rec in result.nodes:
        op = rec.operating_point
        for violated, domain, power_w in (
            (op.cpu_cap_violated, "pkg", op.pkg_power_w),
            (op.mem_cap_violated, "dram", op.dram_power_w),
            (op.gpu_cap_violated, "gpu", op.gpu_power_w),
        ):
            if violated:
                out.append(CapViolation(rec.node_id, domain, power_w))
    return out


@dataclass(frozen=True)
class ThermalAssessment:
    """Thermal verdict for one node's steady state during a run."""

    node_id: int
    pkg_power_w: float
    steady_state_c: float
    sustainable: bool
    time_to_throttle_s: float | None


def assess_thermals(result: RunResult, spec=None) -> list[ThermalAssessment]:
    """Evaluate each node's steady PKG power against the thermal model.

    A configuration the power caps allow can still be thermally
    unsustainable (hot room, degraded fan — pass a custom
    :class:`~repro.hw.thermal.ThermalSpec`); this audit reports each
    node's equilibrium temperature and, when unsustainable, the time a
    fresh package would take to hit PROCHOT.
    """
    from repro.hw.thermal import ThermalModel, ThermalSpec

    spec = spec or ThermalSpec()
    out: list[ThermalAssessment] = []
    for rec in result.nodes:
        # the thermal spec is per package; split node PKG power evenly
        per_pkg = rec.operating_point.pkg_power_w / 2.0
        steady = spec.steady_state_c(per_pkg)
        sustainable = steady < spec.t_junction_max_c
        eta = None
        if not sustainable:
            eta = ThermalModel(spec).time_to_throttle_s(per_pkg)
        out.append(
            ThermalAssessment(
                node_id=rec.node_id,
                pkg_power_w=rec.operating_point.pkg_power_w,
                steady_state_c=steady,
                sustainable=sustainable,
                time_to_throttle_s=eta,
            )
        )
    return out


def summarize_run(result: RunResult) -> dict:
    """Flat metrics dictionary for logging/regression tracking."""
    ops = [r.operating_point for r in result.nodes]
    return {
        "app": result.app_name,
        "n_nodes": result.n_nodes,
        "n_threads": result.n_threads_per_node,
        "affinity": result.affinity,
        "iterations": result.iterations,
        "total_time_s": result.total_time_s,
        "performance": result.performance,
        "avg_power_w": result.avg_power_w,
        "peak_power_w": result.peak_power_w,
        "energy_j": result.energy_j,
        "edp": result.edp,
        "imbalance": result.imbalance,
        "comm_fraction": result.comm_s / result.t_step_s if result.t_step_s else 0.0,
        "min_frequency_ghz": min(op.frequency_hz for op in ops) / 1e9,
        "max_frequency_ghz": max(op.frequency_hz for op in ops) / 1e9,
        "any_duty_cycling": any(op.duty_cycle < 1.0 for op in ops),
        "cap_violations": len(audit_cap_violations(result)),
    }
