"""Run records: what one simulated execution produced.

:class:`NodeRunRecord` captures one node's resolved steady state;
:class:`RunResult` aggregates the whole job.  These are the objects
every experiment consumes, so they carry everything the paper reports:
wall time, per-domain power, energy, throttle flags, and the Table-I
hardware events for the profiler.

The simulator hands its per-node results over as :class:`NodeColumns`
(one sequence per quantity, in rank order) and a :class:`RunResult`
builds its :class:`NodeRunRecord` objects from them only when
:attr:`RunResult.nodes` is first read: an exhaustive search scores
thousands of candidates and reads a few numbers of each, and a job
segment's accounting reads a few per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.hw.counters import EventCounters
from repro.hw.rapl import OperatingPoint

__all__ = ["NodeColumns", "NodeRunRecord", "RunResult"]


@dataclass(frozen=True)
class NodeRunRecord:
    """One participating node's steady state during the run."""

    node_id: int
    operating_point: OperatingPoint
    t_iter_s: float
    activity: float
    busy_fraction: float
    avg_pkg_w: float
    avg_dram_w: float
    events: EventCounters
    phase_times: tuple[tuple[str, float], ...] = ()
    #: Time-averaged accelerator power (0 on CPU-only nodes).
    avg_gpu_w: float = 0.0
    #: Share of the iteration the device spent busy (0 without offload).
    gpu_busy_fraction: float = 0.0

    @property
    def avg_capped_w(self) -> float:
        """Average RAPL-visible power (PKG + DRAM + GPU where present)."""
        return self.avg_pkg_w + self.avg_dram_w + self.avg_gpu_w


class NodeColumns(NamedTuple):
    """One run's per-node results as columns, one entry per rank.

    Each field but :attr:`phase_names` holds one value per
    participating node, in rank order; the names follow the
    :class:`NodeRunRecord` and :class:`OperatingPoint` fields they
    fill.  A :class:`~repro.sim.batch.RunCache` shares results between
    callers, so treat the columns as read-only.
    """

    node_id: Sequence[int]
    n_sockets: Sequence[int]
    frequency_hz: Sequence[float]
    #: The per-socket DRAM bandwidth ceiling (uniform across sockets).
    bandwidth_limit: Sequence[float]
    pkg_power_w: Sequence[float]
    dram_power_w: Sequence[float]
    cpu_throttled: Sequence[bool]
    mem_throttled: Sequence[bool]
    cpu_cap_violated: Sequence[bool]
    mem_cap_violated: Sequence[bool]
    duty_cycle: Sequence[float]
    gpu_clock_hz: Sequence[float]
    gpu_power_w: Sequence[float]
    gpu_throttled: Sequence[bool]
    gpu_cap_violated: Sequence[bool]
    #: Counter values ``event0``..``event6`` per rank.
    events: Sequence[Sequence[float]]
    duration_s: Sequence[float]
    t_iter_s: Sequence[float]
    activity: Sequence[float]
    busy_fraction: Sequence[float]
    avg_pkg_w: Sequence[float]
    avg_dram_w: Sequence[float]
    #: Per-phase times per rank, in :attr:`phase_names` order.
    phase_times: Sequence[Sequence[float]]
    avg_gpu_w: Sequence[float]
    gpu_busy_fraction: Sequence[float]
    phase_names: tuple[str, ...]

    @classmethod
    def from_records(cls, records: Sequence[NodeRunRecord]) -> "NodeColumns":
        """The columns of per-node records (the inverse of :meth:`records`)."""
        ops = [rec.operating_point for rec in records]
        return cls(
            node_id=[rec.node_id for rec in records],
            n_sockets=[len(op.bandwidth_per_socket) for op in ops],
            frequency_hz=[op.frequency_hz for op in ops],
            bandwidth_limit=[op.bandwidth_per_socket[0] for op in ops],
            pkg_power_w=[op.pkg_power_w for op in ops],
            dram_power_w=[op.dram_power_w for op in ops],
            cpu_throttled=[op.cpu_throttled for op in ops],
            mem_throttled=[op.mem_throttled for op in ops],
            cpu_cap_violated=[op.cpu_cap_violated for op in ops],
            mem_cap_violated=[op.mem_cap_violated for op in ops],
            duty_cycle=[op.duty_cycle for op in ops],
            gpu_clock_hz=[op.gpu_clock_hz for op in ops],
            gpu_power_w=[op.gpu_power_w for op in ops],
            gpu_throttled=[op.gpu_throttled for op in ops],
            gpu_cap_violated=[op.gpu_cap_violated for op in ops],
            events=[
                (e.event0, e.event1, e.event2, e.event3, e.event4, e.event5,
                 e.event6)
                for e in (rec.events for rec in records)
            ],
            duration_s=[rec.events.duration_s for rec in records],
            t_iter_s=[rec.t_iter_s for rec in records],
            activity=[rec.activity for rec in records],
            busy_fraction=[rec.busy_fraction for rec in records],
            avg_pkg_w=[rec.avg_pkg_w for rec in records],
            avg_dram_w=[rec.avg_dram_w for rec in records],
            phase_times=[
                tuple(t for _, t in rec.phase_times) for rec in records
            ],
            avg_gpu_w=[rec.avg_gpu_w for rec in records],
            gpu_busy_fraction=[rec.gpu_busy_fraction for rec in records],
            phase_names=(
                tuple(name for name, _ in records[0].phase_times)
                if records else ()
            ),
        )

    def records(self) -> tuple[NodeRunRecord, ...]:
        """The per-node records, in rank order."""
        return tuple(
            NodeRunRecord(
                node_id=self.node_id[r],
                operating_point=OperatingPoint(
                    frequency_hz=self.frequency_hz[r],
                    bandwidth_per_socket=(self.bandwidth_limit[r],)
                    * self.n_sockets[r],
                    pkg_power_w=self.pkg_power_w[r],
                    dram_power_w=self.dram_power_w[r],
                    cpu_throttled=self.cpu_throttled[r],
                    mem_throttled=self.mem_throttled[r],
                    cpu_cap_violated=self.cpu_cap_violated[r],
                    mem_cap_violated=self.mem_cap_violated[r],
                    duty_cycle=self.duty_cycle[r],
                    gpu_clock_hz=self.gpu_clock_hz[r],
                    gpu_power_w=self.gpu_power_w[r],
                    gpu_throttled=self.gpu_throttled[r],
                    gpu_cap_violated=self.gpu_cap_violated[r],
                ),
                t_iter_s=self.t_iter_s[r],
                activity=self.activity[r],
                busy_fraction=self.busy_fraction[r],
                avg_pkg_w=self.avg_pkg_w[r],
                avg_dram_w=self.avg_dram_w[r],
                events=EventCounters(
                    *self.events[r], event7=0.0, duration_s=self.duration_s[r]
                ),
                phase_times=tuple(zip(self.phase_names, self.phase_times[r])),
                avg_gpu_w=self.avg_gpu_w[r],
                gpu_busy_fraction=self.gpu_busy_fraction[r],
            )
            for r in range(len(self.node_id))
        )


class _LazyNodes:
    """The ``RunResult.nodes`` field: records built from columns on first read.

    The columns are what every result stores (:attr:`RunResult.columns`).
    Set with :class:`NodeColumns`, as the simulator does, it keeps them
    and builds the records on first read; set with records (a
    hand-built or :func:`dataclasses.replace`-d result) it keeps those
    and builds their columns.  A data descriptor, so the frozen
    dataclass ``__init__``, ``==``, ``asdict`` and ``repr`` all go
    through it.
    """

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("nodes")  # a required field: no default
        state = result.__dict__
        nodes = state.get("_nodes")
        if nodes is None:
            # concurrent first reads may both build; they build equal tuples
            nodes = state["_nodes"] = state["_columns"].records()
        return nodes

    def __set__(self, result, value) -> None:
        state = result.__dict__
        if isinstance(value, NodeColumns):
            state["_columns"] = value
        else:
            state["_nodes"] = tuple(value)
            state["_columns"] = NodeColumns.from_records(state["_nodes"])


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated job execution.

    ``nodes`` takes either the per-node records or, as the simulator
    builds it, their :class:`NodeColumns`; reading ``nodes`` always
    yields records.
    """

    app_name: str
    n_nodes: int
    n_threads_per_node: int
    affinity: str
    iterations: int
    t_step_s: float
    comm_s: float
    total_time_s: float
    energy_j: float
    avg_power_w: float
    peak_power_w: float
    nodes: tuple[NodeRunRecord, ...] = _LazyNodes()  # type: ignore[assignment]

    @property
    def columns(self) -> NodeColumns:
        """The per-node results as columns, without building records."""
        return self.__dict__["_columns"]

    @property
    def performance(self) -> float:
        """Throughput in iterations per second — the paper's `perf`."""
        return self.iterations / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def imbalance(self) -> float:
        """Max-over-mean iteration-time spread across nodes.

        1.0 means perfectly balanced; manufacturing variability under a
        uniform cap pushes this above 1 (§III-B.2).
        """
        times = [n.t_iter_s for n in self.nodes]
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s), a common efficiency summary."""
        return self.energy_j * self.total_time_s

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.app_name}: {self.n_nodes} nodes x "
            f"{self.n_threads_per_node} threads [{self.affinity}] "
            f"t={self.total_time_s:.2f}s perf={self.performance:.4f} it/s "
            f"avgP={self.avg_power_w:.0f}W peakP={self.peak_power_w:.0f}W"
        )
