"""The execution engine.

Runs a workload on the simulated cluster under a concrete execution
configuration (nodes, threads, affinity, per-node power caps) and
returns a :class:`~repro.sim.trace.RunResult`.

The physics lives in one place, the vectorized
:class:`~repro.sim.batch.BatchEvaluator`: a damped fixed point between
RAPL cap resolution and the workload's timing model (bandwidth demand
and core activity depend on the iteration time, which depends on the
frequency and bandwidth the caps allow), solved for many candidate
configurations at once.  The engine offers two ways in:

* :meth:`ExecutionEngine.evaluate` / :meth:`~ExecutionEngine.evaluate_many`
  answer what-if questions — "what would this config produce?" — with
  no hardware side effects and regardless of node availability;
* :meth:`ExecutionEngine.run` executes one job on the hardware: it
  refuses failed nodes, programs every participant's caps through the
  actuation policy, solves the physics under the caps the registers
  actually enforce, and accounts the run into RAPL energy counters,
  throttle events and power meters.

Execution is bulk-synchronous: every iteration, all participating
nodes compute their local share, then exchange halos/collectives; the
slowest node paces the step, which is how manufacturing variability
turns into synchronization waste (§III-B.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import NodeFailureError, SchedulingError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.hw.power import PowerBreakdown
from repro.sim.batch import BatchEvaluator, config_cache_key
from repro.sim.mpi import CommModel
from repro.sim.trace import RunResult
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["ExecutionConfig", "ExecutionEngine"]


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything the launcher decides before a run.

    ``pkg_cap_w`` / ``dram_cap_w`` are *per participating node* and
    cover all sockets of the node (``None`` leaves the factory default
    limit); ``gpu_cap_w`` additionally limits the device domain on
    accelerator-bearing nodes (silently ignored elsewhere, matching the
    hardware: the register does not exist).  ``per_node_caps``
    overrides them with one ``(pkg, dram)`` — or ``(pkg, dram, gpu)``
    for GPU slots — tuple per node for variability-coordinated
    allocations (§III-B.2).  ``node_ids`` selects specific nodes
    (defaults to the first ``n_nodes``).  ``phase_threads`` optionally
    overrides the thread count of named workload phases — the paper's
    BT-MZ phase-wise concurrency adjustment (§V-B.1).  ``scaling``
    chooses strong (divide the global problem over the nodes, the
    paper's setting) or weak (a reference-size domain per node)
    execution.
    """

    n_nodes: int
    n_threads: int
    affinity: AffinityKind | None = None
    pkg_cap_w: float | None = None
    dram_cap_w: float | None = None
    gpu_cap_w: float | None = None
    per_node_caps: tuple[tuple[float, ...], ...] | None = None
    node_ids: tuple[int, ...] | None = None
    frequency_hz: float | None = None
    iterations: int | None = None
    phase_threads: dict[str, int] = field(default_factory=dict)
    scaling: str = "strong"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise SchedulingError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_threads < 1:
            raise SchedulingError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.iterations is not None and self.iterations < 1:
            raise SchedulingError("iterations override must be >= 1")
        if self.per_node_caps is not None:
            if len(self.per_node_caps) != self.n_nodes:
                raise SchedulingError("per_node_caps must have one entry per node")
            if any(len(entry) not in (2, 3) for entry in self.per_node_caps):
                raise SchedulingError(
                    "per_node_caps entries must be (pkg, dram) or (pkg, dram, gpu)"
                )
        if self.node_ids is not None and len(self.node_ids) != self.n_nodes:
            raise SchedulingError("node_ids must have one entry per node")
        if self.scaling not in ("strong", "weak"):
            raise SchedulingError(
                f"scaling must be 'strong' or 'weak', got {self.scaling!r}"
            )

    def caps_for(self, rank: int) -> tuple[float | None, float | None]:
        """(PKG, DRAM) caps for the rank-th participating node."""
        if self.per_node_caps is not None:
            entry = self.per_node_caps[rank]
            return entry[0], entry[1]
        return self.pkg_cap_w, self.dram_cap_w

    def gpu_cap_for(self, rank: int) -> float | None:
        """GPU cap for the rank-th node (``None`` = uncapped/absent)."""
        if self.per_node_caps is not None:
            entry = self.per_node_caps[rank]
            return entry[2] if len(entry) > 2 else None
        return self.gpu_cap_w

    @property
    def node_budget_w(self) -> float | None:
        """Capped domain budget per node, when PKG and DRAM are set.

        Includes the GPU cap when one is programmed; CPU-only configs
        keep the legacy PKG+DRAM sum.
        """
        if self.pkg_cap_w is None or self.dram_cap_w is None:
            return None
        if self.gpu_cap_w is not None:
            return self.pkg_cap_w + self.dram_cap_w + self.gpu_cap_w
        return self.pkg_cap_w + self.dram_cap_w


class ExecutionEngine:
    """Runs workloads on a :class:`SimulatedCluster`.

    ``cache`` optionally attaches a :class:`~repro.sim.batch.RunCache`:
    when set, :meth:`run`, :meth:`evaluate` and :meth:`evaluate_many`
    memoize results on ``(app, config, seed, cluster spec, node
    efficiencies)``.  A cache hit skips the run's hardware side effects
    (cap writes, RAPL energy and throttle accounting, meter records),
    so attach a cache only where repeated *evaluation* is the point —
    search, profiling, benchmarks — not where per-run accounting
    matters.
    """

    def __init__(self, cluster: SimulatedCluster, seed: int = 42, cache=None):
        self._cluster = cluster
        self._comm = CommModel(cluster.spec)
        self._seed = seed
        self._cache = cache
        self._batch = None
        self._calibration: dict = {}

    @property
    def cluster(self) -> SimulatedCluster:
        """The testbed this engine executes on."""
        return self._cluster

    @property
    def comm_model(self) -> CommModel:
        """Inter-node communication model."""
        return self._comm

    @property
    def seed(self) -> int:
        """Seed of the per-run counter-noise RNG."""
        return self._seed

    @property
    def cache(self):
        """Attached :class:`~repro.sim.batch.RunCache` (or ``None``)."""
        return self._cache

    @cache.setter
    def cache(self, cache) -> None:
        self._cache = cache

    @property
    def calibration_cache(self) -> dict:
        """Cached node-factor calibrations keyed by cluster fingerprint."""
        return self._calibration

    def calibration_fingerprint(self, n_threads: int | None = None):
        """Key identifying the fleet state a calibration is valid for.

        Includes per-node efficiencies and the failed set, so
        ``fail_node`` / ``recover_node`` / ``degrade_node`` each change
        the fingerprint and invalidate cached factors by construction.
        """
        return (
            n_threads,
            self._cluster.spec,
            self._cluster.efficiencies,
            self._cluster.failed_node_ids,
        )

    def cache_key(self, app: WorkloadCharacteristics, config: ExecutionConfig):
        """Memoization key for one (app, config) run on this engine.

        Includes the current per-node efficiency factors so cluster
        mutations (``degrade_node``) invalidate stale entries.
        """
        return (
            app,
            config_cache_key(config),
            self._seed,
            self._cluster.spec,
            self._cluster.efficiencies,
        )

    # ------------------------------------------------------------------

    def evaluate_many(
        self, app: WorkloadCharacteristics, configs: list[ExecutionConfig]
    ) -> list[RunResult]:
        """Score many configs at once as one array program.

        Returns one :class:`RunResult` per config, in order, identical
        to what :meth:`run` would produce under perfect actuation —
        computed as a single ``(n_candidates, n_nodes)`` array program
        and memoized through :attr:`cache` when one is attached.  No
        hardware side effects; node availability is not checked.
        """
        return self._evaluator().run_many(app, configs)

    def evaluate(
        self, app: WorkloadCharacteristics, config: ExecutionConfig
    ) -> RunResult:
        """Side-effect-free single-config evaluation.

        A what-if answer: failed nodes are evaluated as if they were
        up, and no register, counter or meter is touched.  Use
        :meth:`run` to execute a job.
        """
        return self.evaluate_many(app, [config])[0]

    def _evaluator(self) -> BatchEvaluator:
        if self._batch is None:
            self._batch = BatchEvaluator(self)
        return self._batch

    # ------------------------------------------------------------------

    def run(
        self, app: WorkloadCharacteristics, config: ExecutionConfig
    ) -> RunResult:
        """Execute *app* under *config* and return the result.

        Unlike :meth:`evaluate`, this is a run on the hardware: failed
        nodes are refused, each participant's caps are programmed
        through its actuation policy (so dropped, partial and drifted
        writes happen here), the physics is solved under the caps the
        registers actually *enforce*, and the run is accounted into
        every participant's RAPL energy counters, throttle-event
        counts and power meter from the result's per-node columns.

        Raises
        ------
        SchedulingError
            If the configuration does not fit the cluster.
        NodeFailureError
            If a participating node has failed (before any cap write).
        """
        if self._cache is not None:
            key = self.cache_key(app, config)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
        evaluator = self._evaluator()
        cluster = self._cluster
        participants = [
            cluster.node(i) for i in evaluator.participants(config)
        ]
        down = [
            n.node_id for n in participants if not cluster.is_available(n.node_id)
        ]
        if down:
            raise NodeFailureError(
                f"cannot run on failed node(s) {down}; "
                f"available: {list(cluster.available_node_ids)}"
            )
        for rank, node in enumerate(participants):
            pkg_cap, dram_cap = config.caps_for(rank)
            node.set_power_caps(pkg_cap, dram_cap, config.gpu_cap_for(rank))
        enforced = tuple(node.rapl.enforced_caps() for node in participants)
        (result,) = evaluator.evaluate(
            app, [replace(config, per_node_caps=enforced)]
        )
        cols = result.columns
        for rank, node in enumerate(participants):
            spec = node.spec
            node.rapl.accumulate(
                cols.pkg_power_w[rank],
                cols.dram_power_w[rank],
                cols.gpu_power_w[rank],
                result.iterations * cols.t_iter_s[rank],
            )
            node.rapl.note_throttling(
                cols.cpu_throttled[rank],
                cols.mem_throttled[rank],
                cols.gpu_throttled[rank],
            )
            node.meter.record(
                PowerBreakdown(
                    pkg_w=cols.avg_pkg_w[rank],
                    dram_w=cols.avg_dram_w[rank],
                    other_w=spec.p_other_w,
                    gpu_w=cols.avg_gpu_w[rank] if spec.has_gpu else None,
                ),
                result.total_time_s,
            )
        if self._cache is not None:
            self._cache.put(key, result)
        return result
