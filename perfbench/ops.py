"""The benchmark's workloads: one op boots a fresh system and is verified.

Ops drive the paper workloads through the repo's public entry points:

* ``pmake``: :class:`PmakeWorkload` on a 4-cell Hive with 4 nodes and
  voting agreement, mounted as ``repro run`` mounts it;
* ``pmake-irix``: the same workload on ``boot_irix`` (firewall off),
  the paper's Table 7.2 baseline;
* ``faults``: one Table 7.4 trial per op with the default
  :class:`FaultExperimentRunner` settings, cycling through the five
  scenarios in a fixed order.

Every op is split into phases by a :class:`PhaseClock`: ``setup.boot``
and ``setup.populate`` (the workload's populate program and cache warm)
make up its set-up; ``run``, ``verify`` and ``check`` make up its timed
part, from the workload driver's start through verification.  The
driver's start is marked by hooking the workload classes'
``driver_program`` / ``parent_program`` (once per op, in every mode).
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.faultexp import (
    ALL_SCENARIOS,
    FaultExperimentRunner,
    boot_faultexp_system,
)
from repro.core.hive import boot_hive, boot_irix
from repro.core.invariants import check_system
from repro.hardware.machine import MachineConfig
from repro.hardware.params import HardwareParams
from repro.obs.metrics import _firewall_hardware, snapshot_system
from repro.obs.profile import coherence_tiers, rpc_tiers
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram
from repro.workloads import Platform, PmakeWorkload, RaytraceWorkload

from tracer import SETUP_PHASES, TIMED_PHASES

NODES = 4
CELLS = 4


@dataclass
class OpResult:
    index: int
    seed: int
    label: str
    phases: Dict[str, float]
    fingerprint: Dict[str, Any]
    failed: Optional[str] = None
    #: values the per-layer metrics read (simulated, deterministic)
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.phases.get(p, 0.0) for p in SETUP_PHASES)

    @property
    def timed_s(self) -> float:
        return sum(self.phases.get(p, 0.0) for p in TIMED_PHASES)

    @property
    def host_s(self) -> float:
        return sum(self.phases.values())

    @property
    def raised(self) -> bool:
        """The op ended with an exception (see :func:`run_op`)."""
        return "exception" in self.fingerprint

    @property
    def digest(self) -> str:
        blob = json.dumps(self.fingerprint, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class PhaseClock:
    """Host-time phase boundaries of the current op.

    With a tracer attached, each phase is also the bottom span of the
    tracer's stack; with a GC attribution attached, collector pauses are
    charged to the current op and phase.
    """

    def __init__(self, tracer=None, gc_attr=None):
        self.tracer = tracer
        self.gc_attr = gc_attr
        self.driver_started = False
        self.workload_runs = 0
        self._marks: List[tuple] = []

    def begin_op(self, op: int) -> None:
        self.driver_started = False
        self.workload_runs = 0
        self._marks = []
        if self.tracer is not None:
            self.tracer.begin_op(op)
        if self.gc_attr is not None:
            self.gc_attr.op = op

    def phase(self, name: str) -> None:
        self._marks.append((name, time.perf_counter()))
        if self.tracer is not None:
            self.tracer.phase(name)
        if self.gc_attr is not None:
            self.gc_attr.phase = name

    def attach_sim(self, sim) -> None:
        if self.tracer is not None:
            self.tracer.sim = sim

    def end_op(self) -> Dict[str, float]:
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        if self.gc_attr is not None:
            self.gc_attr.op = -1
            self.gc_attr.phase = ""
        phases: Dict[str, float] = {}
        bounds = self._marks + [("", end)]
        for (name, t0), (_next, t1) in zip(bounds, bounds[1:]):
            phases[name] = phases.get(name, 0.0) + (t1 - t0)
        return phases

    def collect(self, op: int) -> float:
        """Collect the finished op's garbage; returns the seconds taken."""
        if self.gc_attr is not None:
            self.gc_attr.op = op
            self.gc_attr.phase = "collect"
        start = time.perf_counter()
        gc.collect()
        elapsed = time.perf_counter() - start
        if self.gc_attr is not None:
            self.gc_attr.op = -1
        return elapsed

    def abort_op(self) -> Dict[str, float]:
        """End an op that raised: unwind any spans still open."""
        if self.tracer is not None:
            self.tracer.stack[1:] = []
        return self.end_op()


class WorkloadMarkers:
    """Hook the workloads' driver entry points to mark phase changes.

    The first driver of an op starts its ``run`` phase; in a fault
    trial the second top-level workload run is the correctness-check
    pmake and starts the ``check`` phase.  The hooks cost one call per
    workload run and are installed in traced and untraced runs alike.
    """

    DRIVERS = ((PmakeWorkload, "driver_program"),
               (RaytraceWorkload, "parent_program"))
    RUNS = ((PmakeWorkload, "run"), (RaytraceWorkload, "run"))

    def __init__(self, clock: PhaseClock):
        #: the clock of the op being run; callers may switch it between ops
        self.clock = clock
        self._saved: List[tuple] = []

    def __enter__(self) -> "WorkloadMarkers":
        markers = self
        for cls, name in self.DRIVERS:
            original = cls.__dict__[name]

            def driver(*args, _original=original, **kwargs):
                clock = markers.clock
                if not clock.driver_started:
                    clock.driver_started = True
                    clock.phase("run")
                return _original(*args, **kwargs)
            self._patch(cls, name, driver)
        for cls, name in self.RUNS:
            original = cls.__dict__[name]

            def run(*args, _original=original, **kwargs):
                clock = markers.clock
                clock.workload_runs += 1
                if clock.workload_runs == 2:
                    clock.phase("check")
                return _original(*args, **kwargs)
            self._patch(cls, name, run)
        return self

    def _patch(self, cls, name, fn) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, fn)

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()


# -- counters and fingerprints -------------------------------------------


def _irix_snapshot(kernel) -> Dict[str, Any]:
    """The IRIX counterpart of ``snapshot_system``: one kernel, no cells."""
    machine = kernel.machine
    stats = machine.coherence.stats
    return {
        "time_ns": kernel.sim.now,
        "kernel": kernel.metrics.snapshot(),
        "machine": {
            "coherence": {
                "read_hits": stats.read_hits,
                "read_misses": stats.read_misses,
                "write_hits": stats.write_hits,
                "write_misses": stats.write_misses,
                "invalidations": stats.invalidations,
                "firewall_checks": stats.firewall_checks,
            },
            "sips": {"sends": machine.sips.sends,
                     "flow_control_rejections":
                         machine.sips.flow_control_rejections},
            "firewall": _firewall_hardware(
                machine, range(machine.params.num_nodes)),
        },
    }


def _cell_sum(snap: Dict[str, Any], subsystem: str, key: str) -> float:
    return sum(cell[subsystem].get(key, 0)
               for cell in snap.get("cells", {}).values())


def _counts(target, snap: Dict[str, Any], tiers: Dict[str, Any]
            ) -> Dict[str, float]:
    """The simulated counts the per-layer metrics read, for one op."""
    machine = snap["machine"]
    coh = machine["coherence"]
    counts = {
        "events": target.sim.events_processed,
        "sim_ns": target.sim.now,
        "coherence_accesses": (coh["read_hits"] + coh["read_misses"]
                               + coh["write_hits"] + coh["write_misses"]),
        "memo_hits": tiers["coherence"]["memo_hits"],
        "batches": tiers["coherence"]["batches_total"],
        "firewall_checks": machine["firewall"]["hw_checks"],
        "sips_sends": machine["sips"]["sends"],
    }
    if "cells" not in snap:
        counts["page_faults"] = snap["kernel"].get("faults.count", 0)
        return counts
    latency = Histogram("rpc_latency_ns")
    for cell in target.cells:
        latency.merge(cell.rpc.metrics.histogram("latency_ns"))
    counts.update({
        "page_faults": _cell_sum(snap, "kernel", "faults.count"),
        "rpc_calls": _cell_sum(snap, "rpc", "calls.count"),
        "rpc_fast": tiers["rpc"]["fast_path"],
        "rpc_dispatched": tiers["rpc"]["calls_total"],
        "rpc_send_retries": _cell_sum(snap, "rpc", "send_retries.count"),
        "rpc_timeouts": _cell_sum(snap, "rpc", "timeouts.count"),
        "rpc_latency_p50_ns": latency.percentile(50) if latency.total
        else 0.0,
        "remote_faults": _cell_sum(snap, "kernel", "faults.remote.count"),
        "imports": _cell_sum(snap, "sharing", "imports.count"),
        "remote_opens": _cell_sum(snap, "kernel", "opens.remote.count"),
        "firewall_grants": _cell_sum(snap, "firewall", "grants_total"),
        "careful_reads": _cell_sum(snap, "careful", "reads"),
        "careful_faults": _cell_sum(snap, "careful", "faults_detected"),
        "recovery_rounds": snap["recovery"]["rounds_completed"],
        "hints": _cell_sum(snap, "detection", "hints.count"),
    })
    return counts


def _observe(target) -> tuple:
    """(fingerprint, counts) of a finished op's system."""
    if isinstance(target, Platform):
        target = target.target
    if hasattr(target, "cells"):
        snap = snapshot_system(target)
        tiers = {"coherence": coherence_tiers(target.machine.coherence),
                 "rpc": rpc_tiers(target)}
    else:
        snap = _irix_snapshot(target)
        tiers = {"coherence": coherence_tiers(target.machine.coherence)}
    fingerprint = {"events": target.sim.events_processed,
                   "sim_ns": target.sim.now,
                   "snapshot": snap, "tiers": tiers}
    return fingerprint, _counts(target, snap, tiers)


# -- workloads -----------------------------------------------------------


def boot_platform(irix: bool, seed: int) -> Platform:
    """Boot the ``repro run pmake`` configuration (4 nodes, 1 CPU each)."""
    params = HardwareParams(num_nodes=NODES, cpus_per_node=1)
    sim = Simulator()
    if irix:
        target = boot_irix(sim, machine_config=MachineConfig(
            params=params, seed=seed, firewall_enabled=False))
    else:
        target = boot_hive(sim, num_cells=CELLS,
                           machine_config=MachineConfig(params=params,
                                                        seed=seed),
                           agreement="voting")
    namespace = target.namespace
    namespace.mount("/tmp", 1 % NODES)
    namespace.mount("/usr", 2 % NODES)
    namespace.mount("/results", 0)
    return Platform(target)


class PmakeOps:
    """pmake on Hive, or on the IRIX baseline."""

    #: ops the measured loop completes between looks at the clock,
    #: untraced and traced
    loop_unit = 1
    traced_loop_unit = 1
    warmup_index = 0

    def __init__(self, irix: bool):
        self.irix = irix

    def label(self, index: int) -> str:
        return "pmake-irix" if self.irix else "pmake"

    def seed_of(self, seed: int, index: int) -> int:
        return seed + index

    def run(self, index: int, seed: int, clock: PhaseClock) -> OpResult:
        op_seed = self.seed_of(seed, index)
        clock.phase("setup.boot")
        platform = boot_platform(self.irix, op_seed)
        clock.attach_sim(platform.sim)
        clock.phase("setup.populate")
        result = PmakeWorkload().run(platform)
        clock.phase("verify")
        problems = [] if self.irix else check_system(platform.target)
        phases = clock.end_op()
        fingerprint, counts = _observe(platform)
        fingerprint["elapsed_ns"] = result.elapsed_ns
        fingerprint["jobs"] = [result.jobs_completed, result.jobs_failed]
        failed = None
        if result.jobs_failed:
            failed = f"jobs failed: {result.jobs_failed}"
        elif result.output_errors:
            failed = f"output mismatch: {result.output_errors[0]}"
        elif problems:
            failed = f"invariants: {problems[0]}"
        return OpResult(index, op_seed, self.label(index), phases,
                        fingerprint, failed, counts)


def trial_failure(trial) -> Optional[str]:
    """Why a Table 7.4 trial was not contained (None if it was)."""
    if trial.contained:
        return None
    if trial.notes:
        return f"harness exception: {trial.notes}"
    if not trial.detected:
        return "undetected"
    if not trial.survivors_alive:
        return "survivor died"
    if not trial.check_ok:
        return "check failed"
    if not trial.outputs_ok:
        return "outputs corrupt"
    return "not contained"


class FaultOps:
    """Table 7.4 trials, the five scenarios in a fixed rotation.

    Rotation ``r`` runs every scenario with trial seed ``seed + r``.  The
    fault schedule depends on the trial seed modulo 4 (the corruption
    mode, and how many process creations the hardware fault skips), so
    the untraced loop completes whole cycles of four rotations: every
    run then holds each mode once per scenario, whatever its seed.  The
    traced loop, which runs each op twice, completes single rotations.
    """

    rotation = len(ALL_SCENARIOS)
    loop_unit = 4 * rotation
    traced_loop_unit = rotation
    #: hw_cow_search: the shortest trial, and it runs both raytrace
    #: and the correctness-check pmake
    warmup_index = 1

    def label(self, index: int) -> str:
        return ALL_SCENARIOS[index % self.rotation]

    def seed_of(self, seed: int, index: int) -> int:
        return seed + index // self.rotation

    def run(self, index: int, seed: int, clock: PhaseClock) -> OpResult:
        scenario = self.label(index)
        trial_seed = self.seed_of(seed, index)
        clock.phase("setup.boot")
        system = boot_faultexp_system("oracle", trial_seed)
        clock.attach_sim(system.sim)
        clock.phase("setup.populate")
        trial = FaultExperimentRunner().run_trial_on(
            system, scenario, trial_seed)
        phases = clock.end_op()
        fingerprint, counts = _observe(system)
        verdict = trial.to_dict()
        fingerprint["trial"] = verdict
        counts["detect_latency_ns"] = trial.last_entry_latency_ns
        counts["recovery_duration_ns"] = trial.recovery_duration_ns
        return OpResult(index, trial_seed, scenario, phases, fingerprint,
                        trial_failure(trial), counts)


WORKLOADS = {
    "pmake": lambda: PmakeOps(irix=False),
    "pmake-irix": lambda: PmakeOps(irix=True),
    "faults": FaultOps,
}


def run_op(ops, index: int, seed: int, clock: PhaseClock) -> OpResult:
    """One op; an exception inside it fails the op, not the benchmark.

    The op ends with a full collection of its garbage (phase
    ``collect``), so that a later op's set-up or timed part does not
    pay for it; the loop time, and so ``ops_per_s``, still does.
    """
    clock.begin_op(index)
    try:
        result = ops.run(index, seed, clock)
    except Exception as exc:  # the op's failure reason
        phases = clock.abort_op()
        where = traceback.extract_tb(exc.__traceback__)[-1]
        reason = (f"exception: {type(exc).__name__}: {exc} "
                  f"({where.filename.rsplit('/', 1)[-1]}:{where.lineno})")
        result = OpResult(index, ops.seed_of(seed, index),
                          ops.label(index), phases, {"exception": reason},
                          reason)
    result.phases["collect"] = clock.collect(index)
    return result
