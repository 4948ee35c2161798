"""Hot-path tier profiling: which fast path served the work, and where
the wall-clock went.

Fast paths sit over three subsystems — coherence batches
(``HIVE_BATCH``: memo replay / inlined sequential / vectorized, with the
scalar loop as reference), the engine (heap dispatch plus the Timeout
inline-expiry shortcut), and RPC dispatch (``HIVE_RPC_FAST``: pooled
fast path vs. the original slow path).  This module aggregates the
per-subsystem attribution counters into one JSON-stable snapshot so
campaigns and benchmarks can report *tier hit rates* — how often each
tier actually fired — instead of guessing from end-to-end timings.

Counter sources:

* coherence tiers are plain always-on ints on the controller (one
  increment per batch — noise-level cost);
* RPC fast/slow counters live in each cell's RPC ``MetricSet``;
* engine dispatch counts and per-subsystem wall attribution come from
  :class:`~repro.sim.engine.EngineProfile`, populated only when the
  simulator runs with ``HIVE_PROFILE=1`` / ``Simulator(profile=True)``
  (a branch in the dispatch loop on a local set once per run call).

Everything except ``engine.subsystem_wall_s`` is a deterministic
function of the simulated event stream, so merged campaign snapshots
are byte-stable across same-seed runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.engine import EngineProfile


def _rate(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def coherence_tiers(coherence) -> Dict[str, Any]:
    """Batch-tier counts and hit rates for one coherence controller."""
    snap = coherence.tier_snapshot()
    total = (snap["memo_hits"] + snap["inline_batches"]
             + snap["vector_batches"] + snap["scalar_batches"])
    snap["batches_total"] = total
    snap["memo_hit_rate"] = _rate(snap["memo_hits"], total)
    snap["inline_rate"] = _rate(snap["inline_batches"], total)
    snap["vector_rate"] = _rate(snap["vector_batches"], total)
    snap["scalar_rate"] = _rate(snap["scalar_batches"], total)
    return snap


def rpc_tiers(system) -> Dict[str, Any]:
    """Fast- vs. slow-path RPC dispatch counts summed over all cells."""
    fast = slow = 0
    for cell in system.cells:
        counters = cell.rpc.metrics.counters
        if "fast_path" in counters:
            fast += counters["fast_path"].value
        if "slow_path" in counters:
            slow += counters["slow_path"].value
    total = fast + slow
    return {
        "fast_path": fast,
        "slow_path": slow,
        "calls_total": total,
        "fast_rate": _rate(fast, total),
    }


def _engine_snapshot(prof: EngineProfile) -> Dict[str, Any]:
    snap = prof.to_dict()
    total = snap["heap_dispatches"] + snap["inline_dispatches"]
    snap["dispatches_total"] = total
    snap["heap_rate"] = _rate(snap["heap_dispatches"], total)
    snap["inline_rate"] = _rate(snap["inline_dispatches"], total)
    return snap


def engine_tiers(sim) -> Optional[Dict[str, Any]]:
    """Dispatch counts from the simulator's profile, with rates.

    Returns None when the simulator runs unprofiled (the default): the
    dispatch loop then does not attribute dispatches, and reporting
    zeros would be indistinguishable from a run that genuinely
    dispatched nothing.
    """
    prof = getattr(sim, "profile", None)
    if prof is None:
        return None
    return _engine_snapshot(prof)


def tier_snapshot(system) -> Dict[str, Any]:
    """One combined tier snapshot for a booted system."""
    return {
        "coherence": coherence_tiers(system.machine.coherence),
        "rpc": rpc_tiers(system),
        "engine": engine_tiers(system.sim),
    }


def merge_tier_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard tier snapshots into one campaign-wide snapshot.

    Counts add; rates are recomputed from the merged counts (never
    averaged — shard sizes differ).  Engine sections merge via
    :class:`EngineProfile` so the subsystem wall map folds too; if every
    shard ran unprofiled the merged engine section is None.
    """
    merged: Dict[str, Any] = {
        "coherence": {"memo_hits": 0, "inline_batches": 0,
                      "vector_batches": 0, "scalar_batches": 0},
        "rpc": {"fast_path": 0, "slow_path": 0},
        "engine": None,
    }
    coh = merged["coherence"]
    rpc = merged["rpc"]
    engine_prof: Optional[EngineProfile] = None
    for snap in snaps:
        if not snap:
            continue
        for key in ("memo_hits", "inline_batches", "vector_batches",
                    "scalar_batches"):
            coh[key] += snap["coherence"][key]
        rpc["fast_path"] += snap["rpc"]["fast_path"]
        rpc["slow_path"] += snap["rpc"]["slow_path"]
        eng = snap.get("engine")
        if eng is not None:
            shard_prof = EngineProfile.from_dict(eng)
            if engine_prof is None:
                engine_prof = shard_prof
            else:
                engine_prof.merge(shard_prof)

    total = sum(coh.values())
    coh["batches_total"] = total
    coh["memo_hit_rate"] = _rate(coh["memo_hits"], total)
    coh["inline_rate"] = _rate(coh["inline_batches"], total)
    coh["vector_rate"] = _rate(coh["vector_batches"], total)
    coh["scalar_rate"] = _rate(coh["scalar_batches"], total)

    calls = rpc["fast_path"] + rpc["slow_path"]
    rpc["calls_total"] = calls
    rpc["fast_rate"] = _rate(rpc["fast_path"], calls)

    if engine_prof is not None:
        merged["engine"] = _engine_snapshot(engine_prof)
    return merged
