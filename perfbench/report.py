"""Metrics from a run's ops: end-to-end (untraced) and per-layer (traced).

End-to-end metrics come from the untraced loop.  Per-layer metrics come
from the traced run, which runs every op twice with the same seed: once
untraced and once with the layer wrappers installed.  Phase durations,
host time per event and GC pauses are read from the untraced op of each
pair; layer self times from the traced op; simulated counts are the
same in both (the fingerprints must match).
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

from tracer import LAYER_TABLE, TIMED_PHASES

#: layers in summary order; "sim" is the engine plus code no wrapper
#: covers (the workload programs)
LAYERS = ("sim", "kernel", "rpc", "sips", "sharing", "pfdat", "coherence",
          "careful", "recovery", "harness")

#: ProcContext entry points that are system calls (``compute`` is user
#: CPU time, counted separately)
SYSCALLS = tuple(method for _layer, _module, cls, methods in LAYER_TABLE
                 if cls == "ProcContext"
                 for method in methods if method != "compute")


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def label_median(ops, value) -> float:
    """Median per op label, averaged over the labels.

    pmake ops share one label, so this is their median.  Fault trials
    are labelled by scenario, and the scenarios' costs form separate
    clusters (a raytrace trial has no populate phase); the median of
    the mixture would sit on a cluster edge and jump between clusters
    from run to run.
    """
    by_label: Dict[str, list] = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(value(op))
    if not by_label:
        return 0.0
    return statistics.fmean(median(v) for v in by_label.values())


def end_to_end(ops, loop_s: float, probe=None
               ) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics.

    With a :class:`~calibrate.SpeedProbe`, host seconds are calibrated
    (see ``calibrate.py``): the loop time by the run's factor, each op's
    phases by its own.  Without one, they are the raw host timings.

    Ops that raised are not completed: they count in neither the rate
    nor the medians, though their time stays in ``loop_s``.  An
    uncontained fault trial that ran to its end is completed.
    """
    def scale(op) -> float:
        return probe.op_factor(op.index) if probe is not None else 1.0

    done = [op for op in ops if not op.raised]
    factor = probe.factor if probe is not None else 1.0
    return {
        "setup_s": (label_median(done, lambda op: scale(op) * op.setup_s),
                    "s"),
        "ops_per_s": (len(done) / (factor * loop_s), "1/s"),
        "op_wall_s_p50": (label_median(done,
                                       lambda op: scale(op) * op.timed_s),
                          "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _layer_self(tracer, op: int, phases) -> Dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for (phase, layer), secs in tracer.self_time.get(op, {}).items():
        if phase in phases:
            out[layer] = out.get(layer, 0.0) + secs
    return out


def _calls(tracer, op: int, prefix: str, names=None) -> int:
    total = 0
    for name, n in tracer.calls.get(op, {}).items():
        if name.startswith(prefix) and (
                names is None or name.rsplit(".", 1)[-1] in names):
            total += n
    return total


def per_layer(pairs, tracer, gc_attr, import_s: float
              ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as (value, unit)."""
    plain = [u for u, _t in pairs]
    traced = [t for _u, t in pairs]
    n = len(pairs)

    def per_op(key: str) -> float:
        return sum(op.counts.get(key) or 0 for op in plain) / n

    def total(key: str) -> float:
        return sum(op.counts.get(key) or 0 for op in plain)

    timed = [_layer_self(tracer, t.index, TIMED_PHASES) for t in traced]
    every = [_layer_self(tracer, t.index, tuple(t.phases)) for t in traced]

    def self_per_op(layer: str) -> float:
        return sum(row[layer] for row in timed) / n

    host_s = sum(op.host_s for op in plain)
    events = total("events")
    rounds = total("recovery_rounds")
    gc_count = gc_pause = 0.0
    for op in plain:
        for count, pause in gc_attr.by_op.get(op.index, {}).values():
            gc_count += count
            gc_pause += pause
    latencies = [op.counts["detect_latency_ns"] / 1e6 for op in plain
                 if op.counts.get("detect_latency_ns") is not None]
    durations = [op.counts["recovery_duration_ns"] / 1e6 for op in plain
                 if op.counts.get("recovery_duration_ns") is not None]
    return {
        "setup.import_s": (import_s, "s"),
        "setup.boot_s": (median(op.phases.get("setup.boot", 0.0)
                                for op in plain), "s"),
        "setup.populate_s": (median(op.phases.get("setup.populate", 0.0)
                                    for op in plain), "s"),
        "sim.events_per_op": (events / n, "count"),
        "sim.host_us_per_event": (ratio(host_s, events) * 1e6, "us"),
        "sim.self_s_per_op": (self_per_op("sim"), "s"),
        "sim.sim_s_per_op": (total("sim_ns") / n / 1e9, "s"),
        "sim.sim_s_per_host_s": (ratio(total("sim_ns") / 1e9, host_s),
                                 "ratio"),
        "rpc.calls_per_op": (per_op("rpc_calls"), "count"),
        "rpc.fast_path_ratio": (ratio(total("rpc_fast"),
                                      total("rpc_dispatched")), "ratio"),
        "rpc.send_retries_per_call": (ratio(total("rpc_send_retries"),
                                            total("rpc_calls")), "ratio"),
        "rpc.timeouts_per_op": (per_op("rpc_timeouts"), "count"),
        "rpc.host_s_per_op": (self_per_op("rpc"), "s"),
        "rpc.sim_latency_us_p50": (median(
            op.counts.get("rpc_latency_p50_ns", 0.0) / 1e3
            for op in plain), "us"),
        "sips.sends_per_op": (per_op("sips_sends"), "count"),
        "sips.host_s_per_op": (self_per_op("sips"), "s"),
        "sharing.remote_faults_per_op": (per_op("remote_faults"), "count"),
        "sharing.imports_per_op": (per_op("imports"), "count"),
        "sharing.remote_opens_per_op": (per_op("remote_opens"), "count"),
        "sharing.host_s_per_op": (self_per_op("sharing"), "s"),
        "pfdat.lookups_per_op": (sum(
            _calls(tracer, t.index, "pfdat.", ("lookup",))
            for t in traced) / n, "count"),
        "pfdat.host_s_per_op": (self_per_op("pfdat"), "s"),
        "kernel.syscalls_per_op": (sum(
            _calls(tracer, t.index, "kernel.ProcContext.", SYSCALLS)
            for t in traced) / n, "count"),
        "kernel.page_faults_per_op": (per_op("page_faults"), "count"),
        "kernel.compute_calls_per_op": (sum(
            _calls(tracer, t.index, "kernel.ProcContext.", ("compute",))
            for t in traced) / n, "count"),
        "kernel.self_s_per_op": (self_per_op("kernel"), "s"),
        "coherence.accesses_per_op": (per_op("coherence_accesses"),
                                      "count"),
        "coherence.memo_hit_ratio": (ratio(total("memo_hits"),
                                           total("batches")), "ratio"),
        "coherence.host_s_per_op": (self_per_op("coherence"), "s"),
        "firewall.checks_per_op": (per_op("firewall_checks"), "count"),
        "firewall.grants_per_op": (per_op("firewall_grants"), "count"),
        "careful.reads_per_op": (per_op("careful_reads"), "count"),
        "careful.faults_detected_per_read": (ratio(
            total("careful_faults"), total("careful_reads")), "ratio"),
        "careful.host_s_per_op": (self_per_op("careful"), "s"),
        "recovery.rounds_per_op": (rounds / n, "count"),
        "recovery.host_s_per_round": (ratio(
            sum(row["recovery"] for row in every), rounds), "s"),
        "recovery.detect_latency_ms_p50": (median(latencies), "ms"),
        "recovery.duration_ms_p50": (median(durations), "ms"),
        "recovery.hints_per_op": (per_op("hints"), "count"),
        "verify.host_s_per_op": (self_per_op("harness"), "s"),
        "check.host_s_per_op": (sum(op.phases.get("check", 0.0)
                                    for op in plain) / n, "s"),
        "gc.pause_s_per_op": (gc_pause / n, "s"),
        "gc.collections_per_op": (gc_count / n, "count"),
        "trace.overhead_ratio": (ratio(host_s, sum(t.host_s
                                                   for t in traced)),
                                 "ratio"),
    }


def self_time_summary(pairs, tracer, gc_attr) -> Dict:
    """Per-layer self time of the timed phase, and GC pauses per op."""
    traced = [t for _u, t in pairs]
    n = len(traced)
    rows = [_layer_self(tracer, t.index, TIMED_PHASES) for t in traced]
    timed_s = sum(t.timed_s for t in traced) / n
    layers = {}
    for layer in LAYERS:
        secs = sum(row[layer] for row in rows) / n
        layers[layer] = {"self_s_per_op": secs,
                         "share": ratio(secs, timed_s)}
    setup_rows = [_layer_self(tracer, t.index, ("setup.boot",
                                                "setup.populate"))
                  for t in traced]
    plain = [u for u, _t in pairs]
    setup_med = median(op.setup_s for op in plain)
    timed_med = median(op.timed_s for op in plain)
    per_op = []
    for op in plain:
        gcs = gc_attr.by_op.get(op.index, {})
        setup_gc = sum(gcs.get(p, (0, 0.0))[1]
                       for p in ("setup.boot", "setup.populate"))
        timed_gc = sum(gcs.get(p, (0, 0.0))[1] for p in TIMED_PHASES)
        per_op.append({
            "op": op.index, "label": op.label, "seed": op.seed,
            "setup_s": op.setup_s, "setup_gc_pause_s": setup_gc,
            "timed_s": op.timed_s, "timed_gc_pause_s": timed_gc,
            "setup_outlier": op.setup_s > 1.5 * setup_med,
            "timed_outlier": op.timed_s > 1.2 * timed_med,
        })
    return {
        "ops": n,
        "traced_timed_s_per_op": timed_s,
        "attributed_s_per_op": sum(v["self_s_per_op"]
                                   for v in layers.values()),
        "timed_layers": layers,
        "setup_layers": {layer: sum(row[layer] for row in setup_rows) / n
                         for layer in LAYERS},
        "gc_by_op": per_op,
    }


def render_summary(workload: str, summary: Dict,
                   layer_metrics: Dict[str, Tuple[float, str]]) -> str:
    lines = [f"{workload}: timed-phase self time by layer "
             f"({summary['ops']} traced ops)"]
    for layer, row in summary["timed_layers"].items():
        lines.append(f"  {layer:<10} {row['self_s_per_op']:9.4f} s/op "
                     f"{100 * row['share']:6.1f} %")
    lines.append(f"  {'sum':<10} {summary['attributed_s_per_op']:9.4f} s/op"
                 f"   timed phase {summary['traced_timed_s_per_op']:.4f} "
                 f"s/op, tracing overhead ratio "
                 f"{layer_metrics['trace.overhead_ratio'][0]:.3f}")
    lines.append("  untraced ops: setup_s (gc pause) | timed_s (gc pause)")
    for row in summary["gc_by_op"]:
        flag = (" setup-outlier" if row["setup_outlier"] else "") + \
               (" timed-outlier" if row["timed_outlier"] else "")
        lines.append(
            f"    op {row['op']:>3} {row['label']:<20} "
            f"{row['setup_s']:.4f} ({row['setup_gc_pause_s']:.4f}) | "
            f"{row['timed_s']:.4f} ({row['timed_gc_pause_s']:.4f}){flag}")
    return "\n".join(lines)


def op_rows(ops) -> List[Dict]:
    """Per-op record for the run's JSON report (fingerprint as digest)."""
    return [{"op": op.index, "seed": op.seed, "label": op.label,
             "phases_s": op.phases, "failed": op.failed,
             "fingerprint": op.digest, "counts": op.counts}
            for op in ops]
