"""Paper-workload benchmark for the Hive reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pmake --seed 1 --seconds 25 --trace 0

Workloads: ``pmake``, ``pmake-irix``, ``faults`` (see ``ops.py`` and
``README.md``).  One process, one thread, a closed loop with one
client: each op boots a fresh system (seed = workload seed + op index;
for ``faults`` + rotation index), runs it, and verifies it.  One
untimed warm-up op runs first; the loop then runs ops in whole units
(one op; for ``faults`` four rotations of the five scenarios) until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
op twice, untraced and then with the layer wrappers of ``tracer.py``,
checks that both give the same simulated fingerprint, and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; per-op
records, the span dump and the self-time summary go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from calibrate import SpeedProbe
from tracer import GcAttribution, LayerPatches, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pmake", "pmake-irix", "faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(ops, seconds: float, unit: int, warm_up, run_pair,
            probe=None):
    """Warm up, then run ops in whole units until ``seconds`` have passed.

    ``warm_up(index)`` runs the untimed warm-up op; ``run_pair(index)``
    runs op ``index`` of the measured loop and returns its results.
    With a :class:`~calibrate.SpeedProbe`, the reference computation
    runs after the warm-up and after every op; its time is taken out of
    the returned loop seconds.
    """
    warm = warm_up(ops.warmup_index)
    if probe is not None:
        probe.sample(1.0)
    results = []
    start = time.perf_counter()
    probe_start = probe.spent_s if probe is not None else 0.0
    while True:
        for _ in range(unit):
            results.append(run_pair(len(results)))
            if probe is not None:
                probe.sample(results[-1].host_s)
        loop_s = time.perf_counter() - start
        if probe is not None:
            loop_s -= probe.spent_s - probe_start
        if loop_s >= seconds:
            return warm, results, loop_s


def run_plain(ops_mod, ops, seed, seconds):
    clock = ops_mod.PhaseClock()
    probe = SpeedProbe()
    with ops_mod.WorkloadMarkers(clock):
        def run(index):
            return ops_mod.run_op(ops, index, seed, clock)
        warm, results, loop_s = measure(ops, seconds, ops.loop_unit, run,
                                        run, probe)
    checks = {"warmup_repeats": warm.digest
              == results[ops.warmup_index].digest,
              "some_op_completed": any(not op.raised for op in results)}
    return results, loop_s, probe, checks


class TracedPairs:
    """Runs ops of one workload untraced, or untraced and then traced.

    Use as a context manager: inside it the workload markers and the GC
    attribution are installed.  Layer wrappers are installed only while
    the traced op of a pair runs.
    """

    def __init__(self, ops_mod, ops, seed: int):
        self.ops_mod = ops_mod
        self.ops = ops
        self.seed = seed
        self.tracer = Tracer()
        self.gc_attr = GcAttribution()
        self._patches = LayerPatches(self.tracer)
        self._plain = ops_mod.PhaseClock(gc_attr=self.gc_attr)
        self._traced = ops_mod.PhaseClock(tracer=self.tracer)
        self._markers = ops_mod.WorkloadMarkers(self._plain)

    def __enter__(self) -> "TracedPairs":
        self._markers.__enter__()
        self.gc_attr.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.gc_attr.__exit__(*exc)
        self._markers.__exit__(*exc)

    def warm_up(self, index: int):
        """One untraced op whose collector pauses are not an op's."""
        self._markers.clock = self._plain
        warm = self.ops_mod.run_op(self.ops, index, self.seed, self._plain)
        self.gc_attr.by_op.clear()
        return warm

    def run_pair(self, index: int):
        """(untraced, traced) results of op ``index``."""
        self._markers.clock = self._plain
        untraced = self.ops_mod.run_op(self.ops, index, self.seed,
                                       self._plain)
        self._markers.clock = self._traced
        self._patches.install()
        try:
            traced = self.ops_mod.run_op(self.ops, index, self.seed,
                                         self._traced)
        finally:
            self._patches.remove()
        return untraced, traced


def run_traced(ops_mod, ops, seed, seconds):
    with TracedPairs(ops_mod, ops, seed) as runner:
        warm, pairs, _loop_s = measure(ops, seconds, ops.traced_loop_unit,
                                       runner.warm_up, runner.run_pair)
    checks = {
        "warmup_repeats": warm.digest == pairs[ops.warmup_index][0].digest,
        "traced_equals_untraced": all(u.digest == t.digest
                                      for u, t in pairs),
        "some_op_completed": any(not u.raised for u, _t in pairs),
    }
    return pairs, runner.tracer, runner.gc_attr, checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import ops as ops_mod  # imports the simulator
    import report
    import_s = time.perf_counter() - t0

    ops = ops_mod.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "import_s": import_s}
    if args.trace:
        pairs, tracer, gc_attr, checks = run_traced(
            ops_mod, ops, args.seed, args.seconds)
        results = [t for _u, t in pairs]
        metrics = report.per_layer(pairs, tracer, gc_attr, import_s)
        summary = report.self_time_summary(pairs, tracer, gc_attr)
        spans = tracer.write_spans(stem + ".spans.jsonl.gz")
        record.update(summary=summary, spans_written=spans,
                      spans_dropped=tracer.records_dropped,
                      untraced_ops=report.op_rows([u for u, _t in pairs]))
        print(report.render_summary(args.workload, summary, metrics),
              file=sys.stderr)
    else:
        results, loop_s, probe, checks = run_plain(ops_mod, ops, args.seed,
                                                   args.seconds)
        metrics = report.end_to_end(results, loop_s, probe)
        raw = report.end_to_end(results, loop_s)
        record.update(loop_s=loop_s, timed_samples=len(results),
                      speed_factor=probe.factor,
                      reference_samples_s=probe.batches,
                      raw_metrics={k: {"value": v, "unit": u}
                                   for k, (v, u) in raw.items()})
    failed = [op for op in results if op.failed]
    record.update(checks=checks, ops=report.op_rows(results),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    for op in failed:
        print(f"op {op.index} ({op.label}, seed {op.seed}) failed: "
              f"{op.failed}", file=sys.stderr)
    print(f"checks: {checks}; {len(results)} ops, {len(failed)} failed; "
          f"report {stem}.json", file=sys.stderr)
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
