"""Self-test of the benchmark (under a minute)::

    python3 perfbench/selftest.py

Checks that

* two runs of one op with one seed give identical simulated
  fingerprints, and the traced run's fingerprint equals the untraced
  one (the layer wrappers do not change simulated behaviour);
* on ``pmake-irix`` the traced run enters no RPC, SIPS, sharing,
  careful-reference or recovery span, and their counts read 0;
* the traced layer self times add up to the traced op's timed phase;
* every metric the benchmark prints is declared in ``BENCHMARK.json``
  with the same unit kind, and nothing declared is missing;
* an op that raised counts in no end-to-end metric;
* a trial's failure reason is derived from its verdict fields.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops as ops_mod  # noqa: E402
import report  # noqa: E402
from run import TracedPairs  # noqa: E402
from tracer import TIMED_PHASES  # noqa: E402

SEED = 7
#: (workload, op index): both pmake configurations, and the two fault
#: trials that use raytrace (index 1) and corrupt a COW tree (index 4)
CASES = (("pmake", 0), ("pmake-irix", 0), ("faults", 1), ("faults", 4))
IRIX_SILENT_LAYERS = ("rpc", "sips", "sharing", "careful", "recovery")
IRIX_ZERO_METRICS = ("rpc.", "sips.", "sharing.", "careful.", "recovery.")


def run_case(workload: str, index: int):
    with TracedPairs(ops_mod, ops_mod.WORKLOADS[workload](), SEED) as runner:
        second = runner.warm_up(index)
        first, with_trace = runner.run_pair(index)
    return first, second, with_trace, runner.tracer, runner.gc_attr


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        declared = json.load(src)
    for workload, index in CASES:
        first, second, with_trace, tracer, gc_attr = run_case(
            workload, index)
        tag = f"{workload} op {index} ({first.label})"
        check(not first.raised,
              f"{tag}: ran ({first.failed or 'contained/verified'})")
        check(first.digest == second.digest,
              f"{tag}: same seed, same fingerprint")
        check(first.digest == with_trace.digest,
              f"{tag}: traced fingerprint equals untraced")
        self_s = sum(secs for (phase, _layer), secs
                     in tracer.self_time[index].items()
                     if phase in TIMED_PHASES)
        check(abs(self_s - with_trace.timed_s) <= 0.01 * with_trace.timed_s,
              f"{tag}: layer self times {self_s:.4f} s add up to the "
              f"timed phase {with_trace.timed_s:.4f} s")
        metrics = report.per_layer([(first, with_trace)], tracer, gc_attr,
                                   0.1)
        check(sorted(metrics) == sorted(m["name"]
                                        for m in declared["per_layer"]),
              f"{tag}: per-layer metrics match BENCHMARK.json")
        if workload == "pmake-irix":
            entered = [name for name in tracer.calls[index]
                       if name.split(".")[0] in IRIX_SILENT_LAYERS]
            check(not entered, f"{tag}: no Hive-only span entered "
                               f"{entered}")
            nonzero = [name for name, (value, _unit) in metrics.items()
                       if name.startswith(IRIX_ZERO_METRICS) and value]
            check(not nonzero, f"{tag}: Hive-only metrics read 0 "
                               f"{nonzero}")
        else:
            check(metrics["rpc.calls_per_op"][0] > 0,
                  f"{tag}: RPC layer exercised")

    e2e = report.end_to_end([first], 1.0)
    check({(name, unit) for name, (_v, unit) in e2e.items()}
          == {(m["name"], m["unit"]) for m in declared["end_to_end"]},
          "end-to-end metrics match BENCHMARK.json")
    raised = ops_mod.OpResult(first.index + 1, first.seed, first.label,
                              {"setup.boot": 1e-3, "run": 1e-3},
                              {"exception": "x"}, "x")
    with_raised = report.end_to_end([first, raised], 1.0)
    check(all(with_raised[name] == e2e[name]
              for name in ("setup_s", "ops_per_s", "op_wall_s_p50")),
          "an op that raised counts in no end-to-end metric")

    from repro.bench.faultexp import FaultTrialResult

    def trial(**kw):
        fields = dict(scenario="sw_cow_tree", seed=3, injected_at_ns=1,
                      detected=True, last_entry_latency_ns=5,
                      contained=False, survivors_alive=True,
                      outputs_ok=True, check_ok=True)
        fields.update(kw)
        return FaultTrialResult(**fields)

    reasons = [ops_mod.trial_failure(trial(contained=True)),
               ops_mod.trial_failure(trial(detected=False)),
               ops_mod.trial_failure(trial(survivors_alive=False)),
               ops_mod.trial_failure(trial(check_ok=False)),
               ops_mod.trial_failure(trial(outputs_ok=False)),
               ops_mod.trial_failure(trial(notes="check: KeyError: 1"))]
    check(reasons == [None, "undetected", "survivor died", "check failed",
                      "outputs corrupt",
                      "harness exception: check: KeyError: 1"],
          f"trial failure reasons {reasons}")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
