"""Layer tracing from outside the program.

The traced run patches the public entry points of each layer (plus the
interrupt-level RPC entry points, which are the RPC layer's boundary)
with wrappers defined here, so no file under ``src/`` changes.  The
wrappers are generator-aware: a simulated kernel call returns a
generator that the engine resumes many times, so a span is charged the
host time of every resume, not the near-zero time of the call that
created the generator.  Each span also records the simulated time from
its first resume to its return.

Self time uses one stack of active spans.  Whenever a span is entered
or left, the host time since the last mark is charged to the span on
top of the stack.  The bottom of the stack is always a *phase* span
(``setup.boot``, ``setup.populate``, ``run``, ``verify``, ``check``),
so the self times of all spans of an op add up to the op's wall time,
and the self time of a phase span is the engine's dispatch loop plus
the code no wrapper covers (the workload programs themselves).

Spans are kept in memory.  Self time is summed per op, phase and
layer as it accrues (so a span still suspended when its op ends counts
too), and calls per op and span name.  Full records (name, start, end,
parent, op) are kept for the first ``RECORD_CAP`` spans outside the
leaf layers and written as JSONL at the end.

The ``verify`` phase span (the invariant check after a pmake run) is
charged to the ``harness`` layer, like output verification inside the
run; the other phase spans are charged to ``sim``.
"""

from __future__ import annotations

import gc
import gzip
import inspect
import json
import time
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

#: full span records kept per run; later spans are only aggregated
RECORD_CAP = 60_000

#: (layer, module, class, method names).  Layers follow the repo's
#: modules; "coherence" is the memory system (coherence controller,
#: firewall and physical memory); "harness" is output verification.
LAYER_TABLE: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("kernel", "repro.unix.kernel", "ProcContext",
     ("spawn", "waitpid", "exit", "open", "close", "read", "write",
      "unlink", "map_file", "map_anon", "touch", "touch_many", "signal",
      "compute")),
    ("kernel", "repro.unix.kernel", "LocalKernel",
     ("fault_page", "get_file_page", "writeback_page", "warm_file")),
    ("rpc", "repro.core.rpc", "RpcSubsystem",
     ("call", "_on_message", "_service")),
    ("sips", "repro.hardware.sips", "SipsFabric", ("send",)),
    ("sharing", "repro.core.sharing", "SharingMixin",
     ("fault_page", "open_remote", "unlink_remote", "map_file_remote",
      "read_remote", "write_remote", "import_page", "release_page",
      "alloc_frame", "export_page_local", "sys_close",
      "_h_export_page", "_h_release_page", "_h_export_anon_page",
      "_h_cow_deref", "_h_open_file", "_h_unlink_file", "_h_bulk_pages",
      "_h_file_extend", "_h_borrow_frames", "_h_return_frame",
      "_h_firewall_update")),
    ("pfdat", "repro.unix.pfdat", "PfdatTable",
     ("lookup", "insert", "remove", "alloc_frame", "free_frame")),
    ("coherence", "repro.hardware.coherence", "CoherenceController",
     ("read", "write", "access_batch", "access_prepared",
      "invalidate_frames")),
    ("coherence", "repro.hardware.firewall", "NodeFirewall",
     ("check_write", "grant_node", "revoke_node", "bulk_grant_node",
      "bulk_revoke_all_remote")),
    ("coherence", "repro.hardware.memory", "PhysicalMemory",
     ("read_page", "write_page", "read_pages", "write_pages",
      "read_bytes", "write_bytes", "zero_page")),
    ("careful", "repro.core.careful", "CarefulReader",
     ("read_word", "read_object")),
    ("recovery", "repro.core.cell", "Cell",
     ("run_recovery",)),
    ("recovery", "repro.core.recovery", "RecoveryCoordinator",
     ("report_hint", "force_round")),
    ("recovery", "repro.core.agreement", "VotingAgreement", ("run",)),
    ("recovery", "repro.core.agreement", "OracleAgreement", ("run",)),
    ("recovery", "repro.core.failure", "FailureDetector",
     ("hint", "clock_check")),
    ("harness", "repro.workloads.base", "Platform", ("verify_file",)),
]

#: names whose spans are aggregated but never kept as full records
#: (called tens of thousands of times per op, always leaves).
LEAF_LAYERS = frozenset({"sips", "pfdat", "coherence"})

#: phases that make up an op's timed part (driver start to verified).
TIMED_PHASES = ("run", "verify", "check")
SETUP_PHASES = ("setup.boot", "setup.populate")
#: the layer a phase span's self time is charged to, if not "sim"
PHASE_LAYERS = {"verify": "harness"}


class Span:
    __slots__ = ("sid", "name", "layer", "parent", "op", "t0", "t1",
                 "mark", "self_s", "sim0", "sim1", "record")

    def __init__(self, sid: int, name: str, layer: str,
                 parent: int, op: int, record: bool):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.t0 = 0.0
        self.t1 = 0.0
        self.mark = 0.0
        self.self_s = 0.0
        self.sim0 = -1
        self.sim1 = -1
        self.record = record


class Tracer:
    """In-memory span tracer with a stack for self-time attribution."""

    def __init__(self):
        self.stack: List[Span] = []
        self.records: List[tuple] = []
        self.records_dropped = 0
        #: op -> span name -> calls
        self.calls: Dict[int, Dict[str, int]] = {}
        #: op -> (phase, layer) -> self seconds
        self.self_time: Dict[int, Dict[Tuple[str, str], float]] = {}
        self.op = -1
        self.sim = None
        self._next_id = 1
        self._op_calls: Dict[str, int] = {}
        self._op_self: Dict[Tuple[str, str], float] = {}

    # -- ops and phases -------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._op_calls = self.calls.setdefault(op, {})
        self._op_self = self.self_time.setdefault(op, {})

    def phase(self, name: str) -> None:
        """Close the current phase span (if any) and open ``name``."""
        if self.stack:
            if len(self.stack) != 1:
                raise RuntimeError(
                    f"phase {name!r} switched inside span "
                    f"{self.stack[-1].name!r}")
            self._leave(self.stack[-1])
        span = self._new(name, PHASE_LAYERS.get(name, "sim"), record=True)
        self._enter(span)

    def end_op(self) -> None:
        if self.stack:
            self._leave(self.stack[-1])
        if self.stack:
            raise RuntimeError("span stack not empty at end of op")
        self.sim = None

    # -- span bookkeeping -----------------------------------------------

    def _new(self, name: str, layer: str, record: bool) -> Span:
        parent = self.stack[-1].sid if self.stack else 0
        span = Span(self._next_id, name, layer, parent, self.op, record)
        self._next_id += 1
        return span

    def _charge(self, span: Span, dt: float) -> None:
        span.self_s += dt
        key = (self.stack[0].name, span.layer)
        acc = self._op_self
        acc[key] = acc.get(key, 0.0) + dt

    def _enter(self, span: Span) -> None:
        now = time.perf_counter()
        stack = self.stack
        if stack:
            top = stack[-1]
            self._charge(top, now - top.mark)
        if span.t0 == 0.0:
            span.t0 = now
            sim = self.sim
            if sim is not None:
                span.sim0 = sim.now
        span.mark = now
        stack.append(span)

    def _exit(self, span: Span) -> None:
        """Leave a span for now (a generator yielded)."""
        now = time.perf_counter()
        self._charge(span, now - span.mark)
        span.t1 = now
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1].mark = now

    def _close(self, span: Span) -> None:
        """The span's work is over: aggregate it and maybe record it."""
        sim = self.sim
        if sim is not None:
            span.sim1 = sim.now
        calls = self._op_calls
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.record:
            if len(self.records) < RECORD_CAP:
                self.records.append(
                    (span.sid, span.name, span.layer, span.parent, span.op,
                     span.t0, span.t1, span.self_s, span.sim0, span.sim1))
            else:
                self.records_dropped += 1

    def _leave(self, span: Span) -> None:
        self._exit(span)
        self._close(span)

    # -- wrappers -------------------------------------------------------

    def traced_gen(self, gen: GeneratorType, span: Span):
        """Drive ``gen`` exactly as ``yield from`` would, timing resumes."""
        send_val = None
        exc: Optional[BaseException] = None
        while True:
            self._enter(span)
            try:
                if exc is None:
                    target = gen.send(send_val)
                else:
                    target = gen.throw(exc)
            except StopIteration as stop:
                self._leave(span)
                return stop.value
            except BaseException:
                self._leave(span)
                raise
            self._exit(span)
            exc = None
            try:
                send_val = yield target
            except GeneratorExit:
                gen.close()
                self._close(span)
                raise
            except BaseException as thrown:  # forwarded, as yield from does
                exc = thrown

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self
        record = layer not in LEAF_LAYERS
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                span = tracer._new(name, layer, record)
                wrapped = tracer.traced_gen(gen, span)
                # Engine processes take their default name from the
                # generator, so keep the wrapped generator's name.
                wrapped.__name__ = gen.__name__
                wrapped.__qualname__ = gen.__qualname__
                return wrapped
            gen_wrapper.__wrapped__ = fn
            gen_wrapper.__name__ = fn.__name__
            return gen_wrapper

        def call_wrapper(*args, **kwargs):
            span = tracer._new(name, layer, record)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._leave(span)
                raise
            if type(result) is GeneratorType:
                tracer._exit(span)
                wrapped = tracer.traced_gen(result, span)
                wrapped.__name__ = result.__name__
                wrapped.__qualname__ = result.__qualname__
                return wrapped
            tracer._leave(span)
            return result
        call_wrapper.__wrapped__ = fn
        call_wrapper.__name__ = fn.__name__
        return call_wrapper

    # -- output ---------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept span records as gzipped JSONL; returns count."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for (sid, name, layer, parent, op, t0, t1, self_s, sim0,
                 sim1) in self.records:
                out.write(json.dumps({
                    "id": sid, "name": name, "layer": layer,
                    "parent": parent, "op": op,
                    "start_s": round(t0, 9), "end_s": round(t1, 9),
                    "self_s": round(self_s, 9),
                    "sim_start_ns": sim0, "sim_end_ns": sim1,
                }, separators=(",", ":")) + "\n")
        return len(self.records)


class LayerPatches:
    """Install and remove the tracer's wrappers on the layer classes.

    Install before a system boots: cells register bound RPC handlers at
    boot, so only systems booted after :meth:`install` are traced, and
    systems booted after :meth:`remove` run the original code.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        import importlib

        if self._saved:
            return
        for layer, module_name, cls_name, methods in LAYER_TABLE:
            cls = getattr(importlib.import_module(module_name), cls_name)
            for method in methods:
                original = cls.__dict__.get(method)
                if original is None:
                    raise AttributeError(
                        f"{cls_name}.{method} not defined on the class")
                name = f"{layer}.{cls_name}.{method}"
                setattr(cls, method,
                        self.tracer.wrap(original, name, layer))
                self._saved.append((cls, method, original))

    def remove(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()


class GcAttribution:
    """Collector pauses per op and phase, via ``gc.callbacks``."""

    def __init__(self):
        self.op = -1
        self.phase = ""
        #: op -> phase -> [collections, pause_s]
        self.by_op: Dict[int, Dict[str, list]] = {}
        self._started = 0.0

    def __call__(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        entry = self.by_op.setdefault(self.op, {}).setdefault(
            self.phase, [0, 0.0])
        entry[0] += 1
        entry[1] += pause

    def __enter__(self) -> "GcAttribution":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
