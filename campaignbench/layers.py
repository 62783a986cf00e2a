"""Per-layer tracing for the campaign benchmark.

Every layer is timed from outside: :meth:`LayerTracer.install` replaces
public functions of ``repro`` with wrappers that record a span per call,
at the name the caller resolves (``repro.core.client.extract_all``, not
``repro.core.predictors.extract_all``), and :meth:`LayerTracer.uninstall`
puts the originals back.  Nothing here is imported by ``repro`` itself, so
an untraced run executes exactly the program's own code.

A span records wall time (``perf_counter``) and thread CPU time
(``thread_time``).  Its *self* time is its duration minus the time of the
spans nested inside it on the same thread, so the layers add up to the
traced wall without double counting, and wall minus CPU is time the layer
spent waiting (``SocketHub.close`` is nearly all waiting).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Timed layers: (span name, module, attribute path).  A span name may
#: appear more than once when callers resolve the same function under
#: several names.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.compile", "repro.corpus.registry", "compile_source"),
    ("analysis.slice", "repro.analysis.context",
     "AnalysisContext.slice_from"),
    ("instrument.plan", "repro.instrument.planner",
     "InstrumentationPlanner.plan_window"),
    ("instrument.apply", "repro.core.client", "apply_patch"),
    ("runtime.compile", "repro.runtime.interpreter", "compiled_program"),
    ("runtime.compile", "repro.runtime.compiled", "compiled_program"),
    ("pt.decode", "repro.pt.driver", "PTDriver.decode_all"),
    ("detect.apply", "repro.core.client", "apply_detectors"),
    ("core.extract", "repro.core.client", "extract_all"),
    ("core.evidence_slice", "repro.core.client", "slice_monitored_run"),
    ("fleet.decode", "repro.fleet.wire", "decode_message"),
    ("fleet.encode", "repro.fleet.wire", "encode_patch"),
    ("fleet.encode", "repro.fleet.wire", "encode_shard_state"),
    ("fleet.socket_close", "repro.fleet.socket_transport", "SocketHub.close"),
    ("fleet.journal_append", "repro.fleet.journal", "CampaignJournal.append"),
    ("fleet.journal_sync", "repro.fleet.journal", "CampaignJournal.sync"),
    ("core.report", "repro.core.server", "GistServer.handle_failure_report"),
    ("core.ingest", "repro.core.server", "DiagnosisCampaign.ingest_wire"),
    ("core.close_iteration", "repro.core.server",
     "DiagnosisCampaign.finish_iteration"),
    ("core.refine", "repro.core.server", "refine"),
    ("core.sketch", "repro.core.server", "build_sketch"),
    ("core.render", "repro.core.render", "render_sketch"),
    ("control.schedule", "repro.control.scheduler",
     "BudgetScheduler.allocate"),
    ("control.export", "repro.control.shard", "ShardServer.export_state"),
)

#: Client-to-server encoders, timed as ``fleet.encode`` when a client
#: calls them.  A server with a journal calls two of them to journal its
#: ingests and campaign starts; that time stays in the server span
#: (:data:`SERVER_SPANS`) that makes the call.
UPLINK_ENCODERS = ("encode_failure_report", "encode_monitored_run",
                   "encode_trap_record", "encode_patch_ack")
SERVER_SPANS = ("core.ingest", "core.report")

#: Span names reported as ``<name>_s`` (self wall) and ``<name>_cpu_s``.
SPAN_NAMES: Tuple[str, ...] = (
    "lang.compile", "analysis.slice", "instrument.plan", "instrument.apply",
    "runtime.compile", "runtime.uninstrumented", "runtime.instrumented",
    "pt.decode", "detect.apply", "core.client_run", "core.extract",
    "core.evidence_slice", "fleet.encode", "fleet.decode",
    "fleet.socket_close", "fleet.journal_append", "fleet.journal_sync",
    "fleet.journal_read", "core.report", "core.ingest",
    "core.close_iteration", "core.refine", "core.sketch", "core.render",
    "control.schedule", "control.export",
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Span and counter store; one per traced phase."""

    def __init__(self) -> None:
        #: name -> [self wall s, self thread-CPU s, calls]
        self.spans: Dict[str, List[float]] = {
            name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counters: Dict[str, int] = {}
        #: Inclusive wall time of every ``GistClient.run`` call.
        self.client_runs: List[float] = []
        #: ``CacheStats`` of every analysis context created while installed.
        self.cache_stats: List = []
        self.peak_tracked_bytes = 0
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; returns ``(result, inclusive wall)``."""
        stack = self._stack()
        frame = [0.0, 0.0, name]  # wall and CPU of nested spans, name
        stack.append(frame)
        w0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - w0
            cpu = time.thread_time() - c0
            stack.pop()
            if stack:
                stack[-1][0] += wall
                stack[-1][1] += cpu
            record = self.spans[name]
            record[0] += wall - frame[0]
            record[1] += cpu - frame[1]
            record[2] += 1
        return result, wall

    def inside(self, names: Tuple[str, ...]) -> bool:
        """Whether this thread is inside a span named in ``names``."""
        return any(frame[2] in names for frame in self._stack())

    # -- wrappers -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _after(self, owner, attr: str, observe: Callable) -> None:
        """Call ``observe(self_arg, result)`` after each ``owner.attr``."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            observe(obj, result)
            return result
        self._patch(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, _ = tracer.timed(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def install(self) -> "LayerTracer":
        for name, module_name, path in SPANS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        wire = importlib.import_module("repro.fleet.wire")
        for attr in UPLINK_ENCODERS:
            self._patch(wire, attr, self._client_encoder(getattr(wire, attr)))
        self._install_interpreter()
        self._install_client()
        self._install_journal_reader()
        self._install_counters()
        return self

    def _client_encoder(self, encode: Callable) -> Callable:
        tracer = self

        @functools.wraps(encode)
        def wrapper(*args, **kwargs):
            if tracer.inside(SERVER_SPANS):
                return encode(*args, **kwargs)
            return tracer.timed("fleet.encode", encode, *args, **kwargs)[0]
        return wrapper

    def _install_interpreter(self) -> None:
        """``Interpreter.run``, split by whether tracers or hooks ride."""
        from repro.runtime.interpreter import Interpreter

        tracer = self
        run = Interpreter.run

        @functools.wraps(run)
        def wrapper(interp):
            kind = ("instrumented" if interp.tracers or interp.hooks
                    else "uninstrumented")
            outcome, _ = tracer.timed(f"runtime.{kind}", run, interp)
            tracer.count(f"runtime.{kind}_runs")
            tracer.count("runtime.steps", outcome.steps)
            return outcome
        self._patch(Interpreter, "run", wrapper)

    def _install_client(self) -> None:
        """``GistClient.run``: per-run latency, PT bytes and watch traps."""
        from repro.core.client import GistClient

        tracer = self
        run = GistClient.run

        @functools.wraps(run)
        def wrapper(client, *args, **kwargs):
            result, wall = tracer.timed("core.client_run", run, client,
                                        *args, **kwargs)
            tracer.client_runs.append(wall)
            if result.monitored is not None:
                tracer.count("pt.trace_bytes", result.monitored.trace_bytes)
                tracer.count("hw.traps", len(result.monitored.traps))
            return result
        self._patch(GistClient, "run", wrapper)

    def _install_journal_reader(self) -> None:
        """``iter_records`` is a generator: time each step of it, so the
        replay work its consumer does between records stays outside."""
        journal = importlib.import_module("repro.fleet.journal")
        tracer = self
        iter_records = journal.iter_records

        @functools.wraps(iter_records)
        def wrapper(*args, **kwargs):
            records = iter_records(*args, **kwargs)
            try:
                while True:
                    try:
                        record, _ = tracer.timed("fleet.journal_read",
                                                 next, records)
                    except StopIteration:
                        return
                    yield record
            finally:
                records.close()
        self._patch(journal, "iter_records", wrapper)

    def _install_counters(self) -> None:
        """Counts read off objects the program creates: analysis contexts,
        campaign statistics, plane results, socket transports, and the
        messages endpoints send up (the bytes a client puts on the wire)."""
        from repro.analysis.context import AnalysisContext
        from repro.control.plane import ControlPlane
        from repro.core.cooperative import CooperativeDeployment
        from repro.fleet.endpoint import FleetEndpoint
        from repro.fleet.socket_transport import SocketFleetTransport

        def campaign_done(stats) -> None:
            self.count("core.payload_bytes_saved", stats.payload_bytes_saved)
            self.peak_tracked_bytes = max(self.peak_tracked_bytes,
                                          stats.peak_tracked_bytes)

        def plane_done(_plane, result) -> None:
            self.count("control.rounds", result.rounds)
            for stats in result.stats.values():
                campaign_done(stats)

        self._after(AnalysisContext, "__init__",
                    lambda ctx, _: self.cache_stats.append(ctx.stats))
        self._after(CooperativeDeployment, "run_campaign",
                    lambda _dep, stats: campaign_done(stats))
        self._after(ControlPlane, "run", plane_done)
        self._after(FleetEndpoint, "package",
                    lambda _ep, packaged: self.count(
                        "fleet.uplink_bytes",
                        sum(len(payload) for _, payload, _ in packaged[1])))
        self._after(FleetEndpoint, "poll_patches",
                    lambda _ep, acks: self.count(
                        "fleet.uplink_bytes", sum(map(len, acks))))
        self._after(SocketFleetTransport, "close",
                    lambda transport, _: self.count(
                        "fleet.socket_frames",
                        transport.socket_stats()["frames_sent"]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Span self times, CPU times and counters under their metric names."""
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            wall, cpu, _calls = self.spans[name]
            out[f"{name}_s"] = wall
            out[f"{name}_cpu_s"] = cpu
        for name in ("runtime.uninstrumented_runs",
                     "runtime.instrumented_runs", "runtime.steps",
                     "pt.trace_bytes", "hw.traps", "fleet.uplink_bytes",
                     "fleet.socket_frames", "core.payload_bytes_saved",
                     "control.rounds"):
            out[name] = self.counters.get(name, 0)
        out["analysis.cache_hits"] = sum(s.hits for s in self.cache_stats)
        out["analysis.cache_misses"] = sum(s.misses for s in self.cache_stats)
        out["core.peak_tracked_bytes"] = self.peak_tracked_bytes
        out["core.ingests"] = self.spans["core.ingest"][2]
        steps = out["runtime.steps"]
        interp_s = (self.spans["runtime.uninstrumented"][0]
                    + self.spans["runtime.instrumented"][0])
        out["runtime.ns_per_step"] = 1e9 * interp_s / steps if steps else 0.0
        runs = self.client_runs
        out["core.client_runs"] = len(runs)
        out["core.client_run_s_p50"] = statistics.median(runs) if runs else 0.0
        out["core.client_run_s_p90"] = percentile(runs, 90)
        return out

    def attributed_s(self) -> float:
        """Sum of every span's self wall time."""
        return sum(record[0] for record in self.spans.values())


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100); below
    two samples, the one sample or 0.0."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]
