"""Three-way equivalence: compiled == decoded == strict.

The interpreter tiers are pure speed changes; these tests pin the compiled
tier (GIR compiled to Python generators) and the decoded tier (pre-decoded
closure streams + subscriber-list dispatch + memory fast paths) to the
preserved reference interpreter (``mode="strict"``) across the whole
corpus: identical event sequences, byte-identical PT buffers, identical
watchpoint trap logs, identical outcomes and cost accounting, and
identical end-to-end diagnosis sketches.

Instrumented runs exercise the fallback-at-trace-point contract (any
attached tracer forces the decoded tier); uninstrumented runs exercise the
compiled generators themselves.
"""

import gc
import weakref

import pytest

from repro.analysis.context import AnalysisContext
from repro.core.render import render_sketch
from repro.corpus import all_bug_ids, get_bug
from repro.corpus.evaluation import evaluate_bug
from repro.hw.watchpoints import WatchpointUnit
from repro.pt.encoder import PTConfig, PTEncoder
from repro.runtime import compiled as compiled_mod
from repro.runtime import decoded as decoded_mod
from repro.runtime import interpreter as interp_mod
from repro.runtime.compiled import compiled_program
from repro.runtime.decoded import decoded_program
from repro.runtime.events import Tracer, subscribes
from repro.runtime.interpreter import Interpreter
from repro.runtime.memory import GLOBAL_BASE

MODES = ("compiled", "decoded", "strict")


class EventLog(Tracer):
    """Records every event verbatim (events are frozen dataclasses, so
    list equality is full structural equality)."""

    def __init__(self):
        self.events = []

    def on_branch(self, interp, event):
        self.events.append(event)

    def on_flow(self, interp, event):
        self.events.append(event)

    def on_mem(self, interp, event):
        self.events.append(event)

    def on_sync(self, interp, event):
        self.events.append(event)


class CostOnly(Tracer):
    """Pays per-event costs but observes nothing (no overrides)."""

    cost_per_step = 1
    cost_per_branch = 2
    cost_per_mem = 3
    cost_per_flow = 1


def _workloads(spec):
    out = [("seed0", spec.workload_factory(0)),
           ("seed1", spec.workload_factory(1))]
    if spec.failing_probe is not None:
        out.append(("probe", spec.failing_probe))
    return out


def _outcome_key(outcome):
    f = outcome.failure
    return (outcome.failed, outcome.exit_value, outcome.steps,
            outcome.base_cost, outcome.extra_cost, tuple(outcome.stdout),
            None if f is None else (f.kind, f.pc, f.tid, f.message,
                                    f.stack, f.address))


def _run(spec, workload, mode):
    module = spec.module()
    log = EventLog()
    pt = PTEncoder(trace_on_start=True)
    wpu = WatchpointUnit()
    if module.globals:
        wpu.set_watchpoint(GLOBAL_BASE, length=4, condition="rw")
    interp = Interpreter(module, args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=[log, pt, wpu],
                         max_steps=workload.max_steps,
                         mode=mode)
    outcome = interp.run()
    pt_bytes = {tid: pt.raw_trace(tid) for tid in sorted(pt.buffers)}
    return (_outcome_key(outcome), dict(interp.cost.counts), log.events,
            pt_bytes, list(wpu.trap_log), wpu.traps_taken)


def _run_uninstrumented(spec, workload, mode):
    interp = Interpreter(spec.module(), args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         max_steps=workload.max_steps,
                         mode=mode)
    outcome = interp.run()
    return (_outcome_key(outcome), dict(interp.cost.counts))


_PARTS = ("outcome", "op counts", "event log", "pt buffers",
          "trap log", "traps taken")


@pytest.mark.parametrize("bug_id", all_bug_ids())
def test_bug_runs_identical_across_dispatch_modes(bug_id):
    """Instrumented three-way matrix: tracers attached, so the compiled
    tier exercises its fallback-at-trace-point contract (decoded tier)."""
    spec = get_bug(bug_id)
    for label, workload in _workloads(spec):
        want = _run(spec, workload, mode="strict")
        for mode in ("compiled", "decoded"):
            got = _run(spec, workload, mode=mode)
            for part, g, w in zip(_PARTS, got, want):
                assert g == w, f"{bug_id}/{label}/{mode}: {part} diverged"


@pytest.mark.parametrize("bug_id", all_bug_ids())
def test_uninstrumented_runs_identical_across_modes(bug_id):
    """Uninstrumented three-way matrix: no tracers, so ``compiled`` really
    runs the exec-compiled generators — outcomes, step counts, and cost
    accounting must match the reference byte for byte."""
    spec = get_bug(bug_id)
    for label, workload in _workloads(spec):
        want = _run_uninstrumented(spec, workload, mode="strict")
        for mode in ("compiled", "decoded"):
            got = _run_uninstrumented(spec, workload, mode=mode)
            assert got == want, f"{bug_id}/{label}/{mode} diverged"


def test_compiled_tier_requires_no_tracers():
    """The tier gate itself: with any tracer attached an interpreter in
    ``compiled`` mode must take the decoded path (fallback contract)."""
    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    module = spec.module()
    bare = Interpreter(module, args=list(workload.args),
                       scheduler=workload.make_scheduler(),
                       max_steps=workload.max_steps, mode="compiled")
    assert bare._compiled is not None
    traced = Interpreter(module, args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=[EventLog()],
                         max_steps=workload.max_steps, mode="compiled")
    # The compiled program may be cached, but run() must not use it when
    # tracers are attached; both still finish with identical outcomes.
    b, t = bare.run(), traced.run()
    assert (b.failed, b.exit_value, b.steps) == \
        (t.failed, t.exit_value, t.steps)


@pytest.mark.parametrize("bug_id", ["pbzip2-1", "curl-965"])
@pytest.mark.parametrize("mode", ["compiled", "decoded"])
def test_campaign_sketches_identical_across_dispatch_modes(
        bug_id, mode, monkeypatch):
    """Whole diagnosis campaigns (clients construct their own interpreters)
    produce the same sketch under every tier, toggled through the
    module-wide default tier."""
    spec = get_bug(bug_id)
    results = {}
    for active in (mode, "strict"):
        monkeypatch.setattr(interp_mod, "INTERP_MODE_DEFAULT", active)
        ev = evaluate_bug(spec, mode="full", endpoints=2, max_iterations=4,
                          max_runs_per_iteration=60,
                          context=AnalysisContext(spec.module()))
        assert ev.best is not None and ev.best.sketch is not None
        results[active] = (render_sketch(ev.best.sketch), ev.found,
                           ev.recurrences, ev.total_runs,
                           ev.iterations_used)
    assert results[mode] == results["strict"]


def test_decoded_stream_cached_per_module_and_epoch():
    module = get_bug("pbzip2-1").module()
    first = decoded_program(module)
    assert decoded_program(module) is first  # same epoch: shared decode
    module.finalize()                        # bumps analysis_epoch
    rebuilt = decoded_program(module)
    assert rebuilt is not first
    assert rebuilt.epoch == module.analysis_epoch
    ctx = AnalysisContext(module)
    assert ctx.decoded_program() is decoded_program(module)
    assert ctx.stats.by_kind["decoded"]["hits"] == 0
    ctx.decoded_program()
    assert ctx.stats.by_kind["decoded"]["hits"] == 1


def test_decoded_stream_freed_with_its_module():
    """The stream cache is weakly keyed: dropping the last reference to a
    module frees its entry (the stream must not hold its own key)."""
    module = get_bug("pbzip2-1").module()
    decoded_program(module)
    assert module in decoded_mod._CACHE
    alive = weakref.ref(module)
    del module
    gc.collect()
    # Nothing, the cached stream included, kept the module alive, so the
    # weak-keyed entry went with it.
    assert alive() is None


def test_compiled_program_cached_per_module_and_epoch():
    module = get_bug("pbzip2-1").module()
    first = compiled_program(module)
    assert compiled_program(module) is first  # same epoch: shared compile
    module.finalize()                         # bumps analysis_epoch
    rebuilt = compiled_program(module)
    assert rebuilt is not first
    assert rebuilt.epoch == module.analysis_epoch


def test_compiled_cache_evicts_under_cap(monkeypatch):
    """The module-level LRU respects its cap and counts evictions."""
    monkeypatch.setattr(compiled_mod, "COMPILED_CACHE_CAP", 2)
    compiled_mod._CACHE.clear()
    before = compiled_mod.cache_evictions
    modules = [get_bug(bid).module()
               for bid in ("pbzip2-1", "curl-965", "apache-21287")]
    progs = [compiled_program(m) for m in modules]
    assert compiled_mod.cache_evictions == before + 1  # first module out
    assert len(compiled_mod._CACHE) == 2
    # The evicted module recompiles (fresh object); the survivors are hits.
    assert compiled_program(modules[2]) is progs[2]
    assert compiled_program(modules[0]) is not progs[0]
    assert compiled_mod.cache_evictions == before + 2


def test_unobserved_events_allocate_nothing(monkeypatch):
    """With only cost-declaring (non-observing) tracers attached, the hot
    path must not construct a single event object — the zero-cost dispatch
    invariant.  Event constructors are replaced with mines; the run only
    completes if nothing steps on one."""

    def mine(*args, **kwargs):
        raise AssertionError("event allocated with no subscribers")

    for name in ("BranchEvent", "FlowEvent", "MemEvent"):
        monkeypatch.setattr(decoded_mod, name, mine)
        monkeypatch.setattr(interp_mod, name, mine)
    monkeypatch.setattr(interp_mod, "SyncEvent", mine)

    spec = get_bug("pbzip2-1")
    workload = spec.workload_factory(0)
    tracer = CostOnly()
    interp = Interpreter(spec.module(), args=list(workload.args),
                         scheduler=workload.make_scheduler(),
                         tracers=[tracer], max_steps=workload.max_steps,
                         mode="decoded")
    outcome = interp.run()
    assert outcome.steps > 0
    assert outcome.extra_cost > 0  # the costs were still charged


def test_subscription_detection():
    assert not subscribes(CostOnly(), "on_mem")
    assert subscribes(EventLog(), "on_mem")
    assert subscribes(WatchpointUnit(), "on_mem")  # armed mid-run: stays on
    assert not subscribes(PTEncoder(), "on_mem")   # vetoed without PTWRITE
    assert subscribes(PTEncoder(PTConfig(ptwrite=True)), "on_mem")
    assert subscribes(PTEncoder(), "on_branch")

    plain = Tracer()
    assert not subscribes(plain, "on_branch")
    plain.on_branch = lambda interp, event: None  # instance-level handler
    assert subscribes(plain, "on_branch")
