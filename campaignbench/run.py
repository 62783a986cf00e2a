#!/usr/bin/env python3
"""Campaign benchmark: end-to-end and per-layer cost of Gist diagnosis.

Run from the repository root::

    python3 campaignbench/run.py --workload diagnose --seed 0 --seconds 10 --trace 0

Workloads (see ``campaignbench/README.md`` for why each exists):

``diagnose``        sequential solo campaigns, ``repro corpus diagnose``
                    defaults (wire transport, exact statistics).
``plane``           all campaigns at once through ``ControlPlane``
                    (2 shards, cohorts of 64, streaming statistics).
``socket-journal``  the ``diagnose`` campaigns over the socket transport
                    with a write-ahead journal (``fleet serve``'s durable
                    configuration, in-process).
``recover``         set-up journals one ``diagnose`` campaign per bug; the
                    timed phase restarts a server from each journal again
                    and again and renders the recovered sketch.

Every workload covers all corpus bugs, runs one client run at a time in
one process, and checks its sketches.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` the
same work runs once untraced and once with every layer wrapped, and the
JSON carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: journals and the digest store
#: shared by the workloads' runs.
WORK = ROOT / ".bench_build" / "campaignbench"

WORKLOADS = ("diagnose", "plane", "socket-journal", "recover")

#: The ``repro corpus diagnose`` defaults every solo campaign uses.
ENDPOINTS = 4
MAX_ITERATIONS = 6
#: ``plane`` configuration.
PLANE_SHARDS = 2
PLANE_COHORT = 64
#: ``recover`` records journals on this many neighbouring input streams
#: (as ``diagnose`` makes two passes), so that one stream's ingest mix
#: weighs less in a run; a pass replays one stream's journals.
RECORDED_STREAMS = 2
#: ``recover`` makes at least this many passes, so the restart percentiles
#: rest on at least 10 x (number of bugs) samples.  Only ``recover`` adds
#: passes until ``--seconds`` have passed: every pass replays journals
#: recorded in set-up, so more passes change no input.
MIN_RESTART_PASSES = 10
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Distinct input streams the seed selects among (see stream_offset).
SEED_OFFSETS = 4
#: Passes over the corpus a timed phase makes, in untraced and traced
#: runs.  The campaign workloads make a fixed number, whatever the host's
#: or the program's speed, so every commit runs the same input streams:
#: untraced runs of the cheaper ones make two, on neighbouring streams,
#: so that one run averages more work.  For ``recover`` it is the least
#: number of rounds.
PASSES = {"diagnose": (2, 1), "plane": (2, 1), "socket-journal": (1, 1),
          "recover": (MIN_RESTART_PASSES, MIN_RESTART_PASSES)}

#: End-to-end metrics: name, unit, better.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("campaign_s_p50", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("failure_recurrences", "count", "lower"),
    ("accuracy_pct", "%", "higher"),
    ("overhead_pct", "%", "lower"),
)

_FOOTER = re.compile(r"failure recurrences=\d+")


def per_layer_metrics():
    """Per-layer metrics: name, unit, better (the traced run's output)."""
    from layers import SPAN_NAMES

    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}_s", "s", "lower"))
        out.append((f"{name}_cpu_s", "s", "lower"))
    out += [
        ("analysis.cache_hits", "count", "higher"),
        ("analysis.cache_misses", "count", "lower"),
        ("runtime.uninstrumented_runs", "count", "lower"),
        ("runtime.instrumented_runs", "count", "lower"),
        ("runtime.steps", "count", "lower"),
        ("runtime.ns_per_step", "ns", "lower"),
        ("pt.trace_bytes", "bytes", "lower"),
        ("hw.traps", "count", "lower"),
        ("core.client_runs", "count", "lower"),
        ("core.client_run_s_p50", "s", "lower"),
        ("core.client_run_s_p90", "s", "lower"),
        ("core.payload_bytes_saved", "bytes", "higher"),
        ("core.ingests", "count", "lower"),
        ("core.peak_tracked_bytes", "bytes", "lower"),
        ("fleet.uplink_bytes", "bytes", "lower"),
        ("fleet.socket_frames", "count", "lower"),
        ("fleet.recover_s_p90", "s", "lower"),
        ("control.rounds", "count", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    return tuple(out)


# ---------------------------------------------------------------------------
# Loading the program under test
# ---------------------------------------------------------------------------


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"campaignbench: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"campaignbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def stream_offset(seed: int, index: int = 0) -> int:
    """The input-stream offset of pass ``index`` of a run at ``seed``.

    The seed selects among :data:`SEED_OFFSETS` neighbouring input
    streams.  How many runs a campaign needs depends on its stream (187 at
    offset 0, 301 at offset 1,000,000), so larger offsets would make runs
    at different seeds measure different amounts of work.
    """
    return (seed + index) % SEED_OFFSETS


class OffsetFactory:
    """``i -> factory(offset + i)``: the offset shifts every run's input."""

    def __init__(self, factory: Callable, offset: int) -> None:
        self.factory = factory
        self.offset = offset

    def __call__(self, index: int):
        return self.factory(self.offset + index)


def prepare(bug_ids: Optional[List[str]]):
    """Set-up shared by every workload: the bug specs with their ideal
    sketches (the correctness oracle) built."""
    from repro.corpus import all_bug_ids, get_bug

    specs = [get_bug(bug_id)
             for bug_id in (bug_ids or all_bug_ids(include_extra=True))]
    for spec in specs:
        spec.ideal_sketch()
    return specs


def fresh_module(spec):
    """A newly compiled module for ``spec`` (new identity: no cache reuse)."""
    from repro.corpus import get_bug

    return get_bug(spec.bug_id).module()


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One campaign or one journal restart, with what it produced."""

    bug: str
    seconds: float = 0.0
    runs: int = 0
    digest: str = ""
    #: Digest with the ``failure recurrences=`` footer masked (the one
    #: line in which cohort-weighted ``plane`` sketches differ).
    digest_norm: str = ""
    recurrences: int = 0
    overhead_pct: float = 0.0
    accuracy_pct: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _finish_op(op: Op, spec, stats_sketch) -> None:
    """Render and check a finished operation's sketch."""
    from repro.core import render
    from repro.core.accuracy import score

    if stats_sketch is None:
        op.problems.append("no sketch")
        return
    text = render.render_sketch(stats_sketch)
    op.digest = hashlib.sha256(text.encode()).hexdigest()
    op.digest_norm = hashlib.sha256(
        _FOOTER.sub("failure recurrences=*", text).encode()).hexdigest()
    op.accuracy_pct = score(stats_sketch, spec.ideal_sketch()).overall
    if not spec.sketch_has_root(stats_sketch):
        op.problems.append("sketch misses the root cause")


def _guard(op: Op, body: Callable[[], None]) -> Op:
    """Run one operation; an exception fails it instead of the benchmark."""
    try:
        body()
    except Exception as err:  # one operation's failure is a measurement
        traceback.print_exc(file=sys.stderr)
        op.problems.append(f"raised {type(err).__name__}: {err}")
    return op


def solo_campaign(spec, offset: int, transport: str,
                  journal_dir: Optional[Path]) -> Op:
    """One ``repro corpus diagnose`` campaign on a freshly compiled module."""
    from repro.analysis.context import AnalysisContext
    from repro.core.cooperative import CooperativeDeployment

    op = Op(spec.bug_id)

    def body() -> None:
        t0 = time.perf_counter()
        module = fresh_module(spec)
        context = AnalysisContext(module)
        with CooperativeDeployment(
                module, OffsetFactory(spec.workload_factory, offset),
                endpoints=ENDPOINTS, bug=spec.bug_id, context=context,
                transport=transport,
                journal_dir=str(journal_dir) if journal_dir else None,
                detectors=spec.detectors) as deployment:
            stats = deployment.run_campaign(stop_when=spec.sketch_has_root,
                                            max_iterations=MAX_ITERATIONS)
        _finish_op(op, spec, stats.sketch)
        op.seconds = time.perf_counter() - t0
        op.runs = stats.total_runs
        op.recurrences = stats.failure_recurrences
        op.overhead_pct = stats.avg_overhead_percent
    return _guard(op, body)


def plane_pass(specs, offset: int) -> List[Op]:
    """Every campaign at once through the control plane.  A campaign's time
    is its own share of the plane: the wall time of the
    ``CampaignDriver.step`` calls that advanced it."""
    from repro.analysis.context import AnalysisContext
    from repro.control import CampaignSpec, ControlPlane
    from repro.core.cooperative import CampaignDriver

    ops = {spec.bug_id: Op(spec.bug_id) for spec in specs}
    step = CampaignDriver.step

    def observed_step(driver, budget):
        t0 = time.perf_counter()
        try:
            return step(driver, budget)
        finally:
            ops[driver.dep.bug].seconds += time.perf_counter() - t0

    def body() -> None:
        plane_specs = []
        for spec in specs:
            module = fresh_module(spec)
            plane_specs.append(CampaignSpec(
                bug=spec.bug_id, module=module,
                workload_factory=OffsetFactory(spec.workload_factory, offset),
                stop_when=spec.sketch_has_root,
                context=AnalysisContext(module),
                detectors=spec.detectors))
        plane = ControlPlane(plane_specs, shards=PLANE_SHARDS,
                             endpoints=ENDPOINTS, cohort_size=PLANE_COHORT,
                             scheduler="infogain", transport="wire",
                             stats="streaming",
                             max_iterations=MAX_ITERATIONS)
        CampaignDriver.step = observed_step
        try:
            result = plane.run()
        finally:
            CampaignDriver.step = step
        for spec in specs:
            op = ops[spec.bug_id]
            stats = result.stats[spec.bug_id]
            _guard(op, lambda: _finish_op(op, spec, stats.sketch))
            op.runs = result.runs_of[spec.bug_id]
            op.recurrences = stats.failure_recurrences
            op.overhead_pct = stats.avg_overhead_percent

    whole = _guard(Op("plane"), body)
    for op in ops.values():
        op.problems.extend(whole.problems)
    return list(ops.values())


def restart(spec, journal: Path, live: Op) -> Op:
    """One server restart: replay ``journal`` into a freshly compiled module
    and a cold analysis context, then render the recovered sketch."""
    from repro.analysis.context import AnalysisContext
    from repro.fleet.journal import recover_server

    op = Op(spec.bug_id)

    def body() -> None:
        t0 = time.perf_counter()
        module = fresh_module(spec)
        state = recover_server(journal, module,
                               context=AnalysisContext(module))
        campaign = state.campaigns[None]
        _finish_op(op, spec, campaign.latest_sketch())
        op.seconds = time.perf_counter() - t0
        op.runs = state.ingests_replayed
        op.recurrences = campaign.total_failure_recurrences
        if op.digest != live.digest:
            op.problems.append("recovered sketch differs from the live one")
        if op.recurrences != live.recurrences:
            op.problems.append("recovered recurrences differ from live")
    return _guard(op, body)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """One timed phase: repeated passes over every bug."""

    passes: List[List[Op]] = field(default_factory=list)
    offsets: List[int] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def ops(self) -> List[Op]:
        return [op for ops in self.passes for op in ops]


class Workload:
    """A workload: optional recorded set-up, then repeatable passes."""

    #: A phase ends on a whole number of cycles of this many passes.
    cycle = 1

    def __init__(self, name: str, specs, seed: int, work: Path) -> None:
        self.name = name
        self.specs = specs
        self.seed = seed
        self.work = work
        #: Operations the set-up itself ran (``recover``'s recordings).
        self.setup_ops: List[Op] = []
        self.setup_extra_s = 0.0

    def setup(self) -> None:
        """Work done once before timing (counted in ``setup_s``)."""

    def offset(self, index: int) -> int:
        return stream_offset(self.seed, index)

    def run_pass(self, offset: int) -> List[Op]:
        if self.name == "plane":
            return plane_pass(self.specs, offset)
        transport = "socket" if self.name == "socket-journal" else "wire"
        journal_root = (self.work / "journals"
                        if self.name == "socket-journal" else None)
        return [solo_campaign(
                    spec, offset, transport,
                    journal_root / spec.bug_id if journal_root else None)
                for spec in self.specs]

    def run_phase(self, passes: int, seconds: float = 0.0) -> Phase:
        """Run ``passes`` passes, then more until ``seconds`` have elapsed
        (``recover`` only: see :data:`MIN_RESTART_PASSES`), ending on a
        whole :attr:`cycle`."""
        phase = Phase()
        gc.collect()
        t0 = time.perf_counter()
        while (len(phase.passes) < passes
               or time.perf_counter() - t0 < seconds
               or len(phase.passes) % self.cycle):
            offset = self.offset(len(phase.passes))
            p0 = time.perf_counter()
            phase.passes.append(self.run_pass(offset))
            phase.walls.append(time.perf_counter() - p0)
            phase.offsets.append(offset)
        return phase

    def simulated(self, phase: Phase) -> Dict[str, float]:
        """Simulated statistics: means over the phase's passes."""
        ops = phase.ops
        return {
            "failure_recurrences":
                sum(op.recurrences for op in ops) / len(phase.passes),
            "accuracy_pct": statistics.fmean(op.accuracy_pct for op in ops),
            "overhead_pct": statistics.fmean(op.overhead_pct for op in ops),
        }

    def checked_ops(self, phase: Phase) -> Dict[int, List[Op]]:
        """Operations whose sketches the cross-workload check covers, by
        input-stream offset."""
        by_offset: Dict[int, List[Op]] = {}
        for offset, ops in zip(phase.offsets, phase.passes):
            by_offset.setdefault(offset, []).extend(ops)
        return by_offset


class RecoverWorkload(Workload):
    cycle = RECORDED_STREAMS

    def setup(self) -> None:
        t0 = time.perf_counter()
        #: (offset, bug) -> journal, and the live campaign that wrote it.
        self.journals: Dict[tuple, Path] = {}
        self.live: Dict[tuple, Op] = {}
        for offset in map(self.offset, range(self.cycle)):
            for spec in self.specs:
                journal_dir = (self.work / "recorded" / str(offset)
                               / spec.bug_id)
                op = solo_campaign(spec, offset, "wire", journal_dir)
                self.setup_ops.append(op)
                self.live[offset, spec.bug_id] = op
                found = sorted(journal_dir.glob("*.wal"))
                if len(found) != 1:
                    op.problems.append(
                        f"expected one journal, found {len(found)}")
                else:
                    self.journals[offset, spec.bug_id] = found[0]
        self.setup_extra_s = time.perf_counter() - t0

    def offset(self, index: int) -> int:
        # Passes cycle through the streams recorded in set-up.
        return stream_offset(self.seed, index % self.cycle)

    def run_pass(self, offset: int) -> List[Op]:
        ops = []
        for spec in self.specs:
            journal = self.journals.get((offset, spec.bug_id))
            if journal is None:
                ops.append(Op(spec.bug_id, problems=["no journal recorded"]))
                continue
            ops.append(restart(spec, journal,
                               self.live[offset, spec.bug_id]))
        return ops

    def simulated(self, phase: Phase) -> Dict[str, float]:
        # Recurrences and overhead are properties of the journaled
        # campaigns; every restart must reproduce the recurrences and the
        # sketch, whose accuracy is reported.
        live = self.setup_ops
        return {
            "failure_recurrences":
                sum(op.recurrences for op in live) / self.cycle,
            "accuracy_pct":
                statistics.fmean(op.accuracy_pct for op in phase.ops),
            "overhead_pct": statistics.fmean(op.overhead_pct for op in live),
        }

    def checked_ops(self, phase: Phase) -> Dict[int, List[Op]]:
        by_offset: Dict[int, List[Op]] = {}
        for (offset, _bug), op in self.live.items():
            by_offset.setdefault(offset, []).append(op)
        for offset, ops in zip(phase.offsets, phase.passes[:self.cycle]):
            by_offset[offset].extend(ops)
        return by_offset


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_same_sketches(phase: Phase, reference: Phase, what: str) -> None:
    """Each pass must reproduce the sketches of the same pass of
    ``reference`` (same input streams) byte for byte."""
    for ops, ref_ops in zip(phase.passes, reference.passes):
        ref = {op.bug: op.digest for op in ref_ops}
        for op in ops:
            if op.digest and ref.get(op.bug) and op.digest != ref[op.bug]:
                op.problems.append(f"sketch differs from the {what}")


def code_key() -> str:
    """Digest of the sources a sketch depends on: ``src/`` and this file.

    It keys the digest store, so that only runs of the same code are
    compared, whether or not the checkout is a git repository.
    """
    sha = hashlib.sha256()
    files = sorted(path for path in SRC.rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    for path in files + [Path(__file__).resolve()]:
        sha.update(str(path.relative_to(ROOT)).encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()[:16]


def check_cross_workload(workload: str, offset: int, ops: List[Op],
                         store_dir: Path) -> None:
    """Sketch digests must agree across workloads on the same inputs.

    ``store_dir`` holds one table per input-stream offset that the runs of
    every workload of the same code share: each run checks its sketches
    against the table and records those it is the first to produce, so
    the check holds whichever workload runs first.  Every workload
    compares the digest with the ``failure recurrences=`` footer masked;
    all but ``plane``, whose footers are cohort-weighted, also compare
    the whole digest.
    """
    keys = ("digest_norm",) if workload == "plane" \
        else ("digest_norm", "digest")
    store_path = store_dir / f"offset-{offset}.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() \
        else {}
    for op in ops:
        if not op.digest:
            continue
        entry = store.get(op.bug, {})
        if any(key in entry and entry[key] != getattr(op, key)
               for key in keys):
            op.problems.append(
                f"sketch differs from another run's at offset {offset}")
    for op in ops:
        if op.failed or not op.digest:
            continue
        entry = store.setdefault(op.bug, {})
        for key in keys:
            entry.setdefault(key, getattr(op, key))
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    tmp.replace(store_path)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(reset_ok: bool) -> float:
    if reset_ok:
        with open("/proc/self/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        if match:
            return int(match.group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(args) -> None:
    """Child-process mode: time import plus set-up from a fresh interpreter."""
    t0 = time.perf_counter()
    import_repro()
    prepare(args.bugs)
    print(time.perf_counter() - t0)


def time_setup(args) -> float:
    """Median of :data:`SETUP_PROBES` fresh-process set-ups."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.bugs:
        cmd += ["--bugs", ",".join(args.bugs)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(workload: Workload, phase: Phase, setup_s: float,
               rss_mb: float) -> Dict[str, float]:
    ops = phase.ops
    metrics = {
        "setup_s": setup_s,
        "campaign_s_p50": statistics.median(op.seconds for op in ops),
        "runs_per_s": sum(op.runs for op in ops) / phase.wall,
        "peak_rss_mb": rss_mb,
    }
    metrics.update(workload.simulated(phase))
    return metrics


def per_layer(tracer, phase: Phase, untraced: Phase) -> Dict[str, float]:
    from layers import percentile

    out = tracer.metrics()
    restarts = [op.seconds for op in untraced.ops] \
        if untraced.passes and len(untraced.ops) >= 100 else []
    out["fleet.recover_s_p90"] = percentile(restarts, 90) if restarts else 0.0
    out["trace.untraced_wall_s"] = untraced.wall
    out["trace.traced_wall_s"] = phase.wall
    out["trace.overhead_s"] = phase.wall - untraced.wall
    out["trace.unattributed_s"] = phase.wall - tracer.attributed_s()
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the input streams (see stream_offset)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least timed duration of recover's untraced "
                             "phase; the other workloads run fixed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bugs", default=None,
                        type=lambda raw: [b for b in raw.split(",") if b],
                        help="comma-separated bug subset (default: all)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_repro()
    setup_s = time_setup(args)
    sys.path.insert(0, str(BENCH_DIR))
    from layers import LayerTracer

    specs = prepare(args.bugs)
    work = WORK / f"run-{os.getpid()}"
    cls = RecoverWorkload if args.workload == "recover" else Workload
    workload = cls(args.workload, specs, args.seed, work)
    passes = PASSES[args.workload][args.trace]
    seconds = args.seconds if args.workload == "recover" else 0.0
    key = code_key()
    try:
        workload.setup()
        setup_s += workload.setup_extra_s
        reset_ok = reset_peak_rss()
        untraced = workload.run_phase(passes, seconds)
        rss_mb = peak_rss_mb(reset_ok)
        metrics = end_to_end(workload, untraced, setup_s, rss_mb)
        all_ops = workload.setup_ops + untraced.ops
        if args.trace:
            tracer = LayerTracer().install()
            try:
                traced = workload.run_phase(len(untraced.passes))
            finally:
                tracer.uninstall()
            check_same_sketches(traced, untraced, "untraced run")
            metrics = per_layer(tracer, traced, untraced)
            all_ops += traced.ops
        for offset, ops in workload.checked_ops(untraced).items():
            check_cross_workload(args.workload, offset, ops,
                                 WORK / "digests" / key)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(op.failed for op in all_ops)
    for op in all_ops:
        for problem in op.problems:
            print(f"FAILED {op.bug}: {problem}", file=sys.stderr)
    first = untraced.passes[0]
    found = sum(not op.failed for op in first)
    units = dict((name, unit) for name, unit, _ in
                 (per_layer_metrics() if args.trace else END_TO_END))
    print(f"campaignbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} commit={git_commit()} "
          f"code={key}")
    offsets = sorted(set(untraced.offsets))
    print(f"root causes found: {found}/{len(first)}; passes: "
          f"{len(untraced.passes)} at stream offsets {offsets}; "
          f"operations: {len(all_ops)}, failed: {failed}")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
