"""Per-layer host time, traced from outside the simulator.

:class:`Tracer` replaces each layer-boundary callable listed in
:data:`BOUNDARIES` with a wrapper that records one span (target, start,
end, parent span, operation index) in memory, and puts every original
back on :meth:`Tracer.restore`. A module-level function is patched in
every module that holds it, since ``from x import f`` copies the name
(``compile_block`` is looked up in ``repro.dbr.engine``). The wrappers
must be in place before any system is built: compiled steps capture
bound methods such as ``cpu.execute``.

A layer's self time is the time its spans cover minus the time covered
by their child spans, so the self times of all layers plus
``unattributed_s`` add up to ``trace.wall_s``: the wall time the traced
pass spends building its inputs and inside its operations. Counts come
from the payloads the operations return (:class:`RunResult`, recording
stats, replay verdicts, oracle verdicts) and from span counts where the
metric is a call count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import zlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: (layer, module, attribute) of every wrapped boundary. ``Class.method``
#: patches the class; a bare name patches a module-level function
#: everywhere it is bound. Properties are wrapped through their getter.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    # Building a system is part of every simulation; each constructor
    # is charged to its layer.
    ("guestos", "repro.guestos.kernel", "Kernel.__init__"),
    ("guestos", "repro.guestos.kernel", "Kernel.create_process"),
    ("dbr.engine", "repro.dbr.engine", "DBREngine.__init__"),
    ("hypervisor", "repro.hypervisor.aikidovm", "AikidoVM.__init__"),
    ("core", "repro.core.system", "AikidoSystem.__init__"),
    ("guestos", "repro.guestos.kernel", "Kernel.run"),
    ("guestos", "repro.guestos.kernel", "Kernel.service"),
    ("guestos.native_driver", "repro.guestos.driver", "NativeDriver.run"),
    ("machine", "repro.machine.cpu", "CPU.execute"),
    ("dbr.engine", "repro.dbr.engine", "DBREngine.run"),
    ("dbr.compile", "repro.dbr.engine", "compile_block"),
    ("dbr.compile", "repro.dbr.codecache", "CodeCache.get"),
    ("dbr.compile", "repro.dbr.codecache", "CodeCache.invalidate"),
    ("dbr.compile", "repro.dbr.codecache", "CodeCache.invalidate_all"),
    ("dbr.compile", "repro.dbr.codecache",
     "CodeCache.invalidate_blocks_of_instruction"),
    ("dbr.superblock", "repro.dbr.engine", "plan_chain"),
    ("dbr.superblock", "repro.dbr.engine", "compile_superblock"),
    ("dbr.traceprofiler", "repro.dbr.traceprofiler",
     "TraceProfiler.note_edge"),
    ("dbr.traceprofiler", "repro.dbr.traceprofiler",
     "TraceProfiler.hot_successor"),
    ("hypervisor", "repro.hypervisor.aikidovm", "AikidoVM.handle_fault"),
    ("hypervisor", "repro.hypervisor.aikidovm", "AikidoVM.hypercall"),
    ("hypervisor", "repro.hypervisor.aikidovm",
     "AikidoVM.on_context_switch"),
    ("hypervisor", "repro.hypervisor.aikidovm", "AikidoVM.translate"),
    ("core", "repro.core.sharing", "SharingDetector.instrument_block"),
    ("core", "repro.core.sharing", "SharingDetector.on_sync_event"),
    ("core", "repro.core.aikidolib", "AikidoLib.set_page_protection"),
    ("core", "repro.analyses.fasttrack.aikido_tool",
     "AikidoFastTrack.on_shared_access"),
    ("umbra", "repro.umbra.shadow", "ShadowMemory.translate"),
) + tuple(
    ("fasttrack", "repro.analyses.fasttrack.detector",
     f"FastTrackDetector.{name}")
    for name in ("on_read", "on_write", "on_acquire", "on_release",
                 "on_fork", "on_join", "on_barrier")
) + tuple(
    ("djit", "repro.analyses.djit", f"DjitDetector.{name}")
    for name in ("on_read", "on_write", "on_acquire", "on_release",
                 "on_fork", "on_join", "on_barrier")
) + tuple(
    (layer, module, f"{cls}.{name}")
    for layer, module, cls in (
        ("eraser", "repro.analyses.eraser", "EraserDetector"),
        ("memtag", "repro.analyses.memtag", "MemTagDetector"))
    for name in ("on_access", "on_acquire", "on_release")
) + (
    ("eventlog.encode", "repro.eventlog.log", "EventLogWriter.append"),
    ("eventlog.encode", "repro.eventlog.encoding", "encode_entries"),
    ("eventlog.decode", "repro.eventlog.encoding", "decode_entries"),
    ("eventlog.decode", "repro.eventlog.log", "EventLogReader.iter_chunks"),
    ("staticanalysis", "repro.staticanalysis.analysiscache",
     "analysis_for"),
    ("staticanalysis", "repro.staticanalysis.lint", "lint_program"),
) + tuple(
    # analysis_for returns a lazy bundle; the analyses run when these
    # are first read.
    ("staticanalysis", "repro.staticanalysis.analysiscache",
     f"ProgramAnalysis.{name}")
    for name in ("cfg", "_discover", "sharing", "locksets", "races",
                 "elision", "lint")
) + (
    ("scengen", "repro.scengen.generator", "generate"),
    ("scengen", "repro.scengen.scenario", "render"),
    ("scengen", "repro.scengen.oracle", "check_scenario"),
    ("workloads", "repro.workloads.parsec", "build_benchmark"),
)

#: Layer -> metric name of its self time.
SELF_METRICS = {
    "guestos": "guestos.self_s",
    "guestos.native_driver": "guestos.native_driver.self_s",
    "machine": "machine.self_s",
    "dbr.engine": "dbr.engine.self_s",
    "dbr.compile": "dbr.compile.self_s",
    "dbr.superblock": "dbr.superblock.compile_s",
    "dbr.traceprofiler": "dbr.traceprofiler.self_s",
    "hypervisor": "hypervisor.self_s",
    "core": "core.self_s",
    "umbra": "umbra.self_s",
    "fasttrack": "fasttrack.self_s",
    "djit": "djit.self_s",
    "eraser": "eraser.self_s",
    "memtag": "memtag.self_s",
    "eventlog.encode": "eventlog.encode_s",
    "eventlog.decode": "eventlog.decode_s",
    "staticanalysis": "staticanalysis.self_s",
    "scengen": "scengen.self_s",
    "workloads": "workloads.build_s",
}

#: Metric name -> boundary whose span count it reports.
CALL_METRICS = {
    "guestos.service.calls": "Kernel.service",
    "machine.execute.calls": "CPU.execute",
    "dbr.compile.calls": "compile_block",
    "hypervisor.handle_fault.calls": "AikidoVM.handle_fault",
    "hypervisor.hypercall.calls": "AikidoVM.hypercall",
    "umbra.translate.calls": "ShadowMemory.translate",
}

#: Classes whose instances are kept for counters read after the run.
TRACKED_INSTANCES = {"tlb": ("repro.machine.tlb", "TLB")}


def _owners_of(value) -> List[Tuple[object, str]]:
    """Every (module, name) binding ``value`` at module level."""
    owners = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, bound in list(namespace.items()):
            if bound is value:
                owners.append((module, name))
    return owners


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.targets: List[str] = []
        self.layers: List[str] = []
        self.target = array("H")
        self.parent = array("i")
        self.operation = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_operation = -1
        self.instances: Dict[str, list] = {k: [] for k in TRACKED_INSTANCES}
        #: (owner, name, original) of every patched attribute.
        self.patches: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, target_id: int):
        target, parent, operation = self.target, self.parent, self.operation
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_span(*args, **kwargs):
                # One span per resumption: the work happens in next().
                inner = fn(*args, **kwargs)
                while True:
                    index = len(start)
                    target.append(target_id)
                    parent.append(stack[-1])
                    operation.append(tracer.current_operation)
                    end.append(0.0)
                    stack.append(index)
                    start.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end[index] = clock()
                        stack.pop()
                    yield item
            return generator_span

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(start)
            target.append(target_id)
            parent.append(stack[-1])
            operation.append(tracer.current_operation)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
        return span

    def _instance_tracker(self, init, bucket: list):
        @functools.wraps(init)
        def tracked_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)
        return tracked_init

    def _patch(self, owner, name: str, replacement) -> None:
        self.patches.append((owner, name, inspect.getattr_static(owner,
                                                                 name)))
        setattr(owner, name, replacement)

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary; call before any system is built."""
        for layer, module_name, attribute in boundaries:
            module = importlib.import_module(module_name)
            target_id = len(self.targets)
            self.targets.append(attribute)
            self.layers.append(layer)
            if "." in attribute:
                cls_name, name = attribute.split(".")
                owner = getattr(module, cls_name)
                original = inspect.getattr_static(owner, name)
                if isinstance(original, property):
                    replacement = property(
                        self._span_wrapper(original.fget, target_id),
                        original.fset, original.fdel, original.__doc__)
                else:
                    replacement = self._span_wrapper(original, target_id)
                self._patch(owner, name, replacement)
            else:
                original = getattr(module, attribute)
                replacement = self._span_wrapper(original, target_id)
                for owner, name in _owners_of(original):
                    self._patch(owner, name, replacement)
        for key, (module_name, cls_name) in TRACKED_INSTANCES.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "__init__", self._instance_tracker(
                inspect.getattr_static(cls, "__init__"),
                self.instances[key]))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    def begin_operation(self, index: int) -> None:
        self.current_operation = index

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> Tuple[List[float], List[float]]:
        """(per-span duration, per-span self time)."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent] += durations[index]
        return durations, [d - c for d, c in zip(durations, children)]

    def write(self, path: Path) -> None:
        """Write the spans out, zlib-compressed: one JSON header line
        (target and layer names, column typecodes, span count), then
        each column's raw machine-order bytes in header order."""
        columns = {"target": self.target, "parent": self.parent,
                   "operation": self.operation, "start": self.start,
                   "end": self.end}
        header = {"targets": self.targets, "layers": self.layers,
                  "spans": len(self),
                  "columns": {k: c.typecode for k, c in columns.items()}}
        blob = json.dumps(header).encode() + b"\n" + b"".join(
            c.tobytes() for c in columns.values())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(zlib.compress(blob, 6))


def attributes_snapshot(boundaries=BOUNDARIES) -> Dict[str, object]:
    """Every attribute :meth:`Tracer.install` may patch, by identity."""
    snapshot = {}
    for _, module_name, attribute in boundaries:
        module = importlib.import_module(module_name)
        if "." in attribute:
            cls_name, name = attribute.split(".")
            owner = getattr(module, cls_name)
            snapshot[f"{module_name}.{attribute}"] = inspect.getattr_static(
                owner, name)
        else:
            original = getattr(module, attribute)
            for owner, name in _owners_of(original):
                snapshot[f"{owner.__name__}.{name}"] = original
    for module_name, cls_name in TRACKED_INSTANCES.values():
        cls = getattr(importlib.import_module(module_name), cls_name)
        snapshot[f"{module_name}.{cls_name}.__init__"] = (
            inspect.getattr_static(cls, "__init__"))
    return snapshot


# -- metrics ---------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcomes, wall: float) -> Dict[str, float]:
    """Per-layer metric values from one traced pass."""
    from repro.harness.runner import RunResult

    durations, selfs = tracer.self_times()
    metrics = {name: 0.0 for name in SELF_METRICS.values()}
    for index, self_time in enumerate(selfs):
        layer = tracer.layers[tracer.target[index]]
        metrics[SELF_METRICS[layer]] += self_time
    calls = {name: 0 for name in tracer.targets}
    for target_id in tracer.target:
        calls[tracer.targets[target_id]] += 1
    for metric, target in CALL_METRICS.items():
        metrics[metric] = calls.get(target, 0)

    runs = [(i, o.payload) for i, o in enumerate(outcomes)
            if isinstance(o.payload, RunResult)]
    dbr_runs = [(i, r) for i, r in runs if r.mode != "native"]
    aikido = [r for _, r in runs if r.mode == "aikido-fasttrack"]

    def total(results, field, key):
        return sum(getattr(r, field).get(key, 0) for r in results)

    dbr_results = [r for _, r in dbr_runs]
    instructions = total(dbr_results, "run_stats", "instructions")
    dbr_ops = {i for i, _ in dbr_runs}
    engine_target = tracer.targets.index("DBREngine.run")
    engine_seconds = sum(
        durations[k] for k in range(len(durations))
        if tracer.target[k] == engine_target
        and tracer.operation[k] in dbr_ops)
    superblocks = [r.superblocks or {} for r in dbr_results]

    def sb(key):
        return sum(s.get(key, 0) for s in superblocks)

    tlbs = tracer.instances["tlb"]
    fast_hits = sum(t.fast_hits for t in tlbs)
    fast_misses = sum(t.fast_misses for t in tlbs)

    ft_profiles = [r.detector_profile for _, r in runs if r.mode != "native"]
    records = [o.payload for o in outcomes
               if o.kind == "record" and o.payload is not None]
    for o in outcomes:
        if o.kind == "replay" and o.payload is not None:
            ft_profiles.append(o.payload["verdicts"]["fasttrack"]["profile"])
    ft_accesses = sum(p["reads"] + p["writes"] for p in ft_profiles)
    verdicts = [p["verdict"] for o in outcomes if o.kind == "oracle"
                and o.payload is not None for p in o.payload.payloads]
    static_checks = ("classifier_soundness", "static_race_superset",
                     "lint_clean")
    events = sum(r["events"] for r in records)

    metrics.update({
        "machine.tlb_fast_hit_ratio": _ratio(fast_hits,
                                             fast_hits + fast_misses),
        "dbr.instructions": instructions,
        "dbr.instrs_per_s": _ratio(instructions, engine_seconds),
        "dbr.codecache.builds": total(dbr_results, "run_stats",
                                      "codecache_builds"),
        "dbr.codecache.flushes": total(dbr_results, "run_stats",
                                       "codecache_flushes"),
        "dbr.superblock.built": sb("superblocks_built"),
        "dbr.superblock.dropped": sb("superblocks_dropped"),
        "dbr.superblock.entries": sb("entries"),
        "dbr.superblock.side_exits": sb("side_exits"),
        "dbr.superblock.completion_ratio": _ratio(sb("completions"),
                                                  sb("entries")),
        "dbr.superblock.instr_share": _ratio(sb("instructions"),
                                             instructions),
        "hypervisor.segfaults_delivered": total(
            aikido, "hypervisor_stats", "segfaults_delivered"),
        "hypervisor.vmexits": total(aikido, "hypervisor_stats", "vmexits"),
        "hypervisor.shadow_syncs": total(aikido, "hypervisor_stats",
                                         "shadow_syncs"),
        "core.faults_handled": total(aikido, "aikido_stats",
                                     "faults_handled"),
        "core.rejit_flushes": total(aikido, "aikido_stats",
                                    "rejit_flushes"),
        "core.shared_accesses": total(aikido, "aikido_stats",
                                      "shared_accesses"),
        "core.private_fastpath": total(aikido, "aikido_stats",
                                       "private_fastpath"),
        "core.instrumented_share": _ratio(
            total(aikido, "run_stats", "instrumented_execs"),
            total(aikido, "run_stats", "instructions")),
        "fasttrack.accesses": ft_accesses,
        "fasttrack.same_epoch_ratio": _ratio(
            sum(p["same_epoch_hits"] for p in ft_profiles), ft_accesses),
        "eventlog.events": events,
        "eventlog.bytes_per_event": _ratio(
            sum(r["bytes"] for r in records), events),
        "staticanalysis.programs_analyzed": sum(
            1 for v in verdicts
            if any(not v["checks"].get(c, {"skipped": True}).get("skipped")
                   for c in static_checks)),
        "scengen.checks_run": sum(
            1 for v in verdicts for c in v["checks"].values()
            if not c.get("skipped")),
        "trace.wall_s": wall,
        "unattributed_s": wall - sum(selfs),
    })
    return metrics


# -- the traced run --------------------------------------------------------

@dataclass
class TracedRun:
    measurement: object
    values: Dict[str, float]
    tracer: Tracer


def _timed_pass(suite, workload, tracer=None):
    """Rebuild the inputs and run one pass; returns (seconds spent
    building and in operations, outcomes)."""
    hook = tracer.begin_operation if tracer is not None else None
    start = time.perf_counter()
    workload.inputs = suite.build_inputs(workload.name, workload.seed)
    build = time.perf_counter() - start
    outcomes = workload.run_pass(probe=False, on_operation=hook)
    return build + sum(o.seconds for o in outcomes), outcomes


def host_sim_ratios(outcomes) -> Tuple[float, float]:
    """Workload-wide (host, simulated) FastTrack/Aikido ratios."""
    ft = [o for o in outcomes if o.kind == "fasttrack" and o.payload]
    aik = [o for o in outcomes if o.kind == "aikido-fasttrack"
           and o.payload]
    return (_ratio(sum(o.seconds for o in ft), sum(o.seconds for o in aik)),
            _ratio(sum(o.payload.cycles for o in ft),
                   sum(o.payload.cycles for o in aik)))


def traced_run(suite, workload, out_dir: Path) -> TracedRun:
    """One untraced pass, then the same pass traced; per-layer metrics.

    :meth:`Workload.check` fails every traced operation whose digest
    differs from the untraced pass's.
    """
    measurement = suite.Measurement()
    untraced_wall, untraced = _timed_pass(suite, workload)
    measurement.add(untraced)
    before = attributes_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced = _timed_pass(suite, workload, tracer)
    finally:
        tracer.restore()
    after = attributes_snapshot()
    changed = sorted(k for k in before if after.get(k) is not before[k])
    if changed:
        raise RuntimeError(f"attributes not restored: {changed}")
    measurement.add(traced)
    values = layer_metrics(tracer, traced, traced_wall)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    values["host.ft_over_aik"], values["sim.ft_over_aik"] = (
        host_sim_ratios(untraced))
    tracer.write(out_dir / f"spans-{workload.name}.bin.z")
    return TracedRun(measurement, values, tracer)
