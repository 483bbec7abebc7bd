"""AikidoSystem: one-call assembly of the full stack (paper Fig. 1).

Builds, in order: AikidoVM -> guest kernel -> process -> DBR engine ->
sharing detector (with AikidoLib, mirror manager, Umbra shadow memory) ->
the user's shared-data analysis, and runs the workload.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.chaos.injector import ChaosInjector
from repro.chaos.invariants import InvariantMonitor
from repro.core.analysis import SharedDataAnalysis
from repro.core.config import AikidoConfig
from repro.core.sharing import SharingDetector
from repro.dbr.engine import DBREngine
from repro.errors import ToolError
from repro.guestos.kernel import Kernel
from repro.hypervisor.aikidovm import AikidoVM
from repro.observability.metrics import MetricsRecorder, metrics_snapshot
from repro.observability.tracer import Tracer


class AikidoSystem:
    """A ready-to-run Aikido stack hosting one workload and one analysis.

    ``analysis`` may be a :class:`SharedDataAnalysis` instance or a
    factory ``kernel -> SharedDataAnalysis`` (useful when the analysis
    wants the run's cycle counter, which only exists once the kernel
    does).
    """

    def __init__(self, program,
                 analysis: Union[SharedDataAnalysis,
                                 Callable[[Kernel], SharedDataAnalysis]],
                 config: Optional[AikidoConfig] = None, *,
                 seed: int = 0, quantum: int = 200, jitter: float = 0.1):
        self.config = config if config is not None else AikidoConfig()
        self.hypervisor = AikidoVM(
            ctx_switch_mode=self.config.ctx_switch_mode)
        self.kernel = Kernel(platform=self.hypervisor, seed=seed,
                             quantum=quantum, jitter=jitter)
        self.process = self.kernel.create_process(program)
        self.engine = DBREngine(self.kernel,
                                compile_blocks=self.config.compile_blocks,
                                superblocks=self.config.superblocks)
        if callable(analysis) and not isinstance(analysis,
                                                 SharedDataAnalysis):
            analysis = analysis(self.kernel)
        self.analysis = analysis
        self.sd = SharingDetector(self.kernel, self.hypervisor, analysis,
                                  self.config)
        #: Observability plumbing (None unless the config enables it).
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRecorder] = None
        if self.config.trace:
            self.tracer = Tracer(self.kernel.counter,
                                 max_events=self.config.trace_max_events)
            # Every layer holds the same tracer; sites stay inert (one
            # attribute load + None test) on untraced stacks.
            self.kernel.tracer = self.tracer
            self.hypervisor.tracer = self.tracer
            self.engine.tracer = self.tracer
            self.engine.codecache.tracer = self.tracer
            self.sd.tracer = self.tracer
            self.sd.shadow.tracer = self.tracer
        if self.config.metrics_cadence > 0:
            self.metrics = MetricsRecorder(
                self.kernel.counter, self.sd.stats,
                cadence=self.config.metrics_cadence, tracer=self.tracer)
            self.metrics.install(self.kernel)
        self.sd.install(self.engine)
        #: Chaos plumbing (both None unless the config enables them).
        self.chaos: Optional[ChaosInjector] = None
        self.monitor: Optional[InvariantMonitor] = None
        if self.config.chaos is not None and self.config.chaos.points:
            self.chaos = ChaosInjector(self.config.chaos)
            self.chaos.attach(self.kernel, engine=self.engine,
                              hypervisor=self.hypervisor)
        if self.config.check_invariants:
            self.monitor = InvariantMonitor(self.kernel, self.hypervisor,
                                            sd=self.sd)
            self.monitor.install(cadence=self.config.invariant_cadence)

    def run(self, max_instructions: int = 200_000_000) -> "AikidoSystem":
        """Execute the workload to completion; returns self for chaining."""
        self.kernel.run(max_instructions=max_instructions)
        self.sd.on_run_end()
        if self.monitor is not None:
            # Final sweep: quiescent state must satisfy every invariant.
            self.monitor.check_all()
            self.sd.stats.invariant_checks = self.monitor.checks_run
        if self.chaos is not None:
            # The injector is the single source of truth for these two
            # counters: layers report via ChaosInjector.note_recovered,
            # never by advancing the stats directly. A nonzero value here
            # would mean some layer double-counted — and the copy below
            # would silently discard it — so it is an error, not a merge.
            if (self.sd.stats.chaos_injections
                    or self.sd.stats.chaos_recovered):
                raise ToolError(
                    "chaos counters advanced outside the injector "
                    f"(injections={self.sd.stats.chaos_injections}, "
                    f"recovered={self.sd.stats.chaos_recovered}); "
                    "report recoveries via ChaosInjector.note_recovered")
            self.sd.stats.chaos_injections = self.chaos.total_delivered
            self.sd.stats.chaos_recovered = self.chaos.total_recovered
        if self.metrics is not None:
            self.metrics.finalize()
        return self

    # ------------------------------------------------------------------
    # result accessors
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self.kernel.counter.total

    @property
    def stats(self):
        return self.sd.stats

    @property
    def run_stats(self):
        return self.engine.stats

    @property
    def hypervisor_stats(self):
        return self.hypervisor.stats

    def metrics_snapshot(self) -> dict:
        """Run-end metrics payload (full stats + exact cycle attribution)."""
        return metrics_snapshot(self.sd.stats, self.kernel.counter)

    def timeline(self) -> list:
        """The metrics timeline ([] unless ``metrics_cadence`` > 0)."""
        return self.metrics.timeline() if self.metrics is not None else []
