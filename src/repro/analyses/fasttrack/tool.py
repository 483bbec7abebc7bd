"""The conservative FastTrack DBR tool — the paper's baseline.

Instruments **every** memory-referencing instruction (since "for most
programming languages, it is impossible to statically determine which
operations access shared memory"), paying a clean call plus shadow-memory
translation per access. This is the configuration Figure 5 labels
"FastTrack".
"""

from __future__ import annotations

from typing import Optional

from repro.analyses.fasttrack.detector import (
    FastTrackDetector,
    apply_sync_event,
)
from repro.dbr.codecache import CachedBlock
from repro.dbr.tool import Tool
from repro.umbra.shadow import ShadowMemory


class FastTrackTool(Tool):
    """Full-instrumentation FastTrack over the DBR engine."""

    name = "fasttrack"

    def __init__(self, kernel, detector: Optional[FastTrackDetector] = None,
                 block_size: int = 8):
        super().__init__()
        self.kernel = kernel
        self.detector = (detector if detector is not None
                         else FastTrackDetector(kernel.counter, block_size))
        self.shadow = ShadowMemory(kernel.counter, block_size)
        vm = kernel.process.vm
        for region in vm.user_regions():
            self.shadow.add_region(region.start, region.length)
        vm.post_map_hooks.append(self._on_new_region)

    # ------------------------------------------------------------------
    def instrument_block(self, cached: CachedBlock) -> None:
        read_hook = self._read_hook
        write_hook = self._write_hook
        for pos, instr in enumerate(cached.instrs):
            if instr.mem is not None:
                cached.set_hook(pos, write_hook if instr.is_write
                                else read_hook)

    def on_sync_event(self, event) -> None:
        apply_sync_event(self.detector, event)

    @property
    def races(self):
        return self.detector.races

    # ------------------------------------------------------------------
    # One hook per access direction, chosen by opcode at instrumentation
    # time, so the per-access path calls the detector entry directly.
    def _read_hook(self, thread, instr, ea: int) -> None:
        self.shadow.translate(thread.tid, ea)
        self.engine.stats.tool_invocations += 1
        self.detector.on_read(thread.tid, ea, instr.uid)

    def _write_hook(self, thread, instr, ea: int) -> None:
        self.shadow.translate(thread.tid, ea)
        self.engine.stats.tool_invocations += 1
        self.detector.on_write(thread.tid, ea, instr.uid)

    def _on_new_region(self, region) -> None:
        if region.kind in ("static", "heap", "mmap"):
            self.shadow.add_region(region.start, region.length)
