"""Region table, mirror offsets and the layered translation-cache model."""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set

from repro import costs
from repro.errors import ToolError


class ShadowRegion:
    """One densely populated application region and its two shadow targets.

    ``shadow_base`` is the synthetic base of the metadata shadow (only its
    existence matters — metadata lives host-side); ``mirror_base`` is a
    real guest virtual address, aliased to the same physical frames by the
    mirror manager.
    """

    __slots__ = ("app_start", "length", "shadow_base", "mirror_base")

    def __init__(self, app_start: int, length: int, shadow_base: int,
                 mirror_base: Optional[int] = None):
        self.app_start = app_start
        self.length = length
        self.shadow_base = shadow_base
        self.mirror_base = mirror_base

    @property
    def app_end(self) -> int:
        return self.app_start + self.length

    def contains(self, addr: int) -> bool:
        return self.app_start <= addr < self.app_end

    def mirror_address(self, addr: int) -> int:
        """Translate an app address into this region's mirror."""
        if self.mirror_base is None:
            raise ToolError(
                f"region at {self.app_start:#x} has no mirror mapping")
        return self.mirror_base + (addr - self.app_start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ShadowRegion app={self.app_start:#x}+{self.length:#x} "
                f"mirror={self.mirror_base and hex(self.mirror_base)}>")


#: Synthetic base for metadata shadow regions; never dereferenced.
_SHADOW_SYNTHETIC_BASE = 0x7000_0000_0000


class ShadowMemory:
    """The region table plus the per-thread translation-cache cost model.

    Lookup hierarchy (matching §2.2): the inlined memoization cache holds
    the thread's last-hit region; the thread-local cache holds every
    region the thread has translated before (lean-procedure cost); cold
    regions pay the full-context-switch cost.
    """

    def __init__(self, counter=None, block_size: int = 8):
        self.counter = counter
        self.block_size = block_size
        self._starts: List[int] = []
        self._regions: List[ShadowRegion] = []
        self._next_shadow = _SHADOW_SYNTHETIC_BASE
        # tid -> last region hit (inline memoization cache).
        self._inline_cache: Dict[int, ShadowRegion] = {}
        # tid -> (page, region) memo for repeat same-page accesses. Set
        # only when the region covers the whole page, so a page match
        # alone proves containment — and since it is written in lockstep
        # with the inline cache (and regions are never removed), a memo
        # hit is exactly an inline-cache hit minus the containment
        # arithmetic: same counter, same charge.
        self._page_memo: Dict[int, tuple] = {}
        # tid -> set of region ids translated before (thread-local cache).
        self._warm: Dict[int, Set[int]] = {}
        self.inline_hits = 0
        self.lean_hits = 0
        self.full_lookups = 0
        #: Observability tracer, attached by AikidoSystem (None = off).
        #: Only cold (full-context) lookups emit events — the inline and
        #: lean paths run per shared access and stay untraced.
        self.tracer = None

    # ------------------------------------------------------------------
    # region management
    # ------------------------------------------------------------------
    def add_region(self, app_start: int, length: int,
                   mirror_base: Optional[int] = None) -> ShadowRegion:
        """Register a new application region, keeping the table sorted."""
        idx = bisect.bisect_left(self._starts, app_start)
        if idx < len(self._starts) and self._starts[idx] == app_start:
            raise ToolError(f"duplicate shadow region at {app_start:#x}")
        region = ShadowRegion(app_start, length, self._next_shadow,
                              mirror_base)
        self._next_shadow += length + 0x1000
        self._starts.insert(idx, app_start)
        self._regions.insert(idx, region)
        return region

    def set_mirror(self, app_start: int, mirror_base: int) -> None:
        region = self.region_for(app_start)
        if region is None or region.app_start != app_start:
            raise ToolError(f"no shadow region at {app_start:#x}")
        region.mirror_base = mirror_base

    def region_for(self, addr: int) -> Optional[ShadowRegion]:
        """Uncosted structural lookup (host bookkeeping)."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        return region if region.contains(addr) else None

    # ------------------------------------------------------------------
    # costed translation (what instrumented code executes)
    # ------------------------------------------------------------------
    def translate(self, tid: int, addr: int) -> ShadowRegion:
        """App address -> region, charging the appropriate cache level."""
        page = addr >> 12
        memo = self._page_memo.get(tid)
        if memo is not None and memo[0] == page:
            self.inline_hits += 1
            if self.counter is not None:
                self.counter.charge("umbra", costs.UMBRA_TRANSLATE_INLINE)
            return memo[1]
        region = self._inline_cache.get(tid)
        if region is not None and region.contains(addr):
            self.inline_hits += 1
            if self.counter is not None:
                self.counter.charge("umbra", costs.UMBRA_TRANSLATE_INLINE)
            self._refresh_page_memo(tid, page, region)
            return region
        region = self.region_for(addr)
        if region is None:
            raise ToolError(f"no shadow region covers {addr:#x}")
        warm = self._warm.setdefault(tid, set())
        key = id(region)
        if key in warm:
            self.lean_hits += 1
            if self.counter is not None:
                self.counter.charge("umbra", costs.UMBRA_TRANSLATE_LEAN)
        else:
            warm.add(key)
            self.full_lookups += 1
            if self.counter is not None:
                self.counter.charge("umbra", costs.UMBRA_TRANSLATE_FULL)
            if self.tracer is not None:
                self.tracer.instant("umbra_full_lookup", "umbra", tid=tid,
                                    app_start=region.app_start)
        self._inline_cache[tid] = region
        self._refresh_page_memo(tid, page, region)
        return region

    def _refresh_page_memo(self, tid: int, page: int, region: ShadowRegion):
        if (region.app_start <= (page << 12)
                and ((page + 1) << 12) <= region.app_end):
            self._page_memo[tid] = (page, region)
        else:
            # Page straddles a region boundary: a page match would not
            # prove containment, so drop the memo entirely.
            self._page_memo.pop(tid, None)

    # ------------------------------------------------------------------
    def block_id(self, addr: int) -> int:
        """The metadata block ("variable") an address falls into."""
        return addr // self.block_size
