"""Per-process virtual memory management: regions, mmap, brk, aliasing.

Mappings are *eager*: every page of a new region is backed by a physical
frame immediately. This keeps the Aikido contract crisp — "AikidoSD will
page protect all mapped pages in the target application's address space"
(§3.3.2) is well-defined when mapping and backing coincide.

``map_alias_at`` is the primitive under mirror pages: it maps a fresh
virtual range onto the *same physical frames* as an existing range, which
is what the paper achieves by mmapping one backing file twice (§3.3.3).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import GuestOSError
from repro.machine.layout import (
    HEAP_BASE,
    HEAP_LIMIT,
    MIRROR_BASE,
    MMAP_BASE,
    MMAP_LIMIT,
    align_up,
)
from repro.machine.memory import PhysicalMemory
from repro.machine.paging import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_PRESENT,
    PTE_USER,
    PTE_WRITABLE,
)

#: Default permission bits for fresh user mappings.
USER_RW = PTE_PRESENT | PTE_WRITABLE | PTE_USER


class Region:
    """A contiguous mapped range of the process address space."""

    __slots__ = ("name", "start", "length", "kind", "alias_of")

    def __init__(self, name: str, start: int, length: int, kind: str,
                 alias_of: Optional[int] = None):
        self.name = name
        self.start = start
        self.length = length
        self.kind = kind
        #: Start address of the range this region aliases, if any.
        self.alias_of = alias_of

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def vpns(self) -> Iterator[int]:
        return iter(range(self.start >> PAGE_SHIFT,
                          (self.end + PAGE_SIZE - 1) >> PAGE_SHIFT))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Region {self.name!r} {self.start:#x}+{self.length:#x} "
                f"{self.kind}>")


class VMManager:
    """Manages one process's address space over shared physical memory."""

    def __init__(self, memory: PhysicalMemory, page_table):
        self.memory = memory
        self.page_table = page_table
        self.regions: List[Region] = []
        self._mmap_cursor = MMAP_BASE
        self._mirror_cursor = MIRROR_BASE
        self._brk = HEAP_BASE
        self._heap_mapped_end = HEAP_BASE
        #: Callbacks fired after every new mapping (AikidoSD's mmap/brk
        #: interception point). Receives the new Region.
        self.post_map_hooks: List[Callable[[Region], None]] = []
        #: mmap/brk statistics for the harness.
        self.mmap_count = 0
        self.brk_count = 0

    # ------------------------------------------------------------------
    # primitive mapping
    # ------------------------------------------------------------------
    def map_region(self, start: int, length: int, name: str,
                   kind: str = "mmap", flags: int = USER_RW,
                   notify: bool = True) -> Region:
        """Eagerly map [start, start+length) with fresh zeroed frames."""
        if start & (PAGE_SIZE - 1):
            raise GuestOSError(f"unaligned mapping at {start:#x}")
        region = Region(name, start, align_up(length), kind)
        for vpn in region.vpns():
            if self.page_table.lookup(vpn) is not None:
                raise GuestOSError(
                    f"mapping {name!r} overlaps existing page {vpn:#x}")
            self.page_table.map(vpn, self.memory.alloc_frame(), flags)
        self.regions.append(region)
        if notify:
            for hook in self.post_map_hooks:
                hook(region)
        return region

    def map_alias_at(self, dst_start: int, src_start: int, length: int,
                     name: str, flags: int = USER_RW) -> Region:
        """Map [dst, dst+length) onto the same frames as [src, src+length).

        Both ranges must be page-aligned; the source must be fully mapped.
        No post-map hooks fire (aliases are created *by* the mirror layer).
        """
        if dst_start & (PAGE_SIZE - 1) or src_start & (PAGE_SIZE - 1):
            raise GuestOSError("unaligned alias mapping")
        length = align_up(length)
        region = Region(name, dst_start, length, "alias",
                        alias_of=src_start)
        pages = length >> PAGE_SHIFT
        for i in range(pages):
            src_vpn = (src_start >> PAGE_SHIFT) + i
            dst_vpn = (dst_start >> PAGE_SHIFT) + i
            src_pte = self.page_table.lookup(src_vpn)
            if src_pte is None:
                raise GuestOSError(
                    f"alias source page {src_vpn:#x} is not mapped")
            if self.page_table.lookup(dst_vpn) is not None:
                raise GuestOSError(
                    f"alias destination page {dst_vpn:#x} already mapped")
            self.page_table.map(dst_vpn, src_pte.pfn, flags)
        self.regions.append(region)
        return region

    def alloc_mirror_range(self, length: int) -> int:
        """Reserve an address range in the mirror arena (no mapping)."""
        addr = self._mirror_cursor
        self._mirror_cursor += align_up(length) + PAGE_SIZE
        return addr

    # ------------------------------------------------------------------
    # syscall-level operations
    # ------------------------------------------------------------------
    def mmap(self, length: int, name: str = "mmap") -> int:
        """Anonymous private mapping; returns the base address."""
        if length <= 0:
            raise GuestOSError("mmap with non-positive length")
        addr = self._mmap_cursor
        if addr + align_up(length) > MMAP_LIMIT:
            raise GuestOSError("mmap arena exhausted")
        # Guard page between mappings.
        self._mmap_cursor = addr + align_up(length) + PAGE_SIZE
        self.map_region(addr, length, name, kind="mmap")
        self.mmap_count += 1
        return addr

    def brk(self, increment: int) -> int:
        """Grow the heap by ``increment`` bytes; returns the old break."""
        old = self._brk
        if increment < 0:
            raise GuestOSError("shrinking brk is not supported")
        if increment == 0:
            return old
        new = old + increment
        if new > HEAP_LIMIT:
            raise GuestOSError("heap limit exceeded")
        mapped_target = align_up(new)
        if mapped_target > self._heap_mapped_end:
            self.map_region(self._heap_mapped_end,
                            mapped_target - self._heap_mapped_end,
                            f"heap@{self._heap_mapped_end:#x}", kind="heap")
        self._heap_mapped_end = max(self._heap_mapped_end, mapped_target)
        self._brk = new
        self.brk_count += 1
        return old

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def region_for(self, addr: int) -> Optional[Region]:
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def user_regions(self) -> List[Region]:
        """Regions subject to Aikido protection (not aliases/special)."""
        return [r for r in self.regions
                if r.kind in ("static", "heap", "mmap")]

    # ------------------------------------------------------------------
    # direct (host-level) data access helpers for loaders and tests
    # ------------------------------------------------------------------
    def read_word(self, vaddr: int) -> int:
        """Kernel-omniscient read through the guest page table."""
        paddr = self.page_table.translate(vaddr, is_write=False,
                                          user_mode=False)
        return self.memory.read_word(paddr)

    def write_word(self, vaddr: int, value: int) -> None:
        """Kernel-omniscient write through the guest page table."""
        paddr = self.page_table.translate(vaddr, is_write=True,
                                          user_mode=False)
        self.memory.write_word(paddr, value)
