"""Simulated physical memory: frames of 8-byte words.

Physical memory is word-addressable (all mini-ISA accesses are 8-byte and
8-aligned, mirroring the 8-byte "variable" blocks the Aikido race detector
uses). Frames are allocated from a simple bump allocator with a free list;
freed frames are scrubbed so reuse cannot leak stale values between
simulated processes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import PhysicalMemoryError
from repro.machine.paging import PAGE_SHIFT, PAGE_SIZE

#: Bytes per machine word; every data access moves one word.
WORD_SIZE = 8


class PhysicalMemory:
    """Machine memory: a frame allocator plus a word-granular value store.

    Values default to zero, so a fresh frame reads as zeroed memory.
    """

    def __init__(self, frame_limit: int = 1 << 20):
        #: Maximum number of frames (default 4 GiB worth of 4 KiB pages).
        self.frame_limit = frame_limit
        self._next_pfn = 0
        self._free: List[int] = []
        self._allocated: set[int] = set()
        # word-index (paddr >> 3) -> value
        self._words: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------
    def alloc_frame(self) -> int:
        """Allocate a zeroed physical frame; returns its frame number."""
        if self._free:
            pfn = self._free.pop()
        else:
            if self._next_pfn >= self.frame_limit:
                raise PhysicalMemoryError("out of physical frames")
            pfn = self._next_pfn
            self._next_pfn += 1
        self._allocated.add(pfn)
        return pfn

    def free_frame(self, pfn: int) -> None:
        """Release a frame, scrubbing its contents."""
        if pfn not in self._allocated:
            raise PhysicalMemoryError(f"double free of frame {pfn}")
        self._allocated.remove(pfn)
        base = (pfn << PAGE_SHIFT) >> 3
        for widx in range(base, base + PAGE_SIZE // WORD_SIZE):
            self._words.pop(widx, None)
        self._free.append(pfn)

    # ------------------------------------------------------------------
    # data access (by physical address)
    # ------------------------------------------------------------------
    def read_word(self, paddr: int) -> int:
        """Read the 8-byte word at the physical address (must be aligned)."""
        if paddr & 7:
            raise PhysicalMemoryError(f"unaligned read at {paddr:#x}")
        self._check_backed(paddr)
        return self._words.get(paddr >> 3, 0)

    def write_word(self, paddr: int, value: int) -> None:
        """Write the 8-byte word at the physical address (must be aligned)."""
        if paddr & 7:
            raise PhysicalMemoryError(f"unaligned write at {paddr:#x}")
        self._check_backed(paddr)
        self._words[paddr >> 3] = value & 0xFFFFFFFFFFFFFFFF

    # ------------------------------------------------------------------
    def _check_backed(self, paddr: int) -> None:
        if (paddr >> PAGE_SHIFT) not in self._allocated:
            raise PhysicalMemoryError(
                f"access to unallocated frame at paddr {paddr:#x}")
