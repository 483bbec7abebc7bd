"""Page tables, protection bits and page faults.

The protection model matches what Aikido depends on from x86: each virtual
page has PRESENT (readable), WRITABLE, and USER (accessible from user mode)
bits, enforced on every translation. A failed check raises
:class:`PageFault`, which the platform layer routes — to the hypervisor
first when one is present (a VM exit), otherwise straight to the guest
kernel.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: log2 of the page size; 4 KiB pages as on x86.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

# PTE permission bits (values match their x86 counterparts' meaning).
PTE_PRESENT = 0b001
PTE_WRITABLE = 0b010
PTE_USER = 0b100

# Protection levels used by mprotect-style requests and by Aikido's
# per-thread protection tables. These are *requested* protections; the
# effective PTE bits are derived from them.
PROT_NONE = 0
PROT_READ = 1
PROT_RW = 2


def prot_to_pte_flags(prot: int, user: bool = True) -> int:
    """Convert a PROT_* level to PTE permission bits."""
    if prot == PROT_NONE:
        return 0
    flags = PTE_PRESENT
    if prot == PROT_RW:
        flags |= PTE_WRITABLE
    if user:
        flags |= PTE_USER
    return flags


class PTE:
    """A page-table entry: physical frame number plus permission bits."""

    __slots__ = ("pfn", "flags")

    def __init__(self, pfn: int, flags: int):
        self.pfn = pfn
        self.flags = flags

    def permits(self, is_write: bool, user_mode: bool) -> bool:
        """Check whether an access is allowed by this entry."""
        if not self.flags & PTE_PRESENT:
            return False
        if is_write and not self.flags & PTE_WRITABLE:
            return False
        if user_mode and not self.flags & PTE_USER:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = "".join((
            "P" if self.flags & PTE_PRESENT else "-",
            "W" if self.flags & PTE_WRITABLE else "-",
            "U" if self.flags & PTE_USER else "-",
        ))
        return f"<PTE pfn={self.pfn} {bits}>"


class PageFault(Exception):
    """A hardware page fault.

    ``reason`` distinguishes a missing translation (``"not_present"``) from
    a permission violation (``"protection"``). ``vaddr`` is the faulting
    virtual address; the faulting instruction has *not* retired, so fixing
    the cause and re-executing is always legal.
    """

    def __init__(self, vaddr: int, *, is_write: bool, user_mode: bool,
                 reason: str):
        super().__init__(
            f"page fault at {vaddr:#x} "
            f"({'write' if is_write else 'read'}, "
            f"{'user' if user_mode else 'kernel'}, {reason})")
        self.vaddr = vaddr
        self.is_write = is_write
        self.user_mode = user_mode
        self.reason = reason

    @property
    def vpn(self) -> int:
        return self.vaddr >> PAGE_SHIFT


class PageTable:
    """A flat virtual-page-number -> PTE map.

    Real x86 uses a radix tree; a dict preserves the semantics (including
    the hypervisor's need to enumerate and shadow entries) without the
    bookkeeping noise.
    """

    def __init__(self, name: str = "pt"):
        self.name = name
        self.entries: Dict[int, PTE] = {}
        #: Monotonic version, bumped on every update; used by shadow-page
        #: sync logic and TLB-consistency assertions in tests.
        self.version = 0

    # ------------------------------------------------------------------
    # updates (the guest kernel writes these; the hypervisor intercepts
    # them via GuestPageTable below)
    # ------------------------------------------------------------------
    def map(self, vpn: int, pfn: int, flags: int) -> None:
        """Install or replace a translation."""
        self.entries[vpn] = PTE(pfn, flags)
        self.version += 1

    def unmap(self, vpn: int) -> Optional[PTE]:
        """Remove a translation, returning the old entry if any."""
        old = self.entries.pop(vpn, None)
        if old is not None:
            self.version += 1
        return old

    def set_flags(self, vpn: int, flags: int) -> None:
        """Change the permission bits of an existing entry."""
        entry = self.entries[vpn]
        entry.flags = flags
        self.version += 1

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> Optional[PTE]:
        return self.entries.get(vpn)

    def translate(self, vaddr: int, *, is_write: bool,
                  user_mode: bool) -> int:
        """Translate a virtual address, raising :class:`PageFault`."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self.entries.get(vpn)
        if entry is None or not entry.flags & PTE_PRESENT:
            raise PageFault(vaddr, is_write=is_write, user_mode=user_mode,
                            reason="not_present")
        if not entry.permits(is_write, user_mode):
            raise PageFault(vaddr, is_write=is_write, user_mode=user_mode,
                            reason="protection")
        return (entry.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PageTable {self.name!r} entries={len(self.entries)}>"


class GuestPageTable(PageTable):
    """A guest page table whose updates can be observed by a hypervisor.

    The real AikidoVM write-protects the guest's page-table pages and traps
    stores to them; here the same interception is modeled by a write hook
    that fires on every update, carrying (vpn, old PTE, new PTE-or-None).
    """

    def __init__(self, name: str = "guest-pt"):
        super().__init__(name)
        self._write_hook = None

    def set_write_hook(self, hook) -> None:
        """Install the hypervisor's page-table write interceptor."""
        self._write_hook = hook

    def map(self, vpn: int, pfn: int, flags: int) -> None:
        old = self.entries.get(vpn)
        super().map(vpn, pfn, flags)
        if self._write_hook is not None:
            self._write_hook(vpn, old, self.entries[vpn])

    def unmap(self, vpn: int) -> Optional[PTE]:
        old = super().unmap(vpn)
        if old is not None and self._write_hook is not None:
            self._write_hook(vpn, old, None)
        return old

    def set_flags(self, vpn: int, flags: int) -> None:
        old = PTE(self.entries[vpn].pfn, self.entries[vpn].flags)
        super().set_flags(vpn, flags)
        if self._write_hook is not None:
            self._write_hook(vpn, old, self.entries[vpn])


def page_range(vaddr: int, length: int) -> Tuple[int, int]:
    """Return the inclusive-exclusive vpn range covering [vaddr, vaddr+length)."""
    first = vaddr >> PAGE_SHIFT
    last = (vaddr + length - 1) >> PAGE_SHIFT
    return first, last + 1
