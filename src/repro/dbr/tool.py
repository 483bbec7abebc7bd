"""The DBR tool API.

A tool is the analysis plugged into the engine — the paper's "user
specified instrumentation tool". Tools see two things:

* **block-build callbacks**: :meth:`Tool.instrument_block` runs whenever a
  basic block is (re)copied into the code cache; the tool may attach
  per-instruction hooks or patch instruction operands on the cached copy;
* **synchronization events** from the guest kernel
  (:meth:`Tool.on_sync_event`), the equivalent of wrapping pthread
  functions.

Instrumentation hooks have the signature ``hook(thread, instr, app_ea)``
and may return a replacement effective address (AikidoSD returns mirror
addresses) or None to run the access unchanged. A hook runs inline,
before its access translates, on every attempt (a faulting access
retries and re-runs it). It must not enter the kernel, and a hook that
patches its own instruction's displacement in place must return the
new address.
"""

from __future__ import annotations

from repro.dbr.codecache import CachedBlock


class Tool:
    """Base class for dynamic analyses run under the DBR engine."""

    name = "tool"

    def __init__(self):
        self.engine = None

    def attach(self, engine) -> None:
        """Called by the engine when the tool is installed."""
        self.engine = engine

    def instrument_block(self, cached: CachedBlock) -> None:
        """Attach hooks / patch operands on a freshly built block."""

    def on_sync_event(self, event) -> None:
        """Receive a kernel synchronization event."""

    def on_run_end(self) -> None:
        """Called after the workload finishes (flush reports, etc.)."""
