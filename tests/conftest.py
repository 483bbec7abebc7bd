"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib
import os
import signal
import threading

import pytest

from repro.guestos.kernel import Kernel
from repro.machine.asm import ProgramBuilder
from repro.machine.memory import WORD_SIZE
from repro.machine.paging import PAGE_SIZE

#: Per-test wall-clock ceiling in seconds (0 disables the guard).
_TEST_TIMEOUT = float(os.environ.get("AIKIDO_TEST_TIMEOUT", "120"))


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Point the harness result cache at a per-test directory so tests
    never read from (or pollute) the user's real cache."""
    monkeypatch.setenv("AIKIDO_CACHE_DIR", str(tmp_path / "aikido-cache"))


@pytest.fixture(autouse=True)
def _runaway_guard(request):
    """Kill any test that wedges (deadlocked pool, infinite workload).

    SIGALRM-based, so it only arms on the main thread and steps aside for
    tests that install their own alarm (the per-job timeout tests nest
    inside it — :func:`repro.harness.parallel._deadline` re-arms the
    remaining outer budget on exit). Tune or disable with
    ``AIKIDO_TEST_TIMEOUT`` (seconds; 0 turns the guard off).
    """
    if (_TEST_TIMEOUT <= 0
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _on_alarm(signum, frame):
        pytest.fail(f"test exceeded the {_TEST_TIMEOUT:g}s runaway guard "
                    f"(AIKIDO_TEST_TIMEOUT)", pytrace=True)

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture
def builder() -> ProgramBuilder:
    return ProgramBuilder("test")


def run_native(program, *, seed: int = 0, quantum: int = 50,
               jitter: float = 0.0) -> Kernel:
    """Run a program bare-metal to completion and return the kernel."""
    kernel = Kernel(seed=seed, quantum=quantum, jitter=jitter)
    kernel.create_process(program)
    kernel.run()
    return kernel


def guest_memory_digest(kernel: Kernel) -> str:
    """SHA-256 over every word of every process's user regions, read
    straight from physical memory after the run."""
    words = kernel.memory._words
    per_page = PAGE_SIZE // WORD_SIZE
    digest = hashlib.sha256()
    for pid, process in sorted(kernel.processes.items()):
        for region in process.vm.user_regions():
            for vpn in region.vpns():
                base = process.page_table.lookup(vpn).pfn * per_page
                page = [words.get(base + i, 0) for i in range(per_page)]
                digest.update(repr((pid, vpn, page)).encode())
    return digest.hexdigest()
