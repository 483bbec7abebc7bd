"""Smoke tests: every shipped example must run end to end.

Examples are documentation that executes; a broken example is a broken
promise. Each is imported and its ``main()`` run with a captured stdout,
checking for its signature output.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv=None, capsys=None):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out if capsys else ""


def test_quickstart(capsys):
    out = run_example("quickstart", capsys=capsys)
    assert "Races" in out
    assert "race" in out
    assert "faults delivered by AikidoVM" in out


def test_find_canneal_race(capsys):
    out = run_example("find_canneal_race", capsys=capsys)
    assert "Mersenne" in out
    assert "Aikido subset of FastTrack: True" in out


def test_sharing_profile(capsys):
    out = run_example("sharing_profile", ["streamcluster"], capsys=capsys)
    assert "hottest shared pages" in out
    assert "read-shared" in out or "write-shared" in out


def test_sharing_profile_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        run_example("sharing_profile", ["nginx"], capsys=capsys)


def test_atomicity_check(capsys):
    out = run_example("atomicity_check", capsys=capsys)
    assert "atomicity violation" in out
    assert "violations: 0" in out


def test_deterministic_check(capsys):
    out = run_example("deterministic_check", capsys=capsys)
    assert "FastTrack (sound, slow)" in out
    assert "misses it" in out


def test_inspect_instrumentation(capsys):
    out = run_example("inspect_instrumentation", ["blackscholes"],
                      capsys=capsys)
    assert "static memory" in out
    assert "worker:" in out


def test_paper_tour(capsys):
    out = run_example("paper_tour", capsys=capsys)
    assert "per-thread page protection" in out
    assert "kernel accesses" in out and "0 kernel accesses" not in out
    assert "aliased at" in out
    assert "shared accesses" in out
