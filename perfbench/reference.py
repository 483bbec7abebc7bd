"""Regenerate ``reference.json``: interpreter-tier digests of every PARSEC
operation the benchmark times, for a range of ``--seed`` values.

The interpreter tier (``compile_blocks=False``) is the repo's reference
semantics, so every digest here is produced without the block compiler
or superblocks; native has a single tier. Every program is built fresh
for every run. Digests already stored for the same simulation
parameters are kept; delete the file to recompute them all. Usage, from
the repository root::

    python3 perfbench/reference.py --seeds 0-99
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.eventlog.replay import ReplayFanout, record_run  # noqa: E402
from repro.harness.runner import run_mode  # noqa: E402

import suite  # noqa: E402

REFERENCE = HERE / "reference.json"


def params() -> dict:
    """The simulation parameters a stored digest is valid for."""
    return {"threads": suite.THREADS, "scale": suite.SCALE,
            "quantum": suite.QUANTUM}


def recorded_programs():
    names = set()
    for plan in suite.PLANS.values():
        names.update(plan.recorded or ())
    return sorted(names)


def seed_digests(seed: int, workdir: str, have: dict) -> dict:
    """Digests of one seed's operations, keeping those in ``have``."""
    digests = dict(have)
    for name in suite.PRIVATE + suite.SHARED:
        for mode in suite.PIPELINES:
            key = f"{mode}:{name}"
            if key in digests:
                continue
            prog = suite.Program(name, seed)
            tier = {} if mode == "native" else {"compile_blocks": False}
            result = run_mode(prog.program, mode, **prog.run_kwargs, **tier)
            digests[key] = suite.run_digest(result)
    for name in recorded_programs():
        key = f"replay:{name}"
        if key in digests:
            continue
        prog = suite.Program(name, seed)
        path = os.path.join(workdir, f"{name}.aiklog")
        stats = record_run(prog.program, path, compile_blocks=False,
                           **prog.run_kwargs)
        merged = ReplayFanout(suite.ANALYSES, jobs=1).run(path)
        os.remove(path)
        digests[key] = suite.replay_digest(stats, merged)
    return digests


def load_reference() -> dict:
    """Stored digests by seed, or {} when they were made with other
    simulation parameters."""
    if not REFERENCE.exists():
        return {}
    doc = json.loads(REFERENCE.read_text())
    if doc.get("params") != params():
        return {}
    return doc["seeds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive seed range, e.g. 0-99")
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    stored = load_reference()
    scratch = HERE.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for seed in seeds:
            stored[str(seed)] = seed_digests(seed, workdir,
                                             stored.get(str(seed), {}))
            print(f"seed {seed}: {len(stored[str(seed)])} digests",
                  flush=True)
            doc = {"params": params(),
                   "seeds": {k: stored[k]
                             for k in sorted(stored, key=int)}}
            tmp = REFERENCE.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            os.replace(tmp, REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
