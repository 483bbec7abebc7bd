"""Hypothesis strategies backed by the scenario generator.

Property tests draw *seeds* and map them through :func:`generate`, so
every Hypothesis example is a scenario the campaign runner could also
have produced — one generator, two consumers. Hypothesis shrinks the
seed integer; structural shrinking of a failing scenario is the
reducer's job (`repro.scengen.reducer`), which the campaign runner
invokes automatically. Used by ``tests/dbr/test_compiled_parity.py``.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from repro.scengen.generator import (
    QUICK_CONFIG,
    GeneratorConfig,
    generate,
)

#: Seed space for property tests — wide enough for idiom diversity,
#: small enough that failures print a memorable seed.
SEED_SPACE = st.integers(min_value=0, max_value=2 ** 20)


def scenario_irs(config: Optional[GeneratorConfig] = None,
                 *, chaos: bool = True):
    """Strategy yielding generated :class:`ScenarioIR` instances.

    ``chaos=False`` filters to chaos-free scenarios for properties that
    need a stable schedule across modes.
    """
    cfg = config or QUICK_CONFIG
    strat = SEED_SPACE.map(lambda seed: generate(seed, cfg))
    if not chaos:
        strat = strat.filter(lambda ir: ir.chaos_seed is None)
    return strat
