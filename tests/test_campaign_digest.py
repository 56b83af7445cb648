"""scripts/campaign_digest.py gives the sameness digests that CHANGES.md cites."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "campaign_digest.py"
_spec = importlib.util.spec_from_file_location("campaign_digest", SCRIPT)
campaign_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_digest)

# error 8 is unreachable, so the campaigns run to their budget
PROGRAMS = (
    "inputs 1..3; var s = 0; step(in){ if (s == 1) { if (in == 2) { error 7; } } "
    "if (s == 2) { error 8; } if (in == 1) { s = 1; } }",
    "inputs 1..4; var a = 0; step(in){ if (in == 3) { a = a + 1; } else { a = 0; } "
    "if (a == 3) { error 1; } }",
)


def test_digest_repeats_and_follows_the_budget():
    first = campaign_digest.digests([(t, 300) for t in PROGRAMS], seed=42)
    assert campaign_digest.digests([(t, 300) for t in PROGRAMS], seed=42) == first
    campaigns, plans = campaign_digest.digests([(t, 400) for t in PROGRAMS], seed=42)
    assert campaigns != first[0]
    # the budget moves no plan
    assert plans == first[1]


def test_oracle_digest_repeats_and_follows_the_cap():
    first = campaign_digest.oracle_digest([(t, 10**6) for t in PROGRAMS])
    assert campaign_digest.oracle_digest([(t, 10**6) for t in PROGRAMS]) == first
    # the counter program has more than 2 reachable states
    assert campaign_digest.oracle_digest([(t, 2) for t in PROGRAMS]) != first


def test_programs_come_from_the_benchmark():
    programs, seed = campaign_digest.benchmark_programs()
    assert seed == 42
    assert len(programs) == 70
    assert sorted({budget for _, budget, _ in programs}) == [500, 8000, 10_000]
    assert sorted({cap for _, _, cap in programs}) == [10**6, 1_500_000]
