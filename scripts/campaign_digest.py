"""Print SHA-1 digests that show whether a change kept campaigns the same.

Every program of the benchmark's workloads is fuzzed at its workload's
budget with the benchmark's fuzzer seed, once under `FuzzConfig()` and
once under `baseline_config()`. The programs, budgets and seed are read
from `perfbench/workloads.py` by import, so the set cannot drift from the
benchmark's.

Usage:
    PYTHONPATH=src python3 scripts/campaign_digest.py

Prints two lines:
    campaigns <sha1>  each campaign's corpus (inputs, parents, novelty
                      flags, exec indices), its witnesses with their exec
                      indices, both coverage maps, the state-key set and
                      the exec count;
    plans <sha1>      each campaign's instrumentation plan and the source
                      of its generated target.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from reachfuzz.executor import _generate_source
from reachfuzz.frontend import parse_or_raise
from reachfuzz.fuzzer import FuzzConfig, baseline_config, fuzz_loop, init_campaign
from reachfuzz.gen import generate_source

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_programs() -> "tuple[list[tuple[str, int]], int]":
    """([(program text, budget)] over every workload, fuzzer seed)."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    programs = [
        (generate_source(seed=g, **w.gen), w.budget)
        for w in workloads.WORKLOADS.values()
        for g in w.gen_seeds
    ]
    return programs, workloads.FUZZ_SEED


def digests(programs, seed: int) -> "tuple[str, str]":
    """(campaign digest, plan digest) over programs, a list of (program
    text, budget), each fuzzed under both configs with fuzzer seed seed."""
    campaigns, plans = hashlib.sha1(), hashlib.sha1()
    for text, budget in programs:
        program = parse_or_raise(text)
        for config in (FuzzConfig(), baseline_config()):
            c = init_campaign(program, config, seed=seed)
            fuzz_loop(c, max_execs=budget)
            record = (
                [(t.input, t.parent, t.new_branch, t.new_state, t.exec_index) for t in c.queue],
                sorted((k, r.witness, r.exec_index) for k, r in c.errors.items()),
                bytes(c.maps.virgin_branch).hex(),
                bytes(c.maps.state_bits).hex(),
                sorted(c.maps.state_keys),
                c.execs,
            )
            campaigns.update(repr(record).encode() + b"\n")
            source = _generate_source(program, c.cfg, c.plan.instrumented)
            plans.update(repr((sorted(c.plan.instrumented), source)).encode() + b"\n")
    return campaigns.hexdigest(), plans.hexdigest()


def main() -> int:
    campaigns, plans = digests(*benchmark_programs())
    print(f"campaigns {campaigns}")
    print(f"plans {plans}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
