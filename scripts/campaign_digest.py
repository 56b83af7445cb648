"""Print SHA-1 digests that show whether a change kept campaigns the same.

Every program of the benchmark's workloads is fuzzed at its workload's
budget with the benchmark's fuzzer seed, once under `FuzzConfig()` and
once under `baseline_config()`. The programs, budgets and seed are read
from `perfbench/workloads.py` by import, so the set cannot drift from the
benchmark's.

Usage:
    PYTHONPATH=src python3 scripts/campaign_digest.py

Prints three lines:
    campaigns <sha1>  each campaign's corpus (inputs, parents, novelty
                      flags, exec indices), its witnesses with their exec
                      indices, the virgin branch map as bytes, the state
                      map as its sorted index list, and the exec count;
    plans <sha1>      each campaign's instrumentation plan and the source
                      of its generated target;
    oracle <sha1>     `bfs_reachability` on every program at its
                      workload's state cap and at caps 50 and 7: the
                      reachable ids in order with their witnesses, the
                      explored state count and `complete`.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from reachfuzz import executor
from reachfuzz.frontend import parse_or_raise
from reachfuzz.fuzzer import FuzzConfig, baseline_config, fuzz_loop, init_campaign
from reachfuzz.gen import generate_source
from reachfuzz.oracle import bfs_reachability

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


ORACLE_CAPS = (50, 7)  # state caps run besides each workload's own


def benchmark_programs() -> "tuple[list[tuple[str, int, int]], int]":
    """([(program text, budget, oracle state cap)] over every workload,
    fuzzer seed)."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    programs = [
        (generate_source(seed=g, **w.gen), w.budget, w.state_cap)
        for w in workloads.WORKLOADS.values()
        for g in w.gen_seeds
    ]
    return programs, workloads.FUZZ_SEED


def digests(programs, seed: int) -> "tuple[str, str]":
    """(campaign digest, plan digest) over programs, a list of (program
    text, budget), each fuzzed under both configs with fuzzer seed seed.
    The target source is the one `init_campaign` hands to
    `executor._compile`."""
    campaigns, plans = hashlib.sha1(), hashlib.sha1()
    compile_source = executor._compile
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile_source(source, *args)

    for text, budget in programs:
        program = parse_or_raise(text)
        for config in (FuzzConfig(), baseline_config()):
            sources.clear()
            executor._compile = capture
            try:
                c = init_campaign(program, config, seed=seed)
            finally:
                executor._compile = compile_source
            fuzz_loop(c, max_execs=budget)
            record = (
                [(t.input, t.parent, t.new_branch, t.new_state, t.exec_index) for t in c.queue],
                sorted((k, r.witness, r.exec_index) for k, r in c.errors.items()),
                bytes(c.maps.virgin_branch).hex(),
                sorted(c.maps.state_indices),
                c.execs,
            )
            campaigns.update(repr(record).encode() + b"\n")
            (source,) = sources
            plans.update(repr((sorted(c.plan.instrumented), source)).encode() + b"\n")
    return campaigns.hexdigest(), plans.hexdigest()


def oracle_digest(programs) -> str:
    """Digest of the oracle's results over programs, a list of (program
    text, state cap), each run at its cap and at every ORACLE_CAPS cap."""
    digest = hashlib.sha1()
    for text, state_cap in programs:
        program = parse_or_raise(text)
        for cap in (state_cap, *ORACLE_CAPS):
            res = bfs_reachability(program, state_cap=cap)
            record = (list(res.reachable.items()), res.explored_states, res.complete)
            digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


def main() -> int:
    programs, seed = benchmark_programs()
    campaigns, plans = digests([(text, budget) for text, budget, _ in programs], seed)
    print(f"campaigns {campaigns}")
    print(f"plans {plans}")
    print(f"oracle {oracle_digest([(text, cap) for text, _, cap in programs])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
