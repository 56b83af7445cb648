"""Evolutionary fuzzing loop over reactive programs.

Corpus-queue round robin with havoc mutation stacks, a weighted symbol
pool from interval analysis, dual-map novelty retention (a candidate is
kept when it sets any previously-unseen branch-pair bucket bit or state
bit), energy bonuses for state-novel entries, signature-preserving
trimming, and first-witness-per-error-id recording. Everything observable
is a pure function of (program, config, seed, exec budget); wall-clock
timings are segregated so they never touch the deterministic outputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import floor, inf
from operator import itemgetter
from pathlib import Path

from random import Random

from .cfg import Cfg, assign_block_tags, build_cfg
from .executor import (
    _BUCKETS,
    DEFAULT_MAX_STEPS,
    MAP_SIZE,
    CompiledTarget,
    GlobalMaps,
    compile_target,
)
from .frontend import Program, list_error_ids
from .instrument import InstrumentationPlan, select_instrumentation
from .interval import IntervalSummary, analyze

MAX_SEED_SYMBOLS = 256
MAX_LEN = 4096  # longest input a mutation makes
RANDOM_SEED_COUNT = 10  # random pool-drawn seed inputs, after the single symbols
RANDOM_SEED_LEN = 20
ENERGY_BASE = 128  # mutations per queue visit
LONG_INPUT_LEN = 512  # longer inputs get half the energy

_INDEX = itemgetter(1, 2)  # the (byte, mask) of a state entry: its map index


@dataclass(frozen=True)
class FuzzConfig:
    """baseline turns off the interval value pool (symbols are drawn
    uniformly) and state-novelty retention, leaving a plain branch-coverage
    fuzzer for ablation."""

    baseline: bool = False


def baseline_config() -> FuzzConfig:
    """The ablated configuration: uniform symbol pool, branch-only fitness."""
    return FuzzConfig(baseline=True)


@dataclass(frozen=True)
class TestCase:
    input: "tuple[int, ...]"
    id: int
    parent: "int | None"
    new_branch: bool
    new_state: bool
    exec_index: int


@dataclass(frozen=True)
class ErrorRecord:
    witness: "tuple[int, ...]"
    exec_index: int
    elapsed: float


@dataclass
class Campaign:
    program: Program
    cfg: Cfg
    plan: InstrumentationPlan
    summary: IntervalSummary
    target: CompiledTarget
    config: FuzzConfig
    rng: Random
    maps: GlobalMaps
    queue: "list[TestCase]" = field(default_factory=list)
    errors: "dict[int, ErrorRecord]" = field(default_factory=dict)
    execs: int = 0
    all_error_ids: frozenset = frozenset()
    pool_values: "tuple[int, ...]" = ()
    start_time: float = 0.0
    exec_budget: "int | None" = None  # fuzz_loop's max_execs, which trim keeps to


@dataclass(frozen=True)
class CampaignResult:
    execs: int
    corpus: "tuple[TestCase, ...]"
    errors: "dict[int, ErrorRecord]"
    branch_bits: int
    state_bits: int
    total_error_ids: int
    elapsed_seconds: float

    @property
    def found_count(self) -> int:
        return len(self.errors)


# --- mutation -------------------------------------------------------------


def mutate(seq, pool_values, rng: Random, max_len: int = MAX_LEN, corpus=None) -> "tuple[int, ...]":
    """Havoc stack: 2^k primitive mutations, k uniform in 1..6.

    Each step deletes a symbol, inserts a pool symbol, duplicates a block
    of up to 16 symbols, splices in the tail of another corpus input, or
    replaces a symbol by a pool symbol. Symbols come from the weighted
    pool; length stays in [1, max_len]. Deletes on length-1 inputs degrade
    to replaces, oversized inserts and duplications degrade likewise, so
    every stacking step mutates.

    Draws are truncated with floor, which equals int on the non-negative
    floats of rng.random() and is the cheaper call.
    """
    out = list(seq)
    npool = len(pool_values)
    rand = rng.random
    stack = 2 << floor(rand() * 6.0)
    for _ in range(stack):
        op = floor(rand() * 5.0)
        n = len(out)
        if op == 1 and n > 1:
            del out[floor(rand() * n)]
        elif op == 2 and n < max_len:
            out.insert(floor(rand() * (n + 1)), pool_values[floor(rand() * npool)])
        elif op == 3 and n > 1:
            start = floor(rand() * n)
            end = start + 1 + floor(rand() * min(n - start, 16))
            at = floor(rand() * (n + 1))
            out[at:at] = out[start:end]
            del out[max_len:]
        elif op == 4 and corpus is not None and len(corpus) > 1:
            other = corpus[floor(rand() * len(corpus))].input
            cut_a = 1 + floor(rand() * n)
            cut_b = floor(rand() * (len(other) + 1))
            del out[cut_a:]
            out.extend(other[cut_b:])
            del out[max_len:]
        else:
            out[floor(rand() * n)] = pool_values[floor(rand() * npool)]
    return tuple(out)


def schedule_energy(t: TestCase, config: FuzzConfig) -> int:
    """Mutation budget per queue visit: 128 base, x2 for state-novel
    discoveries (outside the baseline), halved for long inputs."""
    e = ENERGY_BASE
    if t.new_state and not config.baseline:
        e *= 2
    if len(t.input) > LONG_INPUT_LEN:
        e //= 2
    return e


# --- campaign ------------------------------------------------------------


def _flat_pool(summary: IntervalSummary, program: Program, config: FuzzConfig) -> "tuple[int, ...]":
    if config.baseline:
        return tuple(program.alphabet())
    flat: "list[int]" = []
    for sym, weight in summary.value_pool:
        flat.extend([sym] * weight)
    return tuple(flat)


def _execute_and_merge(c: Campaign, scratch, candidate) -> "tuple[int, int, bool, bool]":
    """Run one candidate on the compiled target and merge its coverage into
    the campaign maps. Returns (status_code, error_id, new_branch, new_state)."""
    hits, touched, entries, outs = scratch
    touched.clear()
    entries.clear()
    outs.clear()
    code, err, _steps, _final = c.target.fn(
        candidate, DEFAULT_MAX_STEPS, hits, touched, entries, c.target.key_cache, outs
    )
    c.execs += 1
    return (code, err, *c.maps.merge(hits, touched, entries))


def _record_error(c: Campaign, error_id: int, witness) -> None:
    if error_id not in c.errors:
        c.errors[error_id] = ErrorRecord(
            witness=tuple(witness),
            exec_index=c.execs,
            elapsed=time.monotonic() - c.start_time,
        )


def init_campaign(
    program: Program,
    config: "FuzzConfig | None" = None,
    seed: int = 0,
    max_execs: "int | None" = None,
) -> Campaign:
    """Build the pipeline state and execute the seed corpus.

    Seeds: one single-symbol input per alphabet value (truncated to 256
    for huge alphabets) plus random pool-drawn sequences. Seeds enter the
    queue unconditionally; their novelty flags still come from the merge.
    Seeding stops once max_execs seeds have run.
    """
    config = config or FuzzConfig()
    g = assign_block_tags(build_cfg(program), seed)
    plan = select_instrumentation(g)
    summary = analyze(program)
    target = compile_target(program, g, plan)
    c = Campaign(
        program=program,
        cfg=g,
        plan=plan,
        summary=summary,
        target=target,
        config=config,
        rng=Random(seed),
        maps=GlobalMaps(),
        all_error_ids=frozenset(list_error_ids(program)),
        pool_values=_flat_pool(summary, program, config),
        start_time=time.monotonic(),
    )

    seeds: "list[tuple[int, ...]]" = [
        (sym,) for sym in list(program.alphabet())[:MAX_SEED_SYMBOLS]
    ]
    npool = len(c.pool_values)
    for _ in range(RANDOM_SEED_COUNT):
        seeds.append(
            tuple(c.pool_values[int(c.rng.random() * npool)] for _ in range(RANDOM_SEED_LEN))
        )

    if max_execs is not None:
        seeds = seeds[:max(max_execs, 0)]
    scratch = ([0] * MAP_SIZE, [], [], [])
    for s in seeds:
        code, err, new_branch, new_state = _execute_and_merge(c, scratch, s)
        if code == 1:
            _record_error(c, err, s)
        c.queue.append(
            TestCase(
                input=s,
                id=len(c.queue),
                parent=None,
                new_branch=new_branch,
                new_state=new_state,
                exec_index=c.execs,
            )
        )
    return c


def _solo_signature(target: CompiledTarget, seq, scratch):
    """Behavior fingerprint of one isolated run: status code, error id,
    classified branch buckets, and the touched state-map indices (as the
    (byte, mask) pairs of the state entries)."""
    hits, touched, entries, outs = scratch
    touched.clear()
    entries.clear()
    outs.clear()
    code, err, _steps, _final = target.fn(
        seq, DEFAULT_MAX_STEPS, hits, touched, entries, target.key_cache, outs
    )
    lut = _BUCKETS
    buckets = []
    for i in touched:
        n = hits[i]
        buckets.append((i, lut[n] if n < 256 else 0x80))
        hits[i] = 0
    buckets.sort()
    return (code, err, tuple(buckets), frozenset(map(_INDEX, entries)))


def trim(c: Campaign, seq) -> "tuple[int, ...]":
    """Drop contiguous chunks (len/16 down to single symbols) while the
    solo execution keeps the exact same classified branch map, state-index
    set, and status; one final run re-verifies the survivor.

    Trim executions never merge into the campaign maps: they re-cover a
    subset of an already-merged run, and polluting the virgin maps with
    unretained intermediates would break retention accounting.

    No run starts once c.execs reaches c.exec_budget; the shortest input
    accepted so far is returned, since each one matched the signature.
    """
    budget = c.exec_budget if c.exec_budget is not None else inf
    if c.execs >= budget:
        return tuple(seq)
    scratch = ([0] * MAP_SIZE, [], [], [])
    base = _solo_signature(c.target, seq, scratch)
    c.execs += 1
    out = list(seq)
    chunk = max(1, len(out) // 16)
    while chunk >= 1:
        pos = 0
        while pos < len(out):
            trial = out[:pos] + out[pos + chunk:]
            if not trial:
                pos += chunk
                continue
            if c.execs >= budget:
                return tuple(out)
            c.execs += 1
            if _solo_signature(c.target, trial, scratch) == base:
                out = trial
            else:
                pos += chunk
        chunk //= 2
    if c.execs >= budget:
        return tuple(out)
    c.execs += 1
    if _solo_signature(c.target, out, scratch) != base:
        return tuple(seq)
    return tuple(out)


def fuzz_loop(
    c: Campaign,
    max_execs: "int | None" = None,
    max_seconds: "float | None" = None,
) -> CampaignResult:
    """Round-robin the queue until the budget runs out or every syntactic
    error id has a witness. Retention: any novel branch bucket bit, or any
    novel state bit outside the baseline. A retained input is trimmed."""
    if max_execs is None and max_seconds is None:
        raise ValueError("need max_execs or max_seconds")

    c.exec_budget = max_execs
    config = c.config
    use_state = not config.baseline
    total_ids = len(c.all_error_ids)
    scratch = ([0] * MAP_SIZE, [], [], [])

    def done() -> bool:
        if max_execs is not None and c.execs >= max_execs:
            return True
        if max_seconds is not None and time.monotonic() - c.start_time >= max_seconds:
            return True
        return len(c.errors) >= total_ids

    while not done():
        for qi in range(len(c.queue)):
            entry = c.queue[qi]
            for _ in range(schedule_energy(entry, config)):
                if done():
                    return finalize(c)
                candidate = mutate(entry.input, c.pool_values, c.rng, corpus=c.queue)
                code, err, new_branch, new_state = _execute_and_merge(c, scratch, candidate)
                if code == 1:
                    _record_error(c, err, candidate)
                if new_branch or (use_state and new_state):
                    c.queue.append(
                        TestCase(
                            input=trim(c, candidate),
                            id=len(c.queue),
                            parent=entry.id,
                            new_branch=new_branch,
                            new_state=new_state,
                            exec_index=c.execs,
                        )
                    )
    return finalize(c)


def finalize(c: Campaign) -> CampaignResult:
    return CampaignResult(
        execs=c.execs,
        corpus=tuple(c.queue),
        errors=dict(c.errors),
        branch_bits=c.maps.branch_bit_count(),
        state_bits=c.maps.state_bit_count(),
        total_error_ids=len(c.all_error_ids),
        elapsed_seconds=time.monotonic() - c.start_time,
    )


# --- output directory -----------------------------------------------------


def format_input(seq) -> str:
    return " ".join(str(v) for v in seq) + "\n"


def parse_input_text(text: str) -> "tuple[int, ...]":
    return tuple(int(tok) for tok in text.split())


def write_outputs(result: CampaignResult, out_dir) -> None:
    """Materialize a campaign: queue/id_<n>.txt, errors/error_<k>.txt,
    stats.json (deterministic) and timing.json (wall clock)."""
    out = Path(out_dir)
    queue_dir = out / "queue"
    errors_dir = out / "errors"
    queue_dir.mkdir(parents=True, exist_ok=True)
    errors_dir.mkdir(parents=True, exist_ok=True)
    for n, case in enumerate(result.corpus):
        (queue_dir / f"id_{n}.txt").write_text(format_input(case.input))
    for k in sorted(result.errors):
        (errors_dir / f"error_{k}.txt").write_text(format_input(result.errors[k].witness))
    stats = {
        "execs": result.execs,
        "corpus_size": len(result.corpus),
        "branch_bits": result.branch_bits,
        "state_bits": result.state_bits,
        "total_error_ids": result.total_error_ids,
        "errors": {
            str(k): {
                "witness": list(rec.witness),
                "exec_index": rec.exec_index,
            }
            for k, rec in result.errors.items()
        },
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    timing = {
        "elapsed_seconds": result.elapsed_seconds,
        "errors": {str(k): rec.elapsed for k, rec in result.errors.items()},
    }
    (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
