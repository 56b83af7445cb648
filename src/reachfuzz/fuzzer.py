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
from dataclasses import dataclass, field, replace
from math import floor, inf
from operator import itemgetter
from pathlib import Path

from random import Random

from .cfg import Cfg, assign_block_tags, build_cfg
from .executor import (
    BUCKET_LUT,
    DEFAULT_MAX_STEPS,
    DEFAULT_STATE_KEY_CAP,
    MAP_SIZE,
    CompiledTarget,
    GlobalMaps,
    compile_target,
)
from .frontend import Program, list_error_ids
from .instrument import InstrumentationPlan, select_instrumentation
from .interval import IntervalSummary, analyze

MAX_SEED_SYMBOLS = 256

_BUCKETS = list(BUCKET_LUT)  # indexed by a hit count below 256; 128 and up map to 0x80
_KEY = itemgetter(0)


@dataclass(frozen=True)
class FuzzConfig:
    max_len: int = 4096
    max_steps: int = DEFAULT_MAX_STEPS
    random_seed_count: int = 10
    random_seed_len: int = 20
    energy_base: int = 128
    energy_min: int = 16
    energy_max: int = 1024
    long_input_len: int = 512
    state_key_cap: int = DEFAULT_STATE_KEY_CAP
    const_weight: int = 4
    # ablation toggles: baseline turns both off
    use_value_pool: bool = True
    use_state_fitness: bool = True
    trim_enabled: bool = True


def baseline_config(config: "FuzzConfig | None" = None) -> FuzzConfig:
    """The ablated configuration: uniform symbol pool, branch-only fitness."""
    return replace(config or FuzzConfig(), use_value_pool=False, use_state_fitness=False)


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


# --- mutation primitives ------------------------------------------------


def replace_at(seq, pos: int, value: int) -> list:
    out = list(seq)
    out[pos] = value
    return out


def delete_at(seq, pos: int) -> list:
    out = list(seq)
    del out[pos]
    return out


def insert_at(seq, pos: int, value: int) -> list:
    out = list(seq)
    out.insert(pos, value)
    return out


def duplicate_block(seq, start: int, end: int, at: int) -> list:
    out = list(seq)
    return out[:at] + out[start:end] + out[at:]


def splice(a, b, cut_a: int, cut_b: int) -> list:
    return list(a)[:cut_a] + list(b)[cut_b:]


def mutate(seq, pool_values, rng: Random, max_len: int = 4096, corpus=None) -> "tuple[int, ...]":
    """Havoc stack: 2^k primitive mutations, k uniform in 1..6.

    Symbols come from the weighted pool; length stays in [1, max_len].
    Deletes on length-1 inputs degrade to replaces, oversized inserts and
    duplications degrade likewise, so every stacking step mutates.

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
    discoveries (when state fitness is on), halved for long inputs,
    clamped to [16, 1024]."""
    e = config.energy_base
    if config.use_state_fitness and t.new_state:
        e *= 2
    if len(t.input) > config.long_input_len:
        e //= 2
    return max(config.energy_min, min(config.energy_max, e))


# --- campaign ------------------------------------------------------------


def _flat_pool(summary: IntervalSummary, program: Program, config: FuzzConfig) -> "tuple[int, ...]":
    if not config.use_value_pool:
        return tuple(program.alphabet())
    flat: "list[int]" = []
    for sym, weight in summary.value_pool:
        flat.extend([sym] * weight)
    return tuple(flat)


def _execute_and_merge(c: Campaign, scratch, candidate) -> "tuple[int, int, bool, bool]":
    """Run one candidate on the compiled target and fold its coverage into
    the campaign maps. Returns (status_code, error_id, new_branch, new_state)."""
    counts, touched, keys, outs = scratch
    touched.clear()
    keys.clear()
    outs.clear()
    code, err, _steps, _final = c.target.fn(
        candidate, c.config.max_steps, counts, touched, keys, c.target.key_cache, outs
    )
    c.execs += 1
    maps = c.maps
    virgin = maps.virgin_branch
    lut = _BUCKETS
    new_branch = False
    for idx in touched:
        n = counts[idx]
        counts[idx] = 0
        mask = lut[n] if n < 256 else 0x80
        cur = virgin[idx]
        if mask & ~cur:
            virgin[idx] = cur | mask
            new_branch = True
    new_state = False
    skeys = maps.state_keys
    # every key in state_keys has its state bit set, so a run whose keys
    # are all there can change nothing
    if not skeys.issuperset(map(_KEY, keys)):
        bits = maps.state_bits
        track = len(skeys) < maps.state_key_cap
        for key, bi, mask in keys:
            b = bits[bi]
            if not b & mask:
                bits[bi] = b | mask
                new_state = True
            if track:
                skeys.add(key)
    return code, err, new_branch, new_state


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
    summary = analyze(program, config.const_weight)
    target = compile_target(program, g, plan)
    c = Campaign(
        program=program,
        cfg=g,
        plan=plan,
        summary=summary,
        target=target,
        config=config,
        rng=Random(seed),
        maps=GlobalMaps(state_key_cap=config.state_key_cap),
        all_error_ids=frozenset(list_error_ids(program)),
        pool_values=_flat_pool(summary, program, config),
        start_time=time.monotonic(),
    )

    seeds: "list[tuple[int, ...]]" = [
        (sym,) for sym in list(program.alphabet())[:MAX_SEED_SYMBOLS]
    ]
    npool = len(c.pool_values)
    for _ in range(config.random_seed_count):
        seeds.append(
            tuple(
                c.pool_values[int(c.rng.random() * npool)]
                for _ in range(config.random_seed_len)
            )
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


def _solo_signature(target: CompiledTarget, seq, max_steps: int, scratch):
    """Behavior fingerprint of one isolated run: status code, error id,
    classified branch buckets, and the touched state-map indices."""
    counts, touched, keys, outs = scratch
    touched.clear()
    keys.clear()
    outs.clear()
    code, err, _steps, _final = target.fn(
        seq, max_steps, counts, touched, keys, target.key_cache, outs
    )
    lut = _BUCKETS
    buckets = []
    for i in touched:
        n = counts[i]
        buckets.append((i, lut[n] if n < 256 else 0x80))
        counts[i] = 0
    buckets.sort()
    return (code, err, tuple(buckets), frozenset(e[0] & 0xFFFF for e in keys))


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
    max_steps = c.config.max_steps
    base = _solo_signature(c.target, seq, max_steps, scratch)
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
            if _solo_signature(c.target, trial, max_steps, scratch) == base:
                out = trial
            else:
                pos += chunk
        chunk //= 2
    if c.execs >= budget:
        return tuple(out)
    c.execs += 1
    if _solo_signature(c.target, out, max_steps, scratch) != base:
        return tuple(seq)
    return tuple(out)


def fuzz_loop(
    c: Campaign,
    max_execs: "int | None" = None,
    max_seconds: "float | None" = None,
) -> CampaignResult:
    """Round-robin the queue until the budget runs out or every syntactic
    error id has a witness. Retention: any novel branch bucket bit, or any
    novel state bit when state fitness is enabled."""
    if max_execs is None and max_seconds is None:
        raise ValueError("need max_execs or max_seconds")

    c.exec_budget = max_execs
    config = c.config
    use_state = config.use_state_fitness
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
                candidate = mutate(
                    entry.input,
                    c.pool_values,
                    c.rng,
                    max_len=config.max_len,
                    corpus=c.queue,
                )
                code, err, new_branch, new_state = _execute_and_merge(c, scratch, candidate)
                if code == 1:
                    _record_error(c, err, candidate)
                if new_branch or (use_state and new_state):
                    kept = trim(c, candidate) if config.trim_enabled else candidate
                    c.queue.append(
                        TestCase(
                            input=kept,
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
