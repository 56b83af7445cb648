"""Evolutionary fuzzing loop over reactive programs.

Corpus-queue round robin with havoc mutation stacks, a weighted symbol
pool from interval analysis, dual-map novelty retention (a candidate is
kept when it sets any previously-unseen branch-pair bucket bit or
reaches any previously-unseen state-map index), energy bonuses for
state-novel entries, signature-preserving trimming, and
first-witness-per-error-id recording. Everything observable
is a pure function of (program, config, seed, exec budget); wall-clock
timings are segregated so they never touch the deterministic outputs.

Trim resumes each trial from a snapshot of the run it trims: the
compiled target starts from a (valuation, prev tag, steps done) start
state over the symbols after those steps, and at a cut step it records
the running state into a snapshot list (CompiledTarget describes the
contract). It stops on the trial's first state-map index outside the
index set of the base run, whose signature the trial can then no longer
match. A trial is still one target call and one exec, and is kept
exactly when a full run of it would be.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from math import floor, inf
from pathlib import Path

from random import Random

from .cfg import Cfg, assign_block_tags, build_cfg
from .executor import (
    _BUCKETS,
    _INDEX,
    MAP_SIZE,
    CompiledTarget,
    GlobalMaps,
    compile_target,
    load_snapshot,
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
    """A queue entry. Its index in Campaign.queue names it: parent is the
    index of the entry it was mutated from (None for a seed), and
    write_outputs writes it to queue/id_<index>.txt."""

    input: "tuple[int, ...]"
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
    """One campaign's pipeline state and everything it has found.

    init_campaign builds it and runs the seeds; fuzz_loop runs it on and
    returns it, with elapsed_seconds set. scratch holds the run buffers
    (hit counts, touched indices, state entries) that every run of the
    campaign, trim's included, reuses: each run leaves the hit counts
    zero."""

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
    elapsed_seconds: float = 0.0  # from start_time to fuzz_loop's return
    scratch: tuple = field(
        init=False, repr=False, compare=False, default_factory=lambda: ([0] * MAP_SIZE, [], [])
    )


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


def _execute_and_merge(c: Campaign, candidate) -> "tuple[str, int | None, bool, bool]":
    """Run one candidate on the compiled target and merge its coverage into
    the campaign maps. Returns (status, error_id, new_branch, new_state)."""
    hits, touched, entries = c.scratch
    touched.clear()
    entries.clear()
    status, err = c.target.fn(candidate, hits, touched, entries, c.target.key_cache)
    c.execs += 1
    return (status, err, *c.maps.merge(hits, touched, entries))


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
    Seeding stops once max_execs seeds have run; check_budget's
    ValueError refuses a negative max_execs.
    """
    if max_execs is not None:
        check_budget(max_execs, None)
    config = config or FuzzConfig()
    g = assign_block_tags(build_cfg(program), seed)
    plan = select_instrumentation(g)
    summary = analyze(program)
    target = compile_target(program, g, plan)
    c = Campaign(
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
        seeds = seeds[:max_execs]
    for s in seeds:
        status, err, new_branch, new_state = _execute_and_merge(c, s)
        if status == "error":
            _record_error(c, err, s)
        c.queue.append(
            TestCase(
                input=s,
                parent=None,
                new_branch=new_branch,
                new_state=new_state,
                exec_index=c.execs,
            )
        )
    return c


def _solo_signature(c: Campaign, seq, snap=None, cut=-1, allow=None):
    """Behavior fingerprint of one isolated run: status, error id,
    classified branch buckets, and the set of state-map indices of the
    run's state entries.

    snap, when given, is a snapshot list of target.fn ([] for the initial
    state): the run resumes from it over seq, the symbols after its
    steps, and with cut it moves snap on to the run's cut-th step.

    allow, when given, is a set of state-map indices: the run stops on
    its first step whose index is outside it, and the result is None, no
    fingerprint (the hit counts are still zeroed)."""
    hits, touched, entries = c.scratch
    touched.clear()
    entries.clear()
    start = load_snapshot(snap, hits, touched, entries)
    status, err = c.target.fn(
        seq, hits, touched, entries, c.target.key_cache, start, cut, snap, allow
    )
    if status is None:
        for i in touched:
            hits[i] = 0
        return None
    lut = _BUCKETS
    buckets = []
    for i in touched:
        n = hits[i]
        buckets.append((i, lut[n] if n < 256 else 0x80))
        hits[i] = 0
    buckets.sort()
    return (status, err, tuple(buckets), frozenset(map(_INDEX, entries)))


def trim(c: Campaign, seq) -> "tuple[int, ...]":
    """Drop contiguous chunks (len/16 down to single symbols) while the
    solo execution keeps the exact same classified branch map, state-index
    set, and status; one final run re-verifies the survivor.

    A trial out[:pos] + out[pos+chunk:] shares its first pos symbols with
    out, and within one chunk size pos never falls and an accepted trial
    keeps out[:pos]. So each trial resumes from a snapshot of out's run
    at an earlier position of the pass, and cuts a new one at pos, in the
    same single target call that is the trial's exec. The base run and
    the final re-verify run from the initial state.

    A trial stops on its first step whose state-map index is outside the
    base run's index set, for its signature cannot match from there on.
    Its first pos symbols are out's, whose run matched the base, so it
    never stops before the cut, and the snapshots are those of full
    trials: trim keeps the same trials for the same execs.

    Trim executions never merge into the campaign maps: they re-cover a
    subset of an already-merged run, and polluting the virgin maps with
    unretained intermediates would break retention accounting.

    No run starts once c.execs reaches c.exec_budget; the shortest input
    accepted so far is returned, since each one matched the signature.
    """
    budget = c.exec_budget if c.exec_budget is not None else inf
    if c.execs >= budget:
        return tuple(seq)
    base = _solo_signature(c, seq)
    c.execs += 1
    out = list(seq)
    chunk = max(1, len(out) // 16)
    while chunk >= 1:
        pos = 0
        snap = []  # a snapshot of out's run at a step up to pos
        while pos < len(out):
            if not pos and chunk >= len(out):
                break  # the trial would be empty
            if c.execs >= budget:
                return tuple(out)
            c.execs += 1
            done = snap[0][2] if snap else 0
            trial = out[done:pos] + out[pos + chunk:]
            if _solo_signature(c, trial, snap, pos, base[3]) == base:
                del out[pos:pos + chunk]
            else:
                pos += chunk
        chunk //= 2
    if c.execs >= budget:
        return tuple(out)
    c.execs += 1
    if _solo_signature(c, out) != base:
        return tuple(seq)
    return tuple(out)


def check_budget(max_execs: "int | None", max_seconds: "float | None") -> None:
    """Raise ValueError unless the budget is one fuzz_loop can keep to: at
    least one of the two given, max_execs not negative, and max_seconds
    finite and not negative."""
    if max_execs is None and max_seconds is None:
        raise ValueError("need max_execs or max_seconds")
    if max_execs is not None and max_execs < 0:
        raise ValueError(f"max_execs is negative ({max_execs})")
    if max_seconds is not None and not 0 <= max_seconds < inf:
        raise ValueError(f"max_seconds is not a finite non-negative number ({max_seconds})")


def fuzz_loop(
    c: Campaign,
    max_execs: "int | None" = None,
    max_seconds: "float | None" = None,
) -> Campaign:
    """Round-robin the queue until the budget runs out or every syntactic
    error id has a witness, and return c, at once when the queue is
    empty. Retention: any novel branch
    bucket bit, or any novel state-map index outside the baseline. A
    retained input is trimmed. check_budget's ValueError refuses a
    budget that could not end the loop."""
    check_budget(max_execs, max_seconds)

    c.exec_budget = max_execs
    config = c.config
    use_state = not config.baseline
    total_ids = len(c.all_error_ids)

    def done() -> bool:
        if max_execs is not None and c.execs >= max_execs:
            return True
        if max_seconds is not None and time.monotonic() - c.start_time >= max_seconds:
            return True
        return len(c.errors) >= total_ids

    while c.queue and not done():
        for qi in range(len(c.queue)):
            entry = c.queue[qi]
            for _ in range(schedule_energy(entry, config)):
                if done():
                    c.elapsed_seconds = time.monotonic() - c.start_time
                    return c
                candidate = mutate(entry.input, c.pool_values, c.rng, corpus=c.queue)
                status, err, new_branch, new_state = _execute_and_merge(c, candidate)
                if status == "error":
                    _record_error(c, err, candidate)
                if new_branch or (use_state and new_state):
                    c.queue.append(
                        TestCase(
                            input=trim(c, candidate),
                            parent=qi,
                            new_branch=new_branch,
                            new_state=new_state,
                            exec_index=c.execs,
                        )
                    )
    c.elapsed_seconds = time.monotonic() - c.start_time
    return c


# --- output directory -----------------------------------------------------


def format_input(seq) -> str:
    return " ".join(str(v) for v in seq) + "\n"


_DECIMAL = re.compile(r"-?[0-9]+")
_TOKEN = re.compile(r"\S+", re.ASCII)  # split at ASCII whitespace only


def parse_decimal(tok: str) -> int:
    """The value of an ASCII decimal token, -?[0-9]+, as campaign files
    write them; ValueError on any other token, also on those that int()
    takes, such as '٣', '+2' or '0_1'."""
    if not _DECIMAL.fullmatch(tok):
        raise ValueError(f"{tok!r} is not an ASCII decimal integer")
    return int(tok)


def parse_input_text(text: str) -> "tuple[int, ...]":
    return tuple(map(parse_decimal, _TOKEN.findall(text)))


def write_outputs(c: Campaign, out_dir) -> None:
    """Materialize a campaign: queue/id_<n>.txt, errors/error_<k>.txt,
    stats.json (deterministic) and timing.json (wall clock). The queue
    and witness files of an earlier campaign in out_dir are deleted
    first; no other file is."""
    out = Path(out_dir)
    queue_dir = out / "queue"
    errors_dir = out / "errors"
    queue_dir.mkdir(parents=True, exist_ok=True)
    errors_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*queue_dir.glob("id_*.txt"), *errors_dir.glob("error_*.txt")]:
        stale.unlink()
    for n, case in enumerate(c.queue):
        (queue_dir / f"id_{n}.txt").write_text(format_input(case.input))
    for k in sorted(c.errors):
        (errors_dir / f"error_{k}.txt").write_text(format_input(c.errors[k].witness))
    stats = {
        "execs": c.execs,
        "corpus_size": len(c.queue),
        "branch_bits": c.maps.branch_bit_count(),
        "state_bits": c.maps.state_bit_count(),
        "total_error_ids": len(c.all_error_ids),
        "errors": {
            str(k): {
                "witness": list(rec.witness),
                "exec_index": rec.exec_index,
            }
            for k, rec in c.errors.items()
        },
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    timing = {
        "elapsed_seconds": c.elapsed_seconds,
        "errors": {str(k): rec.elapsed for k, rec in c.errors.items()},
    }
    (out / "timing.json").write_text(json.dumps(timing, indent=2, sort_keys=True) + "\n")
