"""The benchmark's workloads and the rounds that run them.

An operation is one program's pipeline: set-up, campaign, oracle and, on
`triage`, output files and the CLI. A round runs every program of the
workload once, in generator-seed order. Campaigns use fuzzer seed 42, so
what a campaign finds depends only on its program and budget: rounds and
runs repeat it exactly. Program calls are timed by a `Clock`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reachfuzz
import reachfuzz.cli
import reachfuzz.executor

import judge
from tracer import Tracer

FUZZ_SEED = 42
# Seconds of one `_ref_pass` on an idle core of the machine that the
# README's reference figures come from (Intel Xeon, 2.1 GHz, Python 3.11).
REF_PASS_S = 0.0025
_perf = time.perf_counter


def _ref_pass() -> float:
    """Seconds taken by one pass of a fixed pure-Python loop that, like
    the program, builds tuples, hashes them into a dict and does integer
    arithmetic."""
    t = _perf()
    d: dict = {}
    s = 0
    for i in range(10_000):
        k = (i & 255, i % 7)
        d[k] = d.get(k, 0) + 1
        s += (i * 2654435761) & 0xFFFF
    return _perf() - t


class Clock:
    """Times program calls in seconds at the reference speed.

    The benchmark runs on machines whose cores are shared with other
    tenants. There a core's speed drifts by a fifth or more for minutes at
    a time, and every raw timing of a run moves with it. The clock measures
    the core's speed with `_ref_pass`: twice before and twice after each
    timed call and, from a timer signal, every `SAMPLE_EVERY_S` during it.
    It scales the call's seconds, less those the samples took, by
    `REF_PASS_S` over the mean pass: a slower program reads slower, a
    slower machine mostly does not.
    """

    SAMPLE_EVERY_S = 0.1

    def __init__(self):
        self.passes: "list[float]" = []
        self._sampled: "list[float]" = []
        self._busy = 0.0  # seconds the samples took inside the running call

    def probe(self) -> float:
        """Mean seconds of two reference passes run now."""
        pair = (_ref_pass(), _ref_pass())
        self.passes.extend(pair)
        return sum(pair) / 2

    def scale(self, raw_s: float, pass_s: float) -> float:
        return raw_s * REF_PASS_S / pass_s

    def _on_alarm(self, signum, frame) -> None:
        t = _perf()
        self._sampled.append(_ref_pass())
        self._busy += _perf() - t

    def call(self, fn):
        """Run `fn()`; return its result and its scaled seconds."""
        before = self.probe()
        self._sampled, self._busy = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        t = _perf()
        try:
            out = fn()
        finally:
            raw = _perf() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.passes.extend(self._sampled)
        samples = [before, *self._sampled, self.probe()]
        return out, self.scale(raw - self._busy, statistics.fmean(samples))


@dataclass(frozen=True)
class Workload:
    name: str
    gen_seeds: "tuple[int, ...]"
    gen: dict  # generate_source keyword arguments
    budget: int  # max_execs per campaign
    state_cap: int = 10**6  # oracle cap, above every program's reachable space
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # the criterion-3 family; at most ~1.6k reachable states per program
        Workload("family", tuple(range(20)), dict(vars=4, domain=8, alphabet=10), budget=10_000),
        # spaces up to 1.15M states (gen seed 4) and 0.92M (gen seed 9)
        Workload(
            "deep-state",
            tuple(range(3, 13)),
            dict(vars=8, domain=16, alphabet=10),
            budget=8000,
            state_cap=1_500_000,
        ),
        Workload(
            "triage",
            tuple(range(1000, 1040)),
            dict(vars=4, domain=8, alphabet=10, errors=20),
            budget=500,
            via_cli=True,
        ),
    )
}


class OpFailed(Exception):
    """A call raised or a CLI command exited non-zero."""


@dataclass
class Op:
    """What one operation cost and found. Seconds count program calls only."""

    setup: float = 0.0
    loop: float = 0.0
    loop_execs: int = 0
    rest: float = 0.0  # oracle, output files, report
    found: int = 0
    # discovery_auc * budget, kept whole so that sums do not depend on
    # the order of the operations
    auc_x_budget: int = 0

    @property
    def wall(self) -> float:
        return self.setup + self.loop + self.rest

    def add(self, other: "Op") -> None:
        self.setup += other.setup
        self.loop += other.loop
        self.loop_execs += other.loop_execs
        self.rest += other.rest
        self.found += other.found
        self.auc_x_budget += other.auc_x_budget


def _cli(argv) -> str:
    """Run one `reachfuzz` command in-process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = reachfuzz.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise OpFailed(f"reachfuzz {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _parse(text: str):
    program = reachfuzz.parse_program(text)
    if not isinstance(program, reachfuzz.Program):
        raise OpFailed(f"generated program does not parse: {program[0].render()}")
    return program


def _fuzz(w: Workload, op: Op, text: str, clock: Clock, tracer: "Tracer | None"):
    """Set-up and campaign, as `reachfuzz fuzz` makes them. Returns the
    program, the campaign, its result and the steps each witness took to
    its error."""

    def setup():
        program = _parse(text)
        return program, reachfuzz.init_campaign(program, reachfuzz.FuzzConfig(), seed=FUZZ_SEED)

    (program, c), op.setup = clock.call(setup)
    before = c.execs
    result, op.loop = clock.call(lambda: reachfuzz.fuzz_loop(c, max_execs=w.budget))
    op.loop_execs = c.execs - before
    for rec in result.errors.values():
        if rec.exec_index <= w.budget:
            op.found += 1
            op.auc_x_budget += w.budget - rec.exec_index
    found = {
        k: judge.check_fuzzer_witness(program, k, rec.witness)
        for k, rec in result.errors.items()
    }
    if tracer is not None:
        _count_layers(tracer, w, c)
    return program, c, result, found


def _count_layers(tracer: Tracer, w: Workload, c) -> None:
    """Per-layer counts for one campaign, and the check that the wrapper
    counted one target call per exec."""
    calls = tracer.target_calls(c.target)
    if calls != c.execs:
        raise judge.CheckFailed(f"wrapper counted {calls} target calls, campaign {c.execs} execs")
    kc = c.target.key_cache
    k = tracer.counts
    k["cfg.paths"] += reachfuzz.count_paths(c.cfg)
    k["instrument.probes"] += len(c.plan.instrumented)
    k["executor.key_cache_entries"] += len(kc)
    k["executor.state_index_collisions"] += len(kc) - len({e[0] & 0xFFFF for e in kc.values()})
    k["fuzzer.overshoot_execs"] += max(0, c.execs - w.budget)


def library_op(
    w: Workload, text: str, clock: Clock, tracer: "Tracer | None"
) -> "tuple[Op, tuple]":
    """`family` and `deep-state`: set-up, campaign and oracle via the API."""
    op = Op()
    program, c, result, found = _fuzz(w, op, text, clock, tracer)
    oracle, op.rest = clock.call(
        lambda: reachfuzz.bfs_reachability(program, state_cap=w.state_cap)
    )
    judge.check_oracle(program, oracle.reachable, oracle.complete, c.all_error_ids)
    judge.check_discoveries(found, oracle.reachable)
    judge.check_key_cache(program, c.target.key_cache, c.summary.global_bounds, oracle.explored_states)
    return op, _outcome(result)


def cli_op(
    w: Workload, gseed: int, out_dir: Path, clock: Clock, tracer: "Tracer | None"
) -> "tuple[Op, tuple]":
    """`triage`: gen, fuzz with outputs on disk, then report and oracle."""
    op = Op()
    prog_path = out_dir / f"prog_{gseed}.rrp"
    camp = out_dir / f"campaign_{gseed}"
    shutil.rmtree(camp, ignore_errors=True)
    flags = [f"--{key}={value}" for key, value in w.gen.items()]
    _cli(["gen", f"--seed={gseed}", *flags, f"--out={prog_path}"])
    program, c, result, found = _fuzz(w, op, prog_path.read_text(), clock, tracer)

    def outputs():
        reachfuzz.write_outputs(result, camp)
        return _cli(["report", str(camp), str(prog_path)]), _cli(["oracle", str(prog_path)])

    (report, oracle_text), op.rest = clock.call(outputs)

    reachable, complete, states = judge.parse_oracle_output(oracle_text)
    judge.check_oracle(program, reachable, complete, c.all_error_ids)
    judge.check_discoveries(found, reachable)
    judge.check_key_cache(program, c.target.key_cache, c.summary.global_bounds, states)
    written = [int(p.stem.removeprefix("error_")) for p in (camp / "errors").glob("error_*.txt")]
    judge.check_report(report, c.all_error_ids, written)
    if set(written) != set(result.errors):
        raise judge.CheckFailed(f"witness files {sorted(written)} differ from the campaign's finds")
    return op, _outcome(result)


def _outcome(result) -> tuple:
    return result.execs, tuple(
        sorted((k, rec.exec_index, rec.witness) for k, rec in result.errors.items())
    )


class Runner:
    """Runs whole rounds of one workload and keeps what they report."""

    def __init__(self, w: Workload, out_dir: Path, clock: Clock):
        self.w = w
        self.clock = clock
        self.out_dir = out_dir
        self.texts = (
            {}
            if w.via_cli
            else {g: reachfuzz.generate_source(seed=g, **w.gen) for g in w.gen_seeds}
        )
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.outcomes: dict = {}

    def round(self, tracer: "Tracer | None" = None) -> "tuple[Op, Op]":
        """Run every program once; with a tracer, run each twice in a row,
        untraced and then traced, so both runs see the process in the same
        state. Returns the untraced and traced sums of the operations that
        passed."""
        plain, traced = Op(), Op()
        for g in self.w.gen_seeds:
            self._attempt(g, plain, None)
            if tracer is not None:
                with tracer.installed():
                    self._attempt(g, traced, tracer)
        return plain, traced

    def _attempt(self, g: int, acc: Op, tracer: "Tracer | None") -> None:
        # A CLI user runs each command in a fresh process, so no operation
        # may reuse targets that `executor.run` cached for an earlier one.
        cache = getattr(reachfuzz.executor, "_COMPILE_CACHE", None)
        if isinstance(cache, dict):
            cache.clear()
        # Collect what earlier operations left in reference cycles, so that
        # an operation's memory does not depend on when the collector last
        # ran.
        gc.collect()
        self.attempted += 1
        try:
            if self.w.via_cli:
                op, outcome = cli_op(self.w, g, self.out_dir, self.clock, tracer)
            else:
                op, outcome = library_op(self.w, self.texts[g], self.clock, tracer)
            if self.outcomes.setdefault(g, outcome) != outcome:
                raise judge.CheckFailed("campaign differs from an earlier run of it")
        except judge.CheckFailed as exc:
            self.failed += 1
            self.correct = False
            print(f"{self.w.name} program {g}: check failed: {exc}", file=sys.stderr)
            return
        except Exception:
            self.failed += 1
            print(f"{self.w.name} program {g}: operation failed", file=sys.stderr)
            traceback.print_exc()
            return
        acc.add(op)


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, import_s: float) -> dict:
    """Run whole rounds until `seconds` have passed, at least one, and
    return the JSON result. `import_s` is the raw time from the process's
    start to the end of `import reachfuzz`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = Clock()
    import_s = clock.scale(import_s, clock.probe())
    runner = Runner(w, out_dir, clock)
    tracer = Tracer() if trace else None
    start = _perf()
    rounds = [runner.round(tracer)]
    while _perf() - start < seconds:
        rounds.append(runner.round(tracer))
    plain = [r[0] for r in rounds]
    if trace:
        traced_wall = statistics.median(r[1].wall for r in rounds)
        ref_pass_s = statistics.median(clock.passes)
        metrics = tracer.layer_metrics(len(rounds), REF_PASS_S / ref_pass_s)
        metrics["bench.ref_pass_s"] = ref_pass_s
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(r.wall for r in plain)
        tracer.write_spans(out_dir / f"spans_seed{seed}.jsonl")
    else:
        loop = sum(r.loop for r in plain)
        metrics = {
            "wall_s": statistics.median(r.wall for r in plain),
            # the first round's set-up is the cold one
            "setup_s": import_s + plain[0].setup,
            "execs_per_s": sum(r.loop_execs for r in plain) / loop if loop else 0.0,
            "errors_found": plain[0].found,
            "discovery_auc": plain[0].auc_x_budget / w.budget,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
