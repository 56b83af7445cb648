"""Traced mode: spans around each layer's public entry points.

The tracer patches names where the fuzzer and the CLI look them up
(`reachfuzz.fuzzer.mutate`, `reachfuzz.cli.select_instrumentation`, ...)
and each campaign's `CompiledTarget.fn`, so the program itself carries
no tracing code. Each span records its name, start, end and parent;
spans stay in memory and are written out when the run ends. The two
calls made once per exec (the target and `mutate`) are too many to keep
one span each: they are counted and timed in aggregate on their parent
span. A layer's self time is its span time minus that of its children.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import reachfuzz
import reachfuzz.cli
import reachfuzz.executor
import reachfuzz.fuzzer

_perf = time.perf_counter


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child", "agg")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0  # seconds covered by child spans
        self.agg: "dict[str, list]" = {}  # hot child name -> [calls, seconds]


class Tracer:
    def __init__(self):
        self.spans: "list[dict]" = []
        self.total_s: "defaultdict[str, float]" = defaultdict(float)
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: "list[_Frame]" = []
        self._target_calls: "dict[int, list]" = {}
        self._ids = itertools.count()

    # --- span bookkeeping -------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as a span named `name`."""
        stack = self._stack
        parent = stack[-1].id if stack else None
        frame = _Frame(next(self._ids), parent, name, _perf())
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            dur = end - frame.start
            self.total_s[name] += dur
            self.self_s[name] += dur - frame.child
            self.calls[name] += 1
            if stack:
                stack[-1].child += dur
            self.spans.append({
                "id": frame.id, "parent": parent, "name": name,
                "start": frame.start, "end": end,
                "agg": frame.agg,
            })

    def _hot(self, name: str, fn, counter=None):
        """Wrap a once-per-exec call: timed and counted on its parent span."""
        stack = self._stack
        total = self.total_s
        calls = self.calls

        def wrapped(*args, **kwargs):
            t = _perf()
            out = fn(*args, **kwargs)
            dur = _perf() - t
            total[name] += dur
            calls[name] += 1
            if counter is not None:
                counter[0] += 1
            if stack:
                top = stack[-1]
                top.child += dur
                a = top.agg.get(name)
                if a is None:
                    top.agg[name] = [1, dur]
                else:
                    a[0] += 1
                    a[1] += dur
            return out

        return wrapped

    def _span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    # --- layer wrappers ---------------------------------------------------

    def target_calls(self, target) -> int:
        """Calls the wrapper counted on one compiled campaign target."""
        return self._target_calls[id(target)][0]

    def _compile(self, fn):
        def wrapped(*args, **kwargs):
            target = self.call("executor.compile", fn, *args, **kwargs)
            counter = [0]
            self._target_calls[id(target)] = counter
            target.fn = self._hot("executor.target", target.fn, counter)
            return target

        return wrapped

    def _trim(self, fn):
        def wrapped(c, seq):
            before = c.execs
            try:
                return self.call("fuzzer.trim", fn, c, seq)
            finally:
                self.counts["fuzzer.trim_execs"] += c.execs - before

        return wrapped

    def _oracle(self, fn):
        def wrapped(*args, **kwargs):
            result = self.call("oracle.bfs", fn, *args, **kwargs)
            self.counts["oracle.states"] += result.explored_states
            return result

        return wrapped

    def _cli_main(self, fn):
        def wrapped(argv=None):
            return self.call(f"cli.{argv[0]}", fn, argv)

        return wrapped

    def _patches(self):
        fz, cl, ex = reachfuzz.fuzzer, reachfuzz.cli, reachfuzz.executor
        span = self._span
        return [
            (reachfuzz, "parse_program", span("frontend.parse", reachfuzz.parse_program)),
            (cl, "parse_program", span("frontend.parse", cl.parse_program)),
            (fz, "build_cfg", span("cfg.build", fz.build_cfg)),
            (fz, "assign_block_tags", span("cfg.build", fz.assign_block_tags)),
            (cl, "build_cfg", span("cfg.build", cl.build_cfg)),
            (cl, "assign_block_tags", span("cfg.build", cl.assign_block_tags)),
            (fz, "select_instrumentation", span("instrument.select", fz.select_instrumentation)),
            (cl, "select_instrumentation", span("instrument.select", cl.select_instrumentation)),
            (fz, "analyze", span("interval.analyze", fz.analyze)),
            # campaign targets get a counting wrapper on fn; targets that
            # `executor.run` compiles for the CLI are timed only
            (fz, "compile_target", self._compile(fz.compile_target)),
            (ex, "compile_target", span("executor.compile", ex.compile_target)),
            (fz, "mutate", self._hot("fuzzer.mutate", fz.mutate)),
            (fz, "trim", self._trim(fz.trim)),
            (reachfuzz, "init_campaign", span("fuzzer.init", reachfuzz.init_campaign)),
            (reachfuzz, "fuzz_loop", span("fuzzer.loop", reachfuzz.fuzz_loop)),
            (reachfuzz, "write_outputs", span("fuzzer.write", reachfuzz.write_outputs)),
            (reachfuzz, "bfs_reachability", self._oracle(reachfuzz.bfs_reachability)),
            (cl, "bfs_reachability", self._oracle(cl.bfs_reachability)),
            (cl, "main", self._cli_main(cl.main)),
        ]

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    # --- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int, speed: float) -> "dict[str, float]":
        """Per-layer figures, per traced round. Seconds are multiplied by
        `speed`, the run's reference pass time over its measured one, to
        put them in the same reference seconds as the clock's."""
        t, s, n, k = self.total_s, self.self_s, self.calls, self.counts
        seconds = {
            "frontend.parse_s": t["frontend.parse"],
            "cfg.build_s": t["cfg.build"],
            "instrument.select_s": t["instrument.select"],
            "interval.analyze_s": t["interval.analyze"],
            "executor.compile_s": t["executor.compile"],
            "executor.target_s": t["executor.target"],
            "fuzzer.mutate_s": t["fuzzer.mutate"],
            "fuzzer.loop_self_s": s["fuzzer.loop"],
            "fuzzer.trim_s": s["fuzzer.trim"],
            "fuzzer.write_s": t["fuzzer.write"],
            "cli.report_s": t["cli.report"],
            "oracle.bfs_s": t["oracle.bfs"],
        }
        counts = {
            "cfg.paths": k["cfg.paths"],
            "instrument.probes": k["instrument.probes"],
            "executor.target_calls": n["executor.target"],
            "executor.key_cache_entries": k["executor.key_cache_entries"],
            "executor.state_index_collisions": k["executor.state_index_collisions"],
            "fuzzer.trim_execs": k["fuzzer.trim_execs"],
            "fuzzer.overshoot_execs": k["fuzzer.overshoot_execs"],
            "oracle.states": k["oracle.states"],
        }
        out = {name: value * speed / rounds for name, value in seconds.items()}
        out.update((name, value / rounds) for name, value in counts.items())
        bfs_s = out["oracle.bfs_s"]
        out["oracle.states_per_s"] = out["oracle.states"] / bfs_s if bfs_s else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
