"""Helpers for the tests: runs of a compiled campaign target on fresh
buffers and of the AST interpreter, the independent judge; generated
programs; and the entry-to-exit paths of a CFG with their projections."""

from __future__ import annotations

from typing import Iterator, NamedTuple

from reachfuzz.cfg import Cfg
from reachfuzz.executor import MAP_SIZE, load_snapshot
from reachfuzz.frontend import Program, parse_or_raise, reference_step
from reachfuzz.gen import generate_source


def generate_program(**params) -> Program:
    """generate_source(**params), parsed, so the result went through full
    validation."""
    return parse_or_raise(generate_source(**params))


def iter_paths(g: Cfg) -> Iterator["tuple[int, ...]"]:
    """Yield every entry-to-exit path as a tuple of block ids."""
    stack = [(g.entry, (g.entry,))]
    while stack:
        node, path = stack.pop()
        succs = g.blocks[node].successors()
        if not succs:
            yield path
        else:
            for s in reversed(succs):
                stack.append((s, path + (s,)))


def project_trace(trace, s) -> "tuple[int, ...]":
    """Order-preserving restriction of a block-id sequence to the set s."""
    return tuple(b for b in trace if b in s)


class Run(NamedTuple):
    status: "str | None"  # None: stopped outside allow
    error_id: "int | None"
    steps: int
    counts: bytearray  # the branch map, hit counts clamped at 255
    touched: "tuple[int, ...]"  # the nonzero indices of counts, first touch first
    entries: "tuple[tuple[int, int], ...]"  # a (key, index) state entry per completed step

    @property
    def state_keys(self) -> "tuple[int, ...]":
        return tuple(key for key, _ in self.entries)


def run_target(target, seq, snap=None, cut=-1, allow=None) -> Run:
    """Run target.fn on seq with fresh buffers; GlobalMaps.merge takes
    (bytearray(run.counts), run.touched, run.entries).

    snap, when given, is a snapshot list of target.fn ([] for the
    initial state): the run resumes from it over seq, the symbols after
    its steps, so the Run covers the whole input. With cut, the run moves
    snap on to its cut-th step. With allow, a set of state-map indices,
    the run stops (status None) on its first step outside it."""
    hits, touched, entries = [0] * MAP_SIZE, [], []
    start = load_snapshot(snap, hits, touched, entries)
    status, error_id = target.fn(
        seq, hits, touched, entries, target.key_cache, start, cut, snap, allow
    )
    counts = bytearray(MAP_SIZE)
    for i in touched:
        counts[i] = min(hits[i], 255)
    return Run(status, error_id, len(entries), counts, tuple(touched), tuple(entries))


def replay(program, seq) -> "tuple[str, int | None]":
    """Status and error id of the first step of seq that does not complete
    ("ok", None if all do), by the AST interpreter from the initial
    valuation."""
    values = program.initial_values()
    for sym in seq:
        status, error_id, values, _ = reference_step(program, values, sym)
        if status != "ok":
            return status, error_id
    return "ok", None
