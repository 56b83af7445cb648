"""Runs for the tests: of a compiled campaign target on fresh buffers,
and of the AST interpreter, the independent judge."""

from __future__ import annotations

from typing import NamedTuple

from reachfuzz.executor import MAP_SIZE
from reachfuzz.frontend import reference_step


class Run(NamedTuple):
    status: str
    error_id: "int | None"
    steps: int
    counts: bytearray  # the branch map, hit counts clamped at 255
    touched: "tuple[int, ...]"  # the nonzero indices of counts, first touch first
    entries: "tuple[tuple[int, int, int], ...]"  # a state entry per completed step

    @property
    def state_keys(self) -> "tuple[int, ...]":
        return tuple(key for key, _, _ in self.entries)


def run_target(target, seq) -> Run:
    """Run target.fn on seq with fresh buffers; GlobalMaps.merge takes
    (bytearray(run.counts), run.touched, run.entries)."""
    hits, touched, entries = [0] * MAP_SIZE, [], []
    status, error_id = target.fn(seq, hits, touched, entries, target.key_cache)
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
