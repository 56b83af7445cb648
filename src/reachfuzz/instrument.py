"""Minimal node instrumentation as a path differentiation problem.

A set S of blocks is adequate when the projection onto S of any
entry-to-exit path identifies that path uniquely, so hit maps recorded at
S-blocks only lose no path information. Selection starts from a cheap
structural superset and greedily removes nodes while adequacy holds.

Adequacy is checked in polynomial time from segment counts. A segment is
a path from a source (the entry or a block of S) that stops at the first
S-block after its start, or at an exit. S is adequate iff, from every
source, each block of S ends at most one segment and the exits outside S
end at most one segment between them. Two paths with the same projection
split at their shared probes into segments, one pair of which must
differ; conversely, since every block is reachable from the entry and
reaches an exit, two such segments extend to two full paths with the same
projection. Counts are capped at 2 and propagated in topological order,
in the manner of Ball & Larus path profiling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cfg import Branch, Cfg, topological_order


@dataclass(frozen=True)
class InstrumentationPlan:
    instrumented: frozenset
    adequacy_certificate: str


def project_trace(trace, s) -> "tuple[int, ...]":
    """Order-preserving restriction of a block-id sequence to the set s."""
    return tuple(b for b in trace if b in s)


def _adequacy_check(g: Cfg):
    """Return adequate(s) for g; successor lists and the topological order
    are computed once and shared by every call. Every exit gets one
    virtual successor, the sink, which counts as a probe, so the exit
    condition becomes the probe condition at the sink."""
    sink = len(g.blocks)
    succs = [b.successors() or (sink,) for b in g.blocks]
    order = topological_order(g) + [sink]

    def adequate(s) -> bool:
        stops = {*s, sink}
        for w in {g.entry, *s}:
            count = {w: 1}  # segments from w reaching each block, capped at 2
            for u in order[order.index(w):]:
                c = count.get(u)
                if c is None:
                    continue
                if u != w and u in stops:
                    if c > 1:
                        return False
                else:
                    for v in succs[u]:
                        count[v] = 2 if v in count else c
        return True

    return adequate


def is_adequate(g: Cfg, s) -> bool:
    """Exact adequacy check: True iff no two distinct entry-to-exit paths
    project onto s identically. Polynomial in the size of g."""
    return _adequacy_check(g)(s)


def select_instrumentation(g: Cfg) -> InstrumentationPlan:
    """Choose a locally minimal adequate block set.

    Start from the entry block, every join (in-degree >= 2), and the then
    successor of every branch; fall back to all blocks if that misses.
    Then drop nodes one at a time in descending id order, keeping each
    removal that preserves adequacy. Removing any single remaining
    non-entry node breaks adequacy.
    """
    adequate = _adequacy_check(g)
    indeg = Counter(succ for b in g.blocks for succ in b.successors())
    s = {g.entry}
    s.update(i for i, d in indeg.items() if d >= 2)
    s.update(b.term.then_id for b in g.blocks if isinstance(b.term, Branch))
    if not adequate(s):
        s = {b.id for b in g.blocks}

    for node in sorted(s, reverse=True):
        if node == g.entry:
            continue
        s.discard(node)
        if not adequate(s):
            s.add(node)

    return InstrumentationPlan(
        instrumented=frozenset(s),
        adequacy_certificate=f"segment counts from {len(s)} sources over {len(g.blocks)} blocks",
    )

