"""Minimal node instrumentation as a path differentiation problem.

A set S of blocks is adequate when the projection onto S of any
entry-to-exit path identifies that path uniquely, so hit maps recorded at
S-blocks only lose no path information.

For a CFG made by `build_cfg`, the entry block plus the then-block of
every branch is an adequate set that no then-block can leave. The rule
rests on the lowering: a branch's then-block is always a fresh block,
made before the blocks of its arms and of its join, and nothing but that
branch leads into it.

- Adequate: two distinct paths first part at some branch. Only one of
  them enters its then-block, and the other cannot enter it later,
  because only that branch leads into it. So their projections differ.
- Locally minimal: drop a then-block t. Take two paths with the same
  prefix up to t's branch, one entering t and one its else side, that
  take the else side at every later branch. After the branch neither
  meets a probe, so their projections are equal.
- It is the set that a greedy removal from the entry, the joins and the
  then-blocks, in descending id order, ends at. Adding probes never
  merges projections, so every block outside the rule's set is
  removable. The blocks that could stand in for a then-block t lie
  inside t's arms or after its join, all with higher ids than t, so the
  greedy removes them before it tries t.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import Branch, Cfg


@dataclass(frozen=True)
class InstrumentationPlan:
    instrumented: frozenset
    adequacy_certificate: str


def select_instrumentation(g: Cfg) -> InstrumentationPlan:
    """Probe the entry and the then-block of every branch of g, which must
    come from `build_cfg` (the module docstring gives why that set is
    adequate and locally minimal)."""
    then_ids = [b.term.then_id for b in g.blocks if isinstance(b.term, Branch)]
    return InstrumentationPlan(
        instrumented=frozenset([g.entry, *then_ids]),
        adequacy_certificate=f"entry and the then-block of each of {len(then_ids)} branches",
    )
