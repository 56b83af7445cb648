"""Basic-block control-flow graph over a step body.

The step body has no loops, so every CFG here is a DAG rooted at the entry
block. Join blocks are materialized explicitly (possibly empty) so that a
branch-pair is always a plain edge of the graph. Each block can carry a
16-bit coverage tag used to index the branch-pair hit map.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .frontend import (
    Assign,
    Emit,
    ErrorStmt,
    Expr,
    If,
    Program,
    Reject,
    Stmt,
    format_expr,
    format_stmt_inline,
)

TAG_SPACE = 1 << 16


class CapacityError(Exception):
    """A valid program beyond a fixed capacity: the 16-bit tag space, or
    the nesting depth that generated Python code can have."""


class ExitKind(enum.Enum):
    OK = "ok"
    ERROR = "error"
    INVALID_INPUT = "invalid_input"


@dataclass(frozen=True)
class Jump:
    target: int


@dataclass(frozen=True)
class Branch:
    cond: Expr
    then_id: int
    else_id: int
    # Block where live paths of this branch reconverge; None when both arms
    # leave the step. Structural hint, not a successor.
    join_id: "int | None" = field(default=None, compare=False)


@dataclass(frozen=True)
class Exit:
    kind: ExitKind
    error_id: "int | None" = None


@dataclass
class BasicBlock:
    id: int
    stmts: "list[Stmt]"  # Assign and Emit only; control lives in terminators
    term: "Jump | Branch | Exit | None" = None

    def successors(self) -> "tuple[int, ...]":
        if isinstance(self.term, Jump):
            return (self.term.target,)
        if isinstance(self.term, Branch):
            # A branch with two empty arms targets the join twice; collapse
            # it so path enumeration never yields duplicate node sequences.
            if self.term.then_id == self.term.else_id:
                return (self.term.then_id,)
            return (self.term.then_id, self.term.else_id)
        return ()


@dataclass
class Cfg:
    blocks: "list[BasicBlock]"  # block id == list index
    entry: int
    tags: "dict[int, int] | None" = None

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def edges(self) -> "set[tuple[int, int]]":
        return {
            (b.id, succ) for b in self.blocks for succ in b.successors()
        }


def build_cfg(program: Program) -> Cfg:
    """Lower the step body to a DAG of basic blocks.

    Walking the result visits the same statement sequence as direct AST
    interpretation for every (state, input) pair. Statements after an
    unconditional `error`/`reject` are unreachable and dropped.
    """
    blocks: "list[BasicBlock]" = []

    def new_block() -> BasicBlock:
        b = BasicBlock(id=len(blocks), stmts=[])
        blocks.append(b)
        return b

    def lower(stmts, cur: BasicBlock) -> "BasicBlock | None":
        """Lower stmts into cur; returns the fall-through block or None if
        every path left the step."""
        for st in stmts:
            if isinstance(st, (Assign, Emit)):
                cur.stmts.append(st)
            elif isinstance(st, ErrorStmt):
                cur.term = Exit(ExitKind.ERROR, st.error_id)
                return None
            elif isinstance(st, Reject):
                cur.term = Exit(ExitKind.INVALID_INPUT)
                return None
            elif isinstance(st, If):
                then_b = new_block()
                else_b = new_block() if st.orelse else None
                then_end = lower(st.then, then_b)
                else_end = lower(st.orelse, else_b) if else_b else None
                falls_through = (
                    then_end is not None or else_end is not None or else_b is None
                )
                join = new_block() if falls_through else None
                cur.term = Branch(
                    st.cond,
                    then_b.id,
                    else_b.id if else_b else join.id,
                    join_id=join.id if join else None,
                )
                if then_end is not None:
                    then_end.term = Jump(join.id)
                if else_end is not None:
                    else_end.term = Jump(join.id)
                if join is None:
                    return None
                cur = join
            else:
                raise TypeError(f"unexpected statement {st!r}")
        return cur

    entry = new_block()
    end = lower(program.body, entry)
    if end is not None:
        if end.stmts:
            exit_b = new_block()
            exit_b.term = Exit(ExitKind.OK)
            end.term = Jump(exit_b.id)
        else:
            end.term = Exit(ExitKind.OK)
    return Cfg(blocks=blocks, entry=entry.id)


def assign_block_tags(g: Cfg, seed: int) -> Cfg:
    """Attach distinct pseudo-random 16-bit tags to every block.

    Rejection sampling from a seeded generator: deterministic for (g, seed),
    uniform spread over the tag space.
    """
    if len(g.blocks) > TAG_SPACE:
        raise CapacityError(
            f"{len(g.blocks)} blocks exceed the {TAG_SPACE}-entry tag space"
        )
    rng = random.Random(seed)
    used = set()
    tags = {}
    for b in g.blocks:
        t = rng.randrange(TAG_SPACE)
        while t in used:
            t = rng.randrange(TAG_SPACE)
        used.add(t)
        tags[b.id] = t
    return replace(g, tags=tags)


def topological_order(g: Cfg) -> "list[int]":
    """Topological sort of block ids; raises ValueError on a cycle."""
    indeg = {b.id: 0 for b in g.blocks}
    for b in g.blocks:
        for s in b.successors():
            indeg[s] += 1
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for s in g.blocks[n].successors():
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(order) != len(g.blocks):
        raise ValueError("graph has a cycle")
    return order


def count_paths(g: Cfg) -> int:
    """Number of entry-to-exit paths, by DAG dynamic programming."""
    counts: "dict[int, int]" = {}
    for n in reversed(topological_order(g)):
        succs = g.blocks[n].successors()
        counts[n] = 1 if not succs else sum(counts[s] for s in succs)
    return counts[g.entry]


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


def dump_cfg(g: Cfg) -> str:
    """Line-oriented text dump: `block <id> [tag] : ...` then `edge <src> <dst>`."""
    lines = []
    for b in g.blocks:
        tag = f" [{g.tags[b.id]}]" if g.tags else ""
        parts = [format_stmt_inline(st) for st in b.stmts]
        if isinstance(b.term, Branch):
            parts.append(
                f"branch ({format_expr(b.term.cond)}) -> {b.term.then_id} | {b.term.else_id}"
            )
        elif isinstance(b.term, Jump):
            parts.append(f"jump -> {b.term.target}")
        elif isinstance(b.term, Exit):
            if b.term.kind is ExitKind.ERROR:
                parts.append(f"exit error {b.term.error_id}")
            else:
                parts.append(f"exit {b.term.kind.value}")
        lines.append(f"block {b.id}{tag} : " + " ".join(parts))
    for src, dst in sorted(g.edges()):
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"
