"""Basic-block control-flow graph over a step body.

The step body has no loops, so every CFG here is a DAG rooted at the entry
block. Join blocks are materialized explicitly (possibly empty) so that a
branch-pair is always a plain edge of the graph. Each block can carry a
16-bit coverage tag used to index the branch-pair hit map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

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
    kind: str  # "ok", "error" or "invalid_input", as reference_step says
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
    unconditional `error`/`reject` are unreachable and dropped. Every
    edge goes to a higher block id: a branch's arms and join, and a
    jump's target, are made after the block that leaves for them.
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
                cur.term = Exit("error", st.error_id)
                return None
            elif isinstance(st, Reject):
                cur.term = Exit("invalid_input")
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
            exit_b.term = Exit("ok")
            end.term = Jump(exit_b.id)
        else:
            end.term = Exit("ok")
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


def count_paths(g: Cfg) -> int:
    """Number of entry-to-exit paths, by DAG dynamic programming over the
    blocks in reverse id order, a reverse topological order of a CFG from
    build_cfg."""
    counts = [0] * len(g.blocks)
    for b in reversed(g.blocks):
        succs = b.successors()
        counts[b.id] = 1 if not succs else sum(counts[s] for s in succs)
    return counts[g.entry]


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
            if b.term.kind == "error":
                parts.append(f"exit error {b.term.error_id}")
            else:
                parts.append(f"exit {b.term.kind}")
        lines.append(f"block {b.id}{tag} : " + " ".join(parts))
    for src, dst in sorted(g.edges()):
        lines.append(f"edge {src} {dst}")
    return "\n".join(lines) + "\n"
