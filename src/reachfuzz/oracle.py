"""Exhaustive breadth-first reachability over the reactive state space.

Ground truth for small programs: states are exact global valuations
(collision-free, unlike the fuzzer's hashed maps), and transitions come
from the same code generator as the campaign target. The expander cuts
the alphabet into input classes and folds the step body once per class,
and one generated call expands a whole BFS level. Each state keeps one
reference, to the state it was first reached from. Witnesses are rebuilt
afterwards by re-expanding those parents, and BFS order makes every one
a shortest one. Caps turn exhaustion into an honest complete=False
instead of an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .executor import compile_expand
from .frontend import Program, list_error_ids

DEFAULT_STATE_CAP = 10**6
DEFAULT_DEPTH_CAP = 10**4


@dataclass(frozen=True)
class OracleResult:
    reachable: dict  # error id -> shortest witness (tuple of symbols)
    explored_states: int
    complete: bool


def bfs_reachability(
    program: Program,
    state_cap: int = DEFAULT_STATE_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> OracleResult:
    """Explore every reachable valuation, level by level, expanding each
    level by every alphabet symbol in one generated call.

    parents maps each state to the state it was first reached from (None
    for the initial one), the only memory kept per state. Each error id
    keeps the first (state, symbol) that reached it in BFS order, and its
    witness is rebuilt by walking parents back to the initial state.
    Rejected steps are dead ends. complete is True iff the frontier was
    exhausted under both caps with no expansion skipped.
    """
    expand, classes = compile_expand(program)
    error_ids = list_error_ids(program)
    initial = program.initial_values()

    parents: dict = {initial: None}  # doubles as the visited set
    found: dict = {}  # error id -> (state, symbol)
    frontier = [initial]
    complete = True
    level = 0
    while frontier:
        if level >= depth_cap:
            complete = False
            break
        level_states: list = []
        if expand(frontier, parents, level_states.append, found, state_cap, classes):
            complete = False
        frontier = level_states
        level += 1

    if not set(found) <= error_ids:
        raise RuntimeError(f"undeclared error ids {sorted(set(found) - error_ids)}")

    none = ((),) * len(classes)

    def hop(parent, child) -> int:
        """The smallest symbol that steps parent to child: the one BFS
        took when child was first seen. The symbols are tried in the
        expander's order, which ascends: a merged body's symbol is the
        smallest of the classes it stands for."""
        for j, symbols in enumerate(classes):
            for sym in symbols:
                reached: list = []
                expand((parent,), {}, reached.append, {}, 1, none[:j] + ((sym,),) + none[j + 1:])
                if reached == [child]:
                    return sym
        raise AssertionError("parent does not step to child")

    reachable: dict = {}
    for k, (state, sym) in found.items():
        symbols = [sym]
        parent = parents[state]
        while parent is not None:
            symbols.append(hop(parent, state))
            state, parent = parent, parents[parent]
        reachable[k] = tuple(reversed(symbols))
    return OracleResult(
        reachable=reachable,
        explored_states=len(parents),
        complete=complete,
    )
