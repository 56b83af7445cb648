"""Exhaustive breadth-first reachability over the reactive state space.

Ground truth for small programs: states are exact global valuations
(collision-free, unlike the fuzzer's hashed maps), transitions come from
the same compiled step semantics the fuzzer executes, and BFS order
makes every recorded witness a shortest one. Caps turn exhaustion into
an honest complete=False instead of an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .executor import compile_step
from .frontend import Program, list_error_ids

DEFAULT_STATE_CAP = 10**6
DEFAULT_DEPTH_CAP = 10**4


@dataclass(frozen=True)
class OracleResult:
    reachable: dict  # error id -> shortest witness (tuple of symbols)
    explored_states: int
    complete: bool

    def witness(self, error_id: int) -> "tuple[int, ...] | None":
        return self.reachable.get(error_id)


def bfs_reachability(
    program: Program,
    state_cap: int = DEFAULT_STATE_CAP,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> OracleResult:
    """Explore every reachable valuation, expanding by every alphabet symbol.

    Witnesses are rebuilt by parent-edge backtracking, so memory stays at
    one (parent, symbol) reference per state. Rejected steps are dead
    ends. complete is True iff the frontier was exhausted under both caps
    with no expansion skipped.
    """
    step = compile_step(program)
    alphabet = tuple(program.alphabet())
    error_ids = list_error_ids(program)
    initial = program.initial_values()

    # parent map doubles as the visited set: state -> (parent, symbol)
    parents: dict = {initial: None}
    depth: dict = {initial: 0}
    frontier = deque([initial])
    reachable: dict = {}
    complete = True

    def backtrack(state, last_symbol) -> "tuple[int, ...]":
        symbols = [last_symbol]
        while True:
            edge = parents[state]
            if edge is None:
                break
            state, sym = edge
            symbols.append(sym)
        return tuple(reversed(symbols))

    while frontier:
        state = frontier.popleft()
        d = depth[state]
        if d >= depth_cap:
            complete = False
            continue
        for sym in alphabet:
            status, err, nxt = step(state, sym)
            if status == 1:
                if err not in reachable:
                    reachable[err] = backtrack(state, sym)
                continue
            if status != 0:
                continue
            if nxt in parents:
                continue
            if len(parents) >= state_cap:
                complete = False
                continue
            parents[nxt] = (state, sym)
            depth[nxt] = d + 1
            frontier.append(nxt)

    if not set(reachable) <= error_ids:
        raise RuntimeError(f"undeclared error ids {sorted(set(reachable) - error_ids)}")
    return OracleResult(
        reachable=reachable,
        explored_states=len(parents),
        complete=complete,
    )
