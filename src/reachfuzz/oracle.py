"""Exhaustive breadth-first reachability over the reactive state space.

Ground truth for small programs: states are exact global valuations,
and transitions come from the same code generator as the campaign
target. The expander cuts the alphabet into input classes and folds the
step body once per class, and one generated call expands a whole BFS
level, unpacking each state once; a class body copies only the globals
it can assign. Only the level being expanded is held as valuation tuples; the
visited set and the earlier levels hold one int key per state. A key is
a mixed-radix number with one digit per global, the global's offset in
interval.inductive_box's box, which holds every reachable valuation. So
keys are a bijection on the reachable states: collision-free, unlike
the fuzzer's hashed maps. Each level lists the keys of its new states
and, at the same index, the key of the state each was first reached
from. Witnesses are rebuilt afterwards by re-expanding those parents,
decoded from their keys, and BFS order makes every one a shortest one.
Caps turn exhaustion into an honest complete=False instead of an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .executor import compile_expand, pack_key, unpack_key
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

    seen is the set of the keys of the valuations met so far (see the
    module docstring). Each level keeps two parallel lists: the keys of
    its new states, and at the same index the key of the state each was
    first reached from, the only memory kept per state besides seen; the
    next frontier's valuations are dropped once it is expanded. Each
    error id keeps the first (key, symbol) that reached it in BFS order,
    and its witness is rebuilt by walking those lists back to the
    initial state. Rejected steps are dead ends. complete is True iff the
    frontier was exhausted under both caps with no expansion skipped.
    ValueError refuses a state_cap below 1 or a negative depth_cap.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap is below 1 ({state_cap})")
    if depth_cap < 0:
        raise ValueError(f"depth_cap is negative ({depth_cap})")
    expand, classes, digits = compile_expand(program)
    error_ids = list_error_ids(program)
    initial = program.initial_values()
    start = pack_key(initial, digits)

    seen = {start}
    frontier = [initial]
    levels = [([start], [None])]  # per level: (keys, their parents' keys)
    found: dict = {}  # error id -> (key, symbol)
    found_ends = []  # per expanded level: len(found) after it
    complete = True
    while frontier:
        if len(levels) > depth_cap:
            complete = False
            break
        states: list = []
        keys: list = []
        parents: list = []
        if expand(
            frontier, levels[-1][0], seen, states.append, keys.append, parents.append,
            found, state_cap, classes,
        ):
            complete = False
        found_ends.append(len(found))
        levels.append((keys, parents))
        frontier = states

    if not set(found) <= error_ids:
        raise RuntimeError(f"undeclared error ids {sorted(set(found) - error_ids)}")

    none = ((),) * len(classes)

    @cache
    def hop(parent: int, child: int) -> int:
        """The smallest symbol that steps the state keyed parent to the
        one keyed child: the one BFS took when child was first seen. The
        symbols are tried in the expander's order, which ascends: a
        merged body's symbol is the smallest of the classes it stands
        for."""
        values = (unpack_key(parent, digits),)
        for j, symbols in enumerate(classes):
            for sym in symbols:
                reached: list = []
                expand(
                    values, (parent,), set(), [].append, reached.append, [].append, {}, 1,
                    none[:j] + ((sym,),) + none[j + 1:],
                )
                if reached == [child]:
                    return sym
        raise AssertionError("parent does not step to child")

    reachable: dict = {}
    level = 0
    for i, (k, (key, sym)) in enumerate(found.items()):
        while found_ends[level] <= i:
            level += 1
        symbols = [sym]
        for keys, parents in reversed(levels[1:level + 1]):
            parent = parents[keys.index(key)]
            symbols.append(hop(parent, key))
            key = parent
        reachable[k] = tuple(reversed(symbols))
    return OracleResult(
        reachable=reachable,
        explored_states=len(seen),
        complete=complete,
    )
