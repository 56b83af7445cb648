from __future__ import annotations

import itertools

import hypothesis.strategies as st
from hypothesis import assume, given, settings
from runs import generate_program, iter_paths, project_trace

from reachfuzz.cfg import Branch, build_cfg, count_paths
from reachfuzz.frontend import parse_or_raise
from reachfuzz.instrument import select_instrumentation

DIAMOND = "inputs 1..5; var a = 0; step(in){ if (in == 3) { a = 2; } else { a = 1; } }"
TWO_DIAMONDS = (
    "inputs 1..5; var a = 0; var b = 0; step(in){ "
    "if (in == 1) { a = 1; } else { a = 2; } "
    "if (in == 2) { b = 1; } else { b = 2; } }"
)
CHAIN = "inputs 1..2; var a = 0; step(in){ a = 1; a = 2; }"


def diamond_parts(g):
    entry = g.entry
    then_id = g.blocks[entry].term.then_id
    else_id = g.blocks[entry].term.else_id
    return entry, then_id, else_id


def adequate_over(paths, s):
    """Reference adequacy check: no two of the given entry-to-exit paths
    have the same projection onto s."""
    seen = set()
    for path in paths:
        proj = project_trace(path, s)
        if proj in seen:
            return False
        seen.add(proj)
    return True


def test_diamond_entry_only_not_adequate():
    g = build_cfg(parse_or_raise(DIAMOND))
    assert adequate_over(iter_paths(g), frozenset({g.entry})) is False


def test_diamond_entry_plus_arm_adequate():
    g = build_cfg(parse_or_raise(DIAMOND))
    entry, then_id, _ = diamond_parts(g)
    assert adequate_over(iter_paths(g), frozenset({entry, then_id})) is True


def test_chain_entry_only_adequate():
    g = build_cfg(parse_or_raise(CHAIN))
    assert adequate_over(iter_paths(g), frozenset({g.entry})) is True


def test_select_diamond_two_blocks():
    g = build_cfg(parse_or_raise(DIAMOND))
    plan = select_instrumentation(g)
    assert len(plan.instrumented) == 2
    assert g.entry in plan.instrumented


def test_select_two_sequential_diamonds_three_blocks():
    g = build_cfg(parse_or_raise(TWO_DIAMONDS))
    plan = select_instrumentation(g)
    assert len(plan.instrumented) == 3
    assert g.entry in plan.instrumented


def test_select_chain_entry_only():
    g = build_cfg(parse_or_raise(CHAIN))
    plan = select_instrumentation(g)
    assert plan.instrumented == frozenset({g.entry})


def test_project_trace_examples():
    assert project_trace((0, 1, 3, 7), frozenset({1})) == (1,)
    assert project_trace((0, 1, 3, 7), frozenset({0, 3, 7})) == (0, 3, 7)
    assert project_trace((0, 1, 3, 7), frozenset()) == ()


def paths_projecting_to(g, s, projection):
    """Every entry-to-exit path of g whose projection onto s is projection."""
    return [path for path in iter_paths(g) if project_trace(path, s) == tuple(projection)]


def test_reconstruct_diamond_paths():
    g = build_cfg(parse_or_raise(DIAMOND))
    entry, then_id, else_id = diamond_parts(g)
    s = frozenset({entry, then_id})
    [full_then] = paths_projecting_to(g, s, (entry, then_id))
    [full_else] = paths_projecting_to(g, s, (entry,))
    assert then_id in full_then and then_id not in full_else
    assert else_id in full_else and else_id not in full_then
    assert {full_then, full_else} == set(iter_paths(g))


def test_reconstruct_invalid_projection():
    g = build_cfg(parse_or_raise(DIAMOND))
    entry, then_id, _ = diamond_parts(g)
    s = frozenset({entry, then_id})
    assert paths_projecting_to(g, s, (then_id, entry)) == []
    assert paths_projecting_to(g, s, (entry, then_id, then_id)) == []


def test_reconstruct_ambiguous_projection():
    g = build_cfg(parse_or_raise(DIAMOND))
    s = frozenset({g.entry})
    assert len(paths_projecting_to(g, s, (g.entry,))) == 2
    assert not adequate_over(iter_paths(g), s)


def test_certificate_reports_branch_count():
    g = build_cfg(parse_or_raise(DIAMOND))
    plan = select_instrumentation(g)
    assert plan.adequacy_certificate == "entry and the then-block of each of 1 branches"


def greedy_by_enumeration(g):
    """Reference plan: from the entry, the joins and the then-blocks,
    drop blocks in descending id order while the enumeration check holds."""
    paths = list(iter_paths(g))
    indeg = {b.id: 0 for b in g.blocks}
    for b in g.blocks:
        for succ in b.successors():
            indeg[succ] += 1
    s = {g.entry}
    s.update(i for i, d in indeg.items() if d >= 2)
    s.update(b.term.then_id for b in g.blocks if isinstance(b.term, Branch))
    if not adequate_over(paths, s):
        s = {b.id for b in g.blocks}
    for node in sorted(s, reverse=True):
        if node == g.entry:
            continue
        s.discard(node)
        if not adequate_over(paths, s):
            s.add(node)
    return frozenset(s)


def test_select_matches_enumeration_greedy():
    for seed in range(50):
        g = build_cfg(generate_program(seed=seed))
        assert select_instrumentation(g).instrumented == greedy_by_enumeration(g), seed


_SIMPLE = st.sampled_from(["a = a + 1; ", "b = in; ", "emit 1; ", "error 1; ", "error 2; ", "reject; "])
_CONDS = st.sampled_from(["in == 1", "a < 2", "b != in"])


def _if_chains(body):
    """`if`, `if`/`else` and `else if` chains over the given arm bodies."""
    return st.builds(
        lambda arms, orelse: " else ".join(f"if ({c}) {{ {b}}}" for c, b in arms)
        + ("" if orelse is None else f" else {{ {orelse}}}")
        + " ",
        st.lists(st.tuples(_CONDS, body), min_size=1, max_size=4),
        st.none() | body,
    )


_BODIES = st.recursive(
    st.lists(_SIMPLE, max_size=3).map("".join),
    lambda body: st.lists(_SIMPLE | _if_chains(body), max_size=4).map("".join),
    max_leaves=12,
)
# empty arms, error/reject in one or both arms, else-if chains and
# statements after error
_STEP_BODIES = st.builds(
    lambda chains, rest: "".join(chains) + rest,
    st.lists(_if_chains(_BODIES), min_size=1, max_size=2),
    _BODIES,
)


@given(_STEP_BODIES)
@settings(max_examples=300, deadline=None)
def test_rule_matches_enumeration_greedy_on_structured_programs(body):
    g = build_cfg(parse_or_raise(f"inputs 1..3; var a = 0; var b = 0; step(in){{ {body}}}"))
    assume(count_paths(g) <= 2000)
    assert select_instrumentation(g).instrumented == greedy_by_enumeration(g)


def brute_force_minimum(g):
    """Smallest adequate block subset by exhaustive search; entry always
    included to match the probe-at-entry execution model."""
    paths = list(iter_paths(g))
    rest = sorted(b.id for b in g.blocks if b.id != g.entry)
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            s = frozenset((g.entry,) + combo)
            if adequate_over(paths, s):
                return s
    raise AssertionError("full set must be adequate")


def small_programs():
    out = [
        parse_or_raise(DIAMOND),
        parse_or_raise(TWO_DIAMONDS),
        parse_or_raise(CHAIN),
        parse_or_raise(
            "inputs 1..3; var a = 0; step(in){ "
            "if (in == 1) { if (a == 0) { a = 1; } else { a = 2; } } }"
        ),
    ]
    for seed in range(8):
        p = generate_program(vars=2, depth=2, errors=2, seed=seed)
        if len(build_cfg(p).blocks) <= 10:
            out.append(p)
    return out


def test_greedy_matches_brute_force_on_small_graphs():
    checked = 0
    for program in small_programs():
        g = build_cfg(program)
        if len(g.blocks) > 10:
            continue
        plan = select_instrumentation(g)
        best = brute_force_minimum(g)
        assert adequate_over(iter_paths(g), plan.instrumented) is True
        assert len(plan.instrumented) == len(best)
        checked += 1
    assert checked >= 4


def test_local_minimality_on_generated():
    for seed in range(5):
        g = build_cfg(generate_program(vars=3, depth=3, errors=4, seed=seed))
        plan = select_instrumentation(g)
        paths = list(iter_paths(g))
        for v in sorted(plan.instrumented):
            if v == g.entry:
                continue
            assert adequate_over(paths, plan.instrumented - {v}) is False


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_projection_round_trip_generated(seed):
    program = generate_program(vars=2, depth=2, errors=2, seed=seed)
    g = build_cfg(program)
    if count_paths(g) > 600:
        return
    plan = select_instrumentation(g)
    back: dict = {}
    for path in iter_paths(g):
        back.setdefault(project_trace(path, plan.instrumented), []).append(path)
    for path in iter_paths(g):
        assert back[project_trace(path, plan.instrumented)] == [path]


def test_projections_distinct_across_paths():
    for seed in range(4):
        g = build_cfg(generate_program(vars=2, depth=2, errors=2, seed=seed))
        if count_paths(g) > 600:
            continue
        plan = select_instrumentation(g)
        seen = {}
        for path in iter_paths(g):
            proj = project_trace(path, plan.instrumented)
            assert proj not in seen or seen[proj] == path
            seen[proj] = path
