from __future__ import annotations

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from reachfuzz.cfg import Branch, build_cfg, count_paths, iter_paths
from reachfuzz.frontend import parse_or_raise
from reachfuzz.gen import generate_program
from reachfuzz.instrument import is_adequate, project_trace, select_instrumentation

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


def test_diamond_entry_only_not_adequate():
    g = build_cfg(parse_or_raise(DIAMOND))
    assert is_adequate(g, frozenset({g.entry})) is False


def test_diamond_entry_plus_arm_adequate():
    g = build_cfg(parse_or_raise(DIAMOND))
    entry, then_id, _ = diamond_parts(g)
    assert is_adequate(g, frozenset({entry, then_id})) is True


def test_chain_entry_only_adequate():
    g = build_cfg(parse_or_raise(CHAIN))
    assert is_adequate(g, frozenset({g.entry})) is True


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
    assert not is_adequate(g, s)


def test_certificate_reports_path_count():
    g = build_cfg(parse_or_raise(DIAMOND))
    plan = select_instrumentation(g)
    assert plan.adequacy_certificate == "segment counts from 2 sources over 4 blocks"


def adequate_over(paths, s):
    """Reference adequacy check: no two of the listed entry-to-exit paths
    have the same projection onto s."""
    seen = set()
    for path in paths:
        proj = project_trace(path, s)
        if proj in seen:
            return False
        seen.add(proj)
    return True


def greedy_by_enumeration(g):
    """The greedy of select_instrumentation run over the reference check."""
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


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_adequate_matches_enumeration_on_random_subsets(data):
    seed = data.draw(st.integers(min_value=0, max_value=400), label="gen seed")
    depth = data.draw(st.integers(min_value=1, max_value=3), label="depth")
    g = build_cfg(generate_program(vars=2, depth=depth, errors=3, seed=seed))
    if count_paths(g) > 2000:
        return
    ids = [b.id for b in g.blocks]
    picked = set(data.draw(st.lists(st.sampled_from(ids), unique=True), label="picked"))
    # the complement of a short pick is a near-full set, mostly adequate
    s = picked if data.draw(st.booleans(), label="keep picked") else set(ids) - picked
    paths = list(iter_paths(g))
    for subset in (s | {g.entry}, s - {g.entry}):
        assert is_adequate(g, subset) is adequate_over(paths, subset), sorted(subset)


def test_select_matches_enumeration_greedy():
    for seed in range(50):
        g = build_cfg(generate_program(seed=seed))
        assert select_instrumentation(g).instrumented == greedy_by_enumeration(g), seed


def brute_force_minimum(g):
    """Smallest adequate block subset by exhaustive search; entry always
    included to match the probe-at-entry execution model."""
    rest = sorted(b.id for b in g.blocks if b.id != g.entry)
    for size in range(0, len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            s = frozenset((g.entry,) + combo)
            if is_adequate(g, s):
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
        assert is_adequate(g, plan.instrumented) is True
        assert len(plan.instrumented) == len(best)
        checked += 1
    assert checked >= 4


def test_local_minimality_on_generated():
    for seed in range(5):
        g = build_cfg(generate_program(vars=3, depth=3, errors=4, seed=seed))
        plan = select_instrumentation(g)
        for v in sorted(plan.instrumented):
            if v == g.entry:
                continue
            assert is_adequate(g, plan.instrumented - {v}) is False


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
