from __future__ import annotations

import itertools
from collections import deque

import pytest

import reachfuzz.oracle
from reachfuzz.cfg import assign_block_tags, build_cfg
from reachfuzz.executor import compile_expand, compile_step, run
from reachfuzz.frontend import list_error_ids, parse_or_raise, reference_step
from reachfuzz.gen import generate_program
from reachfuzz.instrument import select_instrumentation
from reachfuzz.oracle import OracleResult, bfs_reachability

TOGGLE = (
    "inputs 1..2; var s = 0; step(in){ "
    "if (s == 1) { if (in == 2) { error 7; } } "
    "if (in == 1) { s = 1; } }"
)


# reject, emit, i64 wrap-around, no globals, and a deep counter
EDGE_PROGRAMS = (
    TOGGLE,
    "inputs 1..2; var s = 0; step(in){ "
    "if (in == 2) { reject; } if (s == 1) { error 3; } s = 1; }",
    "inputs 1..3; step(in){ if (in == 2) { error 1; } emit 5; }",
    "inputs 1..2; var a = 1; var b = 0; step(in){ a = a * 65536 + in; "
    "if (a < 0) { error 2; } b = b + 1; emit 3; if (b > 5) { reject; } }",
    "inputs 1..2; var c = 0; step(in){ "
    "if (c < 50) { c = c + 1; } if (c == 50) { error 1; } }",
)


def reference_bfs(program, state_cap: int, depth_cap: int) -> OracleResult:
    """The oracle as a queue of states, one compiled step per (state,
    symbol) and a (parent, symbol) edge and a depth per state."""
    step = compile_step(program)
    alphabet = tuple(program.alphabet())
    error_ids = list_error_ids(program)
    initial = program.initial_values()

    parents: dict = {initial: None}
    depth: dict = {initial: 0}
    frontier = deque([initial])
    reachable: dict = {}
    complete = True

    def backtrack(state, last_symbol):
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

    assert set(reachable) <= error_ids
    return OracleResult(reachable=reachable, explored_states=len(parents), complete=complete)


def small_programs():
    yield from (parse_or_raise(text) for text in EDGE_PROGRAMS)
    for seed in range(8):
        yield generate_program(vars=2, domain=3, alphabet=3, errors=4, seed=seed)
    for seed in range(4):
        yield generate_program(vars=4, domain=8, alphabet=10, seed=seed)


def replay(program, seq):
    g = assign_block_tags(build_cfg(program), 0)
    plan = select_instrumentation(g)
    return run(program, g, plan, seq)


def test_error_free_program_complete_and_empty():
    p = parse_or_raise("inputs 1..3; var a = 0; step(in){ a = in; }")
    res = bfs_reachability(p)
    assert res.reachable == {}
    assert res.complete is True
    assert res.explored_states == 3 + 1


def test_two_step_toggle_witness():
    p = parse_or_raise(TOGGLE)
    res = bfs_reachability(p)
    assert res.complete is True
    assert set(res.reachable) == {7}
    assert res.reachable[7] == (1, 2)


def test_witnesses_replay_to_their_error():
    for seed in range(6):
        p = generate_program(vars=2, domain=3, alphabet=3, errors=4, seed=seed)
        res = bfs_reachability(p, state_cap=20000)
        for k, witness in res.reachable.items():
            r = replay(p, witness)
            assert r.status == "error"
            assert r.error_id == k


def test_witnesses_are_shortest():
    p = parse_or_raise(TOGGLE)
    wit = bfs_reachability(p).reachable[7]
    alphabet = range(p.alphabet_lo, p.alphabet_hi + 1)
    for n in range(len(wit)):
        for seq in itertools.product(alphabet, repeat=n):
            r = replay(p, list(seq))
            assert not (r.status == "error" and r.error_id == 7)


def test_witness_minimality_on_generated():
    checked = 0
    for seed in range(10):
        p = generate_program(vars=2, domain=2, alphabet=2, errors=3, seed=seed)
        res = bfs_reachability(p, state_cap=20000)
        if not res.complete:
            continue
        alphabet = range(p.alphabet_lo, p.alphabet_hi + 1)
        for k, wit in res.reachable.items():
            if len(wit) > 8:
                continue
            shorter = False
            for n in range(len(wit)):
                for seq in itertools.product(alphabet, repeat=n):
                    r = replay(p, list(seq))
                    if r.status == "error" and r.error_id == k:
                        shorter = True
                        break
                if shorter:
                    break
            assert not shorter, (seed, k, wit)
            checked += 1
    assert checked >= 3


def test_state_cap_marks_incomplete():
    p = parse_or_raise("inputs 1..2; var c = 0; step(in){ c = c + 1; }")
    res = bfs_reachability(p, state_cap=50)
    assert res.complete is False
    assert res.explored_states <= 51


def test_depth_cap_marks_incomplete():
    p = parse_or_raise(
        "inputs 1..2; var c = 0; step(in){ "
        "if (c < 50) { c = c + 1; } if (c == 50) { error 1; } }"
    )
    res = bfs_reachability(p, depth_cap=10)
    assert res.complete is False
    assert 1 not in res.reachable
    full = bfs_reachability(p)
    assert full.complete is True
    assert len(full.reachable[1]) == 50


def test_invalid_steps_are_not_transitions():
    p = parse_or_raise(
        "inputs 1..2; var s = 0; step(in){ "
        "if (in == 2) { reject; } "
        "if (s == 1) { error 3; } s = 1; }"
    )
    res = bfs_reachability(p)
    assert res.complete is True
    assert res.reachable[3] == (1, 1)
    r = replay(p, [2, 1, 1])
    assert r.status == "invalid_input"


def test_explored_states_counts_distinct_valuations():
    p = parse_or_raise("inputs 1..2; var a = 0; var b = 0; step(in){ a = in; b = a; }")
    res = bfs_reachability(p)
    assert res.complete is True
    assert res.explored_states == 3


@pytest.mark.parametrize("state_cap", [1, 7, 50, 10**6])
@pytest.mark.parametrize("depth_cap", [0, 1, 3, 10**4])
def test_bfs_matches_reference_bfs(state_cap, depth_cap):
    for p in small_programs():
        got = bfs_reachability(p, state_cap=state_cap, depth_cap=depth_cap)
        want = reference_bfs(p, state_cap, depth_cap)
        assert got == want
        assert list(got.reachable) == list(want.reachable)


def test_expander_matches_reference_step():
    """Every outcome of one expansion, over every reachable state and
    symbol, against the AST interpreter."""
    checked = 0
    for p in small_programs():
        expand = compile_expand(p)
        states = {p.initial_values()}
        todo = list(states)
        while todo:
            values = todo.pop()
            for sym in p.alphabet():
                reached: list = []
                seen: dict = {}
                found: dict = {}
                assert expand(values, (sym,), seen, reached.append, found, 1) is False
                status, err, nxt, _outs = reference_step(p, values, sym)
                if status == "error":
                    assert (found, reached, seen) == ({err: (values, sym)}, [], {})
                elif status == "invalid":
                    assert (found, reached, seen) == ({}, [], {})
                else:
                    nxt = tuple(nxt)
                    assert (found, reached, seen) == ({}, [nxt], {nxt: values})
                    if nxt not in states:
                        states.add(nxt)
                        todo.append(nxt)
                checked += 1
    assert checked > 1000


def test_expander_reports_a_refused_state():
    p = parse_or_raise("inputs 1..2; var a = 0; step(in){ a = in; }")
    expand = compile_expand(p)
    reached: list = []
    seen = {(0,): None, (1,): (0,)}
    # (1,) is known, (2,) is new and the cap refuses it
    assert expand((0,), (1, 2), seen, reached.append, {}, 2) is True
    assert reached == [] and len(seen) == 2
    assert expand((0,), (1, 2), seen, reached.append, {}, 3) is False
    assert reached == [(2,)] and seen[(2,)] == (0,)


def test_undeclared_error_id_raises(monkeypatch):
    p = parse_or_raise(TOGGLE)

    def fake_compile_expand(program):
        def expand(values, symbols, seen, append, found, cap):
            found.setdefault(99, (values, symbols[0]))
            return False

        return expand

    monkeypatch.setattr(reachfuzz.oracle, "compile_expand", fake_compile_expand)
    with pytest.raises(RuntimeError, match=r"undeclared error ids \[99\]"):
        bfs_reachability(p)
