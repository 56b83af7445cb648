from __future__ import annotations

import itertools

import pytest

import reachfuzz.oracle
from reachfuzz.cfg import assign_block_tags, build_cfg
from reachfuzz.executor import run
from reachfuzz.frontend import parse_or_raise
from reachfuzz.gen import generate_program
from reachfuzz.instrument import select_instrumentation
from reachfuzz.oracle import bfs_reachability

TOGGLE = (
    "inputs 1..2; var s = 0; step(in){ "
    "if (s == 1) { if (in == 2) { error 7; } } "
    "if (in == 1) { s = 1; } }"
)


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


def test_undeclared_error_id_raises(monkeypatch):
    p = parse_or_raise(TOGGLE)

    def fake_compile_step(program):
        return lambda values, symbol: (1, 99, values)

    monkeypatch.setattr(reachfuzz.oracle, "compile_step", fake_compile_step)
    with pytest.raises(RuntimeError, match=r"undeclared error ids \[99\]"):
        bfs_reachability(p)
