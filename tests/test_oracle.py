from __future__ import annotations

import itertools
import tracemalloc
from collections import deque

import pytest
from runs import generate_program, replay

import reachfuzz.oracle
from reachfuzz.executor import _ExprGen, _names, compile_expand, pack_key, unpack_key
from reachfuzz.frontend import list_error_ids, parse_or_raise, reference_step
from reachfuzz.fuzzer import fuzz_loop, init_campaign
from reachfuzz.interval import I64, TOP, Interval, inductive_box
from reachfuzz.oracle import OracleResult, bfs_reachability

TOGGLE = (
    "inputs 1..2; var s = 0; step(in){ "
    "if (s == 1) { if (in == 2) { error 7; } } "
    "if (in == 1) { s = 1; } }"
)


# reject, emit, i64 wrap-around, no globals, a deep counter and
# wrap-around past each end of the range
EDGE_PROGRAMS = (
    TOGGLE,
    "inputs 1..2; var s = 0; step(in){ "
    "if (in == 2) { reject; } if (s == 1) { error 3; } s = 1; }",
    "inputs 1..3; step(in){ if (in == 2) { error 1; } emit 5; }",
    "inputs 1..2; var a = 1; var b = 0; step(in){ a = a * 65536 + in; "
    "if (a < 0) { error 2; } b = b + 1; emit 3; if (b > 5) { reject; } }",
    "inputs 1..2; var c = 0; step(in){ "
    "if (c < 50) { c = c + 1; } if (c == 50) { error 1; } }",
    # a sum that wraps past the top, a difference that wraps past the
    # bottom
    "inputs 1..2; var a = 9223372036854775806; var b = -9223372036854775807; "
    "step(in){ a = a + 1; b = b - 1; if (in == 2) { a = a + 1; b = b - 1; } "
    "if (a < 0 && b > 0) { error 1; } "
    "if (a < 0) { a = 9223372036854775806; } if (b > 0) { b = -9223372036854775807; } }",
)

# input classes: every comparison operator with the literal on either
# side, && and || over input and state, input arithmetic, constants
# outside the alphabet, a negative alphabet, a wide alphabet with two
# constants, and a class whose every path rejects
CLASS_PROGRAMS = (
    "inputs 0..7; var a = 0; var b = 0; step(in){ "
    "if (in == 2) { a = 1; } if (in != 3) { b = 1 - b; } "
    "if (in < 4) { a = 2; } if (in <= 1) { b = 0; } "
    "if (in > 5) { if (a == 2) { error 1; } } if (in >= 6) { a = 0; } }",
    "inputs 0..7; var a = 0; var b = 0; step(in){ "
    "if (2 == in) { a = a + 1; } if (a > 3) { a = 0; } "
    "if (3 != in) { b = 0; } else { b = b + 1; } if (b > 2) { error 2; } "
    "if (4 < in) { if (a == 2) { error 1; } } if (1 >= in) { a = 3; } "
    "if (6 <= in) { b = 1; } if (5 > in) { if (a == 1) { error 3; } } "
    "if (0 >= in) { b = 2; } }",
    "inputs 1..4; var a = 0; var b = 0; step(in){ "
    "if (in == 1 && a == 0 || in == 2 && b == 1) { a = 1 - a; } "
    "if (a == 1 || in == 3) { b = 1 - b; } "
    "if (b == 1 && in == 4 && a == 1) { error 1; } "
    "if (!(in == 2) && a == 0) { b = 0; } }",
    "inputs 1..3; var a = 0; step(in){ a = a + in; if (a > 6) { a = a - 7; } "
    "if (in + 1 == 3) { if (a == 4) { error 1; } } if (in == a) { error 2; } }",
    "inputs -3..2; var a = 0; step(in){ "
    "if (in == 9) { error 1; } if (in < -5) { a = 5; } "
    "if (in == -2) { a = a + 1; } if (in > -10 && a > 2) { a = 0; } "
    "if (a == 2 && in == 2) { error 2; } if (in >= 100 || in == 0) { a = 0; } }",
    "inputs 1..4096; var a = 0; step(in){ "
    "if (in == 7) { a = a + 1; } if (in > 4000 && a == 2) { error 1; } "
    "if (a > 2) { a = 0; } }",
    "inputs 1..5; var a = 0; step(in){ "
    "if (in > 3) { reject; } if (in == 2) { a = 1 - a; } "
    "if (a == 1 && in == 1) { error 1; } }",
)

# two globals that leave the literal hull [0, 5] of the box's first
# guess (a reaches 6, b 18), so both fall back to I64
BOX_PROGRAMS = (
    "inputs 1..3; var a = 0; var b = 0; step(in){ "
    "if (a < 4) { a = a + in; } else { a = 0; } b = a * 3; if (b == 15) { error 1; } }",
)

# the copies of assigned globals: a class of three symbols that reads
# the input and assigns a global (each symbol must start from the state
# before the step), a global assigned in one arm of an if and read after
# the join, and a global read in a condition before its assignment and
# in another one after it
COPY_PROGRAMS = (
    "inputs 1..4; var a = 0; var b = 1; step(in){ "
    "if (in < 4) { a = a + in + b; if (a > 6) { a = a - 7; b = 1 - b; } } "
    "if (a == 5 && b == 0) { error 1; } }",
    "inputs 1..2; var a = 0; var b = 0; step(in){ "
    "if (b == 0) { a = a + 1; } if (a > 3) { a = 0; b = 1 - b; } "
    "if (a == 2 && b == 1) { error 1; } }",
    "inputs 1..3; var a = 0; step(in){ if (a == 2) { error 1; } "
    "if (in == 2) { a = a + 1; } if (a > 2) { a = 0; } if (a == 1 && in == 3) { error 2; } }",
)

# the generator shapes and seeds of the benchmark's family, deep-state
# and triage workloads
BENCHMARK_SHAPES = (
    (range(20), dict(vars=4, domain=8, alphabet=10)),
    (range(3, 13), dict(vars=8, domain=16, alphabet=10)),
    (range(1000, 1040), dict(vars=4, domain=8, alphabet=10, errors=20)),
)


def reference_bfs(program, state_cap: int, depth_cap: int) -> OracleResult:
    """The oracle as a queue of states, one AST-interpreted step per
    (state, symbol) and a (parent, symbol) edge and a depth per state."""
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
            status, err, nxt, _outs = reference_step(program, state, sym)
            if status == "error":
                if err not in reachable:
                    reachable[err] = backtrack(state, sym)
                continue
            if status != "ok":
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
    yield from (
        parse_or_raise(text) for text in EDGE_PROGRAMS + CLASS_PROGRAMS + COPY_PROGRAMS + BOX_PROGRAMS
    )
    for seed in range(8):
        yield generate_program(vars=2, domain=3, alphabet=3, errors=4, seed=seed)
    for seed in range(4):
        yield generate_program(vars=4, domain=8, alphabet=10, seed=seed)


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
            assert replay(p, witness) == ("error", k)


def test_witnesses_are_shortest():
    p = parse_or_raise(TOGGLE)
    wit = bfs_reachability(p).reachable[7]
    alphabet = range(p.alphabet_lo, p.alphabet_hi + 1)
    for n in range(len(wit)):
        for seq in itertools.product(alphabet, repeat=n):
            assert replay(p, seq) != ("error", 7)


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
                    if replay(p, seq) == ("error", k):
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


@pytest.mark.parametrize("caps", [dict(state_cap=0), dict(state_cap=-5), dict(depth_cap=-1)])
def test_meaningless_caps_are_refused(caps):
    p = parse_or_raise("inputs 1..2; var c = 0; step(in){ c = c + 1; }")
    with pytest.raises(ValueError, match="state_cap is below 1|depth_cap is negative"):
        bfs_reachability(p, **caps)


def test_invalid_steps_are_not_transitions():
    p = parse_or_raise(
        "inputs 1..2; var s = 0; step(in){ "
        "if (in == 2) { reject; } "
        "if (s == 1) { error 3; } s = 1; }"
    )
    res = bfs_reachability(p)
    assert res.complete is True
    assert res.reachable[3] == (1, 1)
    assert replay(p, [2, 1, 1]) == ("invalid_input", None)


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


def assert_keyed(states, keys, digits):
    """Each state lies in the box of digits, its key is its pack_key,
    and the key decodes back to it."""
    assert len(keys) == len(states)
    for values, key in zip(states, keys):
        assert len(values) == len(digits)
        assert all(lo <= v < lo + radix for v, (lo, radix) in zip(values, digits)), (values, digits)
        assert key == pack_key(values, digits), values
        assert unpack_key(key, digits) == values


def expand_state(expand, values, classes, digits):
    """Expand one state under an unlimited cap: the new states in the
    order they were appended, and found. values and every new state are
    keyed as assert_keyed checks, and values' key is the parent of each."""
    key = pack_key(values, digits)
    assert_keyed([values], [key], digits)
    reached: list = []
    keys: list = []
    parents: list = []
    seen: set = set()
    found: dict = {}
    assert expand([values], [key], seen, reached.append, keys.append, parents.append,
                  found, 10**9, classes) is False
    assert_keyed(reached, keys, digits)
    assert seen == set(keys)
    assert parents == [key] * len(reached)
    return reached, found


def selecting(classes, j: int, sym: int) -> tuple:
    """classes with every body off but body j, which runs for sym alone."""
    none = ((),) * len(classes)
    return none[:j] + ((sym,),) + none[j + 1:]


def test_expander_matches_reference_step():
    """Every reachable state, expanded by the whole alphabet and by each
    symbol the expander lists, against the AST interpreter."""
    checked = 0
    for p in small_programs():
        expand, classes, digits = compile_expand(p)
        states = {p.initial_values()}
        todo = list(states)
        while todo:
            values = todo.pop()
            key = pack_key(values, digits)
            outcome: dict = {}
            want_reached: list = []
            want_found: dict = {}
            for sym in p.alphabet():
                status, err, nxt, _outs = reference_step(p, values, sym)
                if status == "error":
                    outcome[sym] = ([], {err: (key, sym)})
                    want_found.setdefault(err, (key, sym))
                elif status == "invalid_input":
                    outcome[sym] = ([], {})
                else:
                    nxt = tuple(nxt)
                    outcome[sym] = ([nxt], {})
                    if nxt not in want_reached:
                        want_reached.append(nxt)
                    if nxt not in states:
                        states.add(nxt)
                        todo.append(nxt)
            reached, found = expand_state(expand, values, classes, digits)
            assert reached == want_reached
            assert list(found.items()) == list(want_found.items())
            for j, symbols in enumerate(classes):
                for sym in symbols:
                    one = selecting(classes, j, sym)
                    assert expand_state(expand, values, one, digits) == outcome[sym]
                    checked += 1
    assert checked > 1000


def test_benchmark_states_are_keyed_in_their_box():
    """Level by level from the initial state under a cap of 3,000 states,
    every state that the expander reaches in the benchmark's programs is
    keyed as assert_keyed checks. No global falls back to I64 there, and
    the radices are small."""
    radices = set()
    for seeds, shape in BENCHMARK_SHAPES:
        for seed in seeds:
            p = generate_program(seed=seed, **shape)
            expand, classes, digits = compile_expand(p)
            radices.update(radix for _, radix in digits)
            frontier = [p.initial_values()]
            keys = [pack_key(frontier[0], digits)]
            seen = set(keys)
            while frontier:
                assert_keyed(frontier, keys, digits)
                states: list = []
                new_keys: list = []
                expand(frontier, keys, seen, states.append, new_keys.append, [].append,
                       {}, 3000, classes)
                frontier, keys = states, new_keys
    assert max(radices) <= 18


def test_box_falls_back_to_i64_for_globals_that_leave_the_guess():
    p = parse_or_raise(BOX_PROGRAMS[0])
    box, _ = inductive_box(p)
    assert box == {"a": I64, "b": I64}
    _, _, digits = compile_expand(p)
    assert digits == ((I64.lo, 2**64),) * 2
    # a global that reaches both ends of its box: s is 0 or 1
    p = parse_or_raise(TOGGLE)
    assert inductive_box(p)[0] == {"s": Interval(0, 1)}
    assert compile_expand(p)[2] == ((0, 2),)


def test_oracle_memory_per_state():
    """The visited set and the levels hold one int key per state: on
    deep-state's gen seed 5 (15,258 states) the traced peak of
    bfs_reachability is at most 110 bytes per explored state (about 90
    with keys, about 155 with the tuples they replace)."""
    p = generate_program(vars=8, domain=16, alphabet=10, seed=5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        res = bfs_reachability(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (res.explored_states, res.complete) == (15258, True)
    assert peak <= 110 * res.explored_states


def classes_of(text: str) -> tuple:
    return compile_expand(parse_or_raise(text))[1]


def test_expander_folds_each_input_class():
    # cuts at 3 and 4: {1, 2} and {4, 5, 6} fold to the same body, which
    # runs once, for 1
    assert classes_of(
        "inputs 1..6; var a = 0; step(in){ if (in == 3) { a = 1; } else { a = 2; } }"
    ) == ((1,), (3,))
    # a body that still names the input runs for each symbol of its class
    assert classes_of(
        "inputs 1..4; var a = 0; step(in){ if (in < 3) { a = in; } else { a = 0; } }"
    ) == ((1, 2), (3,))
    # a decided operand of && or || is dropped, so {1, 2} does not name
    # the input
    assert classes_of(
        "inputs 1..4; var a = 0; step(in){ if (in < 3 && a == 0) { a = 1; } else { a = 0; } }"
    ) == ((1,), (3,))
    assert classes_of(
        "inputs 1..4; var a = 0; step(in){ if (in > 2 || a == 1) { a = 1; } else { a = 0; } }"
    ) == ((1,), (3,))
    # every path of {4, 5} rejects
    assert classes_of(CLASS_PROGRAMS[-1]) == ((1,), (2,), (3,))
    # 4,096 symbols, two constants: at most five classes, none naming
    # the input
    wide = classes_of(CLASS_PROGRAMS[-2])
    assert len(wide) <= 5 and all(len(symbols) == 1 for symbols in wide)


def test_expander_unpacks_once_and_copies_only_what_a_body_assigns(monkeypatch):
    """The generated _expand unpacks each state once, runs a merged body
    without a per-symbol loop, and copies into _hK only the globals a
    body assigns."""
    sources = []

    def capture(source, filename, name):
        sources.append(source)
        return original(source, filename, name)

    original = reachfuzz.executor._compile
    monkeypatch.setattr(reachfuzz.executor, "_compile", capture)
    # {1, 2} reads the input and assigns a; {3} is merged and assigns b;
    # {4} is merged and assigns nothing
    compile_expand(parse_or_raise(
        "inputs 1..4; var a = 0; var b = 0; var c = 0; step(in){ "
        "if (in < 3) { a = in; } if (in == 3) { b = c; } if (b == 1 && in == 4) { error 1; } }"
    ))
    [source] = sources
    lines = source.splitlines()
    assert sum("= values" in line for line in lines) == 1
    assert "        _g0, _g1, _g2, = values" in lines
    body_source = source.split("        for _s in c0:\n")[1].split("    return full")[0]
    bodies = body_source.split("        while ")
    assert len(bodies) == 3
    loop, merged_b, merged_none = bodies
    assert "_h0 = _g0" in loop and "_h1" not in loop and "_h2" not in loop
    assert "append((_h0, _g1, _g2, ))" in loop
    for body in (merged_b, merged_none):
        assert "for _s" not in body and "_s" not in body.replace("seen_add", "")
        assert body.rstrip().endswith("break")
    assert "_h1 = _g1" in merged_b and "_h0" not in merged_b and "_h2" not in merged_b
    assert "_h" not in merged_none
    # the error of {4} is recorded with its symbol as a literal
    assert "found[1] = (key, 4)" in merged_none


def test_fold_drops_decided_operands():
    p = parse_or_raise(
        "inputs 1..4; var a = 0; step(in){ if (in < 3 && a == 0 || in == 4 && a == 1) { a = 1; } }"
    )
    cond = p.body[0].cond
    for (lo, hi), want in {
        (1, 2): "(_g0 == 0)",
        (3, 3): "False",
        (4, 4): "(_g0 == 1)",
        (1, 4): "(((_s < 3) and (_g0 == 0)) or ((_s == 4) and (_g0 == 1)))",
    }.items():
        env = {"a": TOP, "in": Interval(lo, hi)}
        assert _ExprGen({"a": "_g0", "in": "_s"}, {}, env, "in").truth(cond) == want
    # the campaign target's generator: every global unknown, the input at
    # the whole alphabet, which decides in < 5 and in == 9 here
    p = parse_or_raise(
        "inputs 1..4; var a = 0; step(in){ if (in < 5 && a == 0 || in == 9 || a == in) { a = 1; } }"
    )
    gen = _names(p, {})[0]
    assert gen.env == {"a": TOP, "in": Interval(1, 4)}
    assert gen.truth(p.body[0].cond) == "((_g0 == 0) or (_g0 == _s))"
    assert gen.reads_input


def test_expander_reports_a_refused_state():
    p = parse_or_raise("inputs 1..2; var a = 0; step(in){ a = in; }")
    expand, classes, digits = compile_expand(p)
    k0, k1, k2 = (pack_key((a,), digits) for a in range(3))
    reached: list = []
    keys: list = []
    parents: list = []
    seen = {k0, k1}
    # (1,) is known, (2,) is new and the cap refuses it
    assert expand([(0,)], [k0], seen, reached.append, keys.append, parents.append,
                  {}, 2, classes) is True
    assert reached == [] and keys == [] and parents == [] and seen == {k0, k1}
    assert expand([(0,), (1,)], [k0, k1], seen, reached.append, keys.append, parents.append,
                  {}, 3, classes) is False
    assert reached == [(2,)] and keys == [k2] and parents == [k0] and seen == {k0, k1, k2}


def test_undeclared_error_id_raises(monkeypatch):
    p = parse_or_raise(TOGGLE)

    def fake_compile_expand(program):
        def expand(frontier, keys, seen, append, keep, link, found, cap, classes):
            found.setdefault(99, (keys[0], classes[0][0]))
            return False

        return expand, ((1, 2),), ((0, 2),)

    monkeypatch.setattr(reachfuzz.oracle, "compile_expand", fake_compile_expand)
    with pytest.raises(RuntimeError, match=r"undeclared error ids \[99\]"):
        bfs_reachability(p)


def nested_ifs(depth: int) -> str:
    return (
        "inputs 1..2; var a = 0; step(in){ "
        + "if (a < 5) { " * depth
        + "a = in; "
        + "} " * depth
        + "if (a == 2) { error 1; } }"
    )


def test_oracle_takes_96_nested_ifs():
    # the expander's bodies start three levels deep, under Python's limit
    # of 100 indentation levels
    res = bfs_reachability(parse_or_raise(nested_ifs(96)))
    assert res.complete is True
    assert (res.reachable, res.explored_states) == ({1: (2,)}, 2)


def else_if_chain(arms: int) -> str:
    chain = " else ".join(
        f"if (in == {k}) {{ a = {k % 4}; }}" if k % 50 else f"if (in == {k}) {{ error {k // 50 + 1}; }}"
        for k in range(arms)
    )
    return f"inputs 0..{arms + 9}; var a = 0; step(in){{ {chain} else {{ reject; }} }}"


def test_else_if_chain_of_150_arms():
    """An else-if chain emits elif, so its depth does not nest: both the
    campaign target and the oracle compile, and the oracle agrees with
    the AST interpreter."""
    p = parse_or_raise(else_if_chain(150))
    c = init_campaign(p, seed=1)
    result = fuzz_loop(c, max_execs=2000)
    res = bfs_reachability(p)
    assert set(result.errors) <= set(res.reachable)
    # breadth-first search over reference_step
    states = {p.initial_values(): None}
    frontier = [p.initial_values()]
    errors: dict = {}
    while frontier:
        nxt_level = []
        for values in frontier:
            for sym in p.alphabet():
                status, err, nxt, _outs = reference_step(p, values, sym)
                if status == "error":
                    errors.setdefault(err, sym)
                elif status == "ok" and tuple(nxt) not in states:
                    states[tuple(nxt)] = values
                    nxt_level.append(tuple(nxt))
        frontier = nxt_level
    assert res.complete is True
    assert res.explored_states == len(states) == 4
    assert res.reachable == {1: (0,), 2: (50,), 3: (100,)}
    for k, witness in res.reachable.items():
        assert reference_step(p, p.initial_values(), witness[0])[:2] == ("error", k)


def fuzzes_to_replayed_errors(arms: int) -> None:
    """An arms-long else-if chain sets up and fuzzes, and every witness
    replays to its error through the AST interpreter."""
    p = parse_or_raise(else_if_chain(arms))
    c = init_campaign(p, seed=1)
    result = fuzz_loop(c, max_execs=2000)
    assert result.errors
    for k, rec in result.errors.items():
        values = p.initial_values()
        for sym in rec.witness:
            status, err, values, _outs = reference_step(p, values, sym)
            if status != "ok":
                break
        assert (status, err) == ("error", k)


def test_else_if_chain_of_500_arms_fuzzes():
    """Instrumentation planning does not grow with the arm count."""
    fuzzes_to_replayed_errors(500)


def test_else_if_chain_of_900_arms_fuzzes():
    """elif flattening takes time linear in the arm count; re-indenting
    the nested arms at every level made it quadratic."""
    fuzzes_to_replayed_errors(900)
