from __future__ import annotations

import random

import hypothesis.strategies as st
from hypothesis import given, settings
from runs import generate_program

from reachfuzz.frontend import (
    I64_MAX,
    I64_MIN,
    Assign,
    Binary,
    Name,
    parse_or_raise,
    reference_step,
    walk_stmts,
)
from reachfuzz.interval import (
    EMPTY,
    INF,
    TOP,
    Interval,
    abstract_step,
    analyze,
    assignment_bounds,
    eval_abs,
    input_value_pool,
    iv_add,
    iv_cmp,
    iv_mul,
    iv_neg,
    iv_sub,
    point,
    refine,
)


def covers(iv, x):
    return not iv.is_empty and iv.lo <= x <= iv.hi


def contained(inner, outer):
    if inner.is_empty:
        return True
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def test_analyze_set_only_program():
    p = parse_or_raise("inputs 1..5; var a = 1; step(in){ if (in == 1) { a = 2; } }")
    s = analyze(p)
    assert s.global_bounds["a"] == Interval(1, 2)


def test_analyze_unconditional_increment_widens():
    p = parse_or_raise("inputs 1..5; var a = 1; step(in){ a = a + 1; }")
    s = analyze(p)
    assert s.global_bounds["a"] == Interval(1, INF)


def test_analyze_unconditional_decrement_widens():
    p = parse_or_raise("inputs 1..5; var a = 0; step(in){ a = a - 1; }")
    s = analyze(p)
    assert s.global_bounds["a"] == Interval(-INF, 0)


def test_analyze_guarded_counter_sound():
    p = parse_or_raise(
        "inputs 1..3; var c = 0; step(in){ if (c < 7) { c = c + 1; } }"
    )
    b = analyze(p).global_bounds["c"]
    assert b.lo == 0 and b.hi >= 7


def test_input_constants_from_comparisons():
    p = parse_or_raise(
        "inputs 1..5; var a = 0; step(in){ "
        "if (in == 3) { a = 1; } if (in <= 2) { a = 2; } }"
    )
    assert analyze(p).input_constants == frozenset({3, 2})


def test_input_constants_ignore_global_comparisons():
    p = parse_or_raise(
        "inputs 1..5; var a = 0; step(in){ if (a == 9) { a = 0; } }"
    )
    assert analyze(p).input_constants == frozenset()


def test_pool_weights_with_constant():
    assert input_value_pool(frozenset({3}), range(1, 6)) == (
        (1, 1),
        (2, 4),
        (3, 4),
        (4, 4),
        (5, 1),
    )


def test_pool_weights_without_constants():
    assert input_value_pool(frozenset(), range(1, 6)) == (
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 1),
        (5, 1),
    )


def test_pool_weights_clamped_to_alphabet():
    assert input_value_pool(frozenset({3}), range(1, 4)) == ((1, 1), (2, 4), (3, 4))


def test_interval_ops_units():
    assert iv_add(Interval(1, 2), Interval(10, 20)) == Interval(11, 22)
    assert iv_add(Interval(1, INF), point(2)) == Interval(3, INF)
    assert iv_sub(Interval(0, 5), Interval(1, 2)) == Interval(-2, 4)
    assert iv_mul(Interval(-2, 3), Interval(4, 5)) == Interval(-10, 15)
    assert iv_mul(Interval(-INF, -1), Interval(-1, -1)) == Interval(1, INF)
    assert iv_neg(Interval(1, INF)) == Interval(-INF, -1)
    assert iv_add(EMPTY, point(1)).is_empty
    assert iv_mul(TOP, point(0)) == point(0) or iv_mul(TOP, point(0)) == TOP


def test_iv_cmp_three_way():
    assert iv_cmp("==", point(3), point(3)) == Interval(1, 1)
    assert iv_cmp("==", point(3), point(4)) == Interval(0, 0)
    assert iv_cmp("<", Interval(0, 9), point(5)) == Interval(0, 1)
    assert iv_cmp("<", Interval(0, 4), point(5)) == Interval(1, 1)
    assert iv_cmp(">=", Interval(7, 9), point(5)) == Interval(1, 1)


small_ivs = st.tuples(
    st.integers(min_value=-50, max_value=50), st.integers(min_value=0, max_value=30)
).map(lambda t: Interval(t[0], t[0] + t[1]))


@given(small_ivs, small_ivs, st.randoms(use_true_random=False))
def test_iv_add_sub_mul_sound_on_members(a, b, rnd):
    x = rnd.randint(a.lo, a.hi)
    y = rnd.randint(b.lo, b.hi)
    assert covers(iv_add(a, b), x + y)
    assert covers(iv_sub(a, b), x - y)
    assert covers(iv_mul(a, b), x * y)
    assert covers(iv_neg(a), -x)


@given(small_ivs, small_ivs, st.randoms(use_true_random=False))
def test_iv_cmp_sound_on_members(a, b, rnd):
    x = rnd.randint(a.lo, a.hi)
    y = rnd.randint(b.lo, b.hi)
    for op, fn in [
        ("==", lambda: x == y),
        ("!=", lambda: x != y),
        ("<", lambda: x < y),
        ("<=", lambda: x <= y),
        (">", lambda: x > y),
        (">=", lambda: x >= y),
    ]:
        assert covers(iv_cmp(op, a, b), int(fn()))


def test_refine_equality_and_ordering():
    p = parse_or_raise("inputs 1..9; var a = 0; step(in){ if (a == 3) { a = 0; } }")
    cond = p.body[0].cond
    env = {"a": Interval(0, 9)}
    taken = refine(cond, env, True)
    assert taken["a"] == point(3)
    not_taken = refine(cond, env, False)
    assert not_taken["a"] == Interval(0, 9)

    p2 = parse_or_raise("inputs 1..9; var a = 0; step(in){ if (a < 5) { a = 0; } }")
    cond2 = p2.body[0].cond
    assert refine(cond2, env, True)["a"] == Interval(0, 4)
    assert refine(cond2, env, False)["a"] == Interval(5, 9)


def test_refine_infeasible_branch():
    p = parse_or_raise("inputs 1..9; var a = 0; step(in){ if (a == 12) { a = 0; } }")
    cond = p.body[0].cond
    assert refine(cond, {"a": Interval(0, 9)}, True) is None


def test_eval_abs_mixes_env_and_literals():
    p = parse_or_raise("inputs 1..5; var a = 0; step(in){ a = a + in; }")
    expr = p.body[0].expr
    env = {"a": Interval(0, 2), "in": Interval(1, 5)}
    assert eval_abs(expr, env) == Interval(1, 7)


def test_eval_abs_logic_with_one_operand_decided():
    p = parse_or_raise(
        "inputs 1..5; var a = 0; step(in){ a = in > 9; a = in < 9; a = a == 1; }"
    )
    no, yes, unknown = (st.expr for st in p.body)
    env = {"a": Interval(0, 9), "in": Interval(1, 5)}
    zero, one, either = Interval(0, 0), Interval(1, 1), Interval(0, 1)
    for op, lhs, rhs, want in [
        ("&&", no, unknown, zero),
        ("&&", unknown, no, zero),
        ("&&", yes, unknown, either),
        ("&&", unknown, yes, either),
        ("&&", yes, yes, one),
        ("||", yes, unknown, one),
        ("||", unknown, yes, one),
        ("||", no, unknown, either),
        ("||", unknown, no, either),
        ("||", no, no, zero),
    ]:
        assert eval_abs(Binary(op, lhs, rhs), env) == want, (op, lhs, rhs)
    # a left operand that decides the result leaves the right one
    # unevaluated: here it names a variable that env does not hold
    assert eval_abs(Binary("&&", no, Name("b")), env) == zero
    assert eval_abs(Binary("||", yes, Name("b")), env) == one


def alphabet_interval(p):
    return Interval(p.alphabet_lo, p.alphabet_hi)


def test_abstract_step_on_fixpoint_is_stable():
    for seed in range(8):
        p = generate_program(seed=seed)
        bounds = analyze(p).global_bounds
        post = abstract_step(p, dict(bounds), alphabet_interval(p))
        assert post is not None
        for name, iv in post.items():
            assert contained(iv, bounds[name]), (seed, name, iv, bounds[name])


def test_abstract_step_none_when_no_path_survives():
    p = parse_or_raise("inputs 1..3; var a = 0; step(in){ reject; }")
    assert abstract_step(p, {"a": point(0)}, alphabet_interval(p)) is None


def test_alphabet_growth_never_shrinks_bounds():
    body = (
        "var a = 0; var b = 0; step(in){ "
        "if (in == 2) { a = a + 1; } "
        "if (a > 3) { b = in; a = 0; } }"
    )
    narrow = analyze(parse_or_raise("inputs 1..3; " + body)).global_bounds
    wide = analyze(parse_or_raise("inputs 1..5; " + body)).global_bounds
    for name in narrow:
        assert contained(narrow[name], wide[name]), name


@given(st.integers(min_value=0, max_value=120), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_bounds_sound_on_random_runs(seed, rnd):
    p = generate_program(seed=seed)
    bounds = analyze(p).global_bounds
    names = [name for name, _ in p.globals]
    for name, init in p.globals:
        assert covers(bounds[name], init)
    values = tuple(init for _, init in p.globals)
    for _ in range(60):
        sym = rnd.randint(p.alphabet_lo, p.alphabet_hi)
        status, _err, values, _outs = reference_step(p, values, sym)
        if status != "ok":
            break
        for name, v in zip(names, values):
            assert covers(bounds[name], v), (seed, name, v, bounds[name])


def test_bounds_sound_long_adversarial_run():
    rnd = random.Random(5)
    p = generate_program(domain=8, alphabet=10, seed=3)
    bounds = analyze(p).global_bounds
    names = [name for name, _ in p.globals]
    values = tuple(init for _, init in p.globals)
    for _ in range(5000):
        sym = rnd.randint(p.alphabet_lo, p.alphabet_hi)
        status, _err, values, _outs = reference_step(p, values, sym)
        if status != "ok":
            values = tuple(init for _, init in p.globals)
            continue
        for name, v in zip(names, values):
            assert covers(bounds[name], v)


def bounds_in_order(text: str) -> list:
    """assignment_bounds of a program, one entry per Assign in preorder
    (None for an Assign without a bound)."""
    p = parse_or_raise(text)
    bounds = assignment_bounds(p)
    return [bounds.get(id(st)) for st in walk_stmts(p.body) if isinstance(st, Assign)]


def test_assignment_bounds_are_unwrapped_and_per_node():
    M = I64_MAX
    # equal Assign nodes under opposite guards keep their own bounds
    assert bounds_in_order(
        "inputs 1..2; var a = 0; step(in){ if (a < 5) { a = a + 1; } else { a = a + 1; } }"
    ) == [Interval(I64_MIN + 1, 5), Interval(6, M + 1)]
    # an escaping constant keeps its value before wrapping, and the
    # next assignment starts from the wrapped point
    assert bounds_in_order(f"inputs 1..2; var c = 0; step(in){{ c = {M} + 1; c = c - 1; }}") == [
        Interval(M + 1, M + 1),
        Interval(I64_MIN - 1, I64_MIN - 1),
    ]
    # every global starts anywhere in range, the input at the alphabet;
    # a sum that may leave the range stores the whole range
    assert bounds_in_order("inputs 2..3; var a = 0; step(in){ a = a * in; a = a + 0; }") == [
        Interval(3 * I64_MIN, 3 * M),
        Interval(I64_MIN, M),
    ]
    # an unreachable arm has no bound; a guard on an expression
    # refines nothing
    assert bounds_in_order(
        "inputs 1..3; var a = 0; step(in){ if (in > 5) { a = a + 1; } if (0 + a < 5) { a = a - 1; } }"
    ) == [None, Interval(I64_MIN - 1, M - 1)]
