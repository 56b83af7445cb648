from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from reachfuzz.frontend import (
    Binary,
    Emit,
    ErrorStmt,
    If,
    IntLit,
    Name,
    Program,
    eval_expr,
    list_error_ids,
    parse_or_raise,
    parse_program,
    pretty_print,
    reference_step,
    tokenize,
    walk_stmts,
    wrap64,
)
from reachfuzz.gen import generate_source

EXAMPLE = (
    "inputs 1..5; var a = 1; "
    "step(in){ if (in == 3) { a = 2; emit 20; } else { reject; } }"
)


def diagnostics(text):
    out = parse_program(text)
    assert isinstance(out, list), "expected diagnostics, got a program"
    return out


def test_parse_example_program():
    p = parse_or_raise(EXAMPLE)
    assert (p.alphabet_lo, p.alphabet_hi) == (1, 5)
    assert p.globals == (("a", 1),)
    assert list_error_ids(p) == frozenset()
    assert p.param == "in"


def test_duplicate_declaration_diagnostic():
    diags = diagnostics("inputs 1..5; var a = 1; var a = 2; step(in){}")
    assert any(d.severity == "error" for d in diags)
    assert any("duplicate declaration a" in d.message for d in diags)


def test_undeclared_identifier_diagnostic():
    diags = diagnostics("inputs 1..3; step(in){ if (a == 1) { error 7; } }")
    assert any("undeclared identifier a" in d.message for d in diags)


def test_diagnostics_carry_positions():
    diags = diagnostics("inputs 1..5; var a = 1; var a = 2; step(in){}")
    d = diags[0]
    assert d.line >= 1 and d.col >= 1


def test_empty_alphabet_rejected():
    diags = diagnostics("inputs 5..1; step(in){}")
    assert any("empty alphabet" in d.message for d in diags)


def test_alphabet_size_cap():
    diags = diagnostics("inputs 1..9999; step(in){}")
    assert any("4096" in d.message for d in diags)
    p = parse_program("inputs 1..4096; step(in){}")
    assert isinstance(p, Program)


def test_emit_requires_integer_literal():
    out = parse_program("inputs 1..3; var a = 0; step(in){ emit a; }")
    assert isinstance(out, list) and out


def test_list_error_ids_dedup():
    p = parse_or_raise(
        "inputs 1..3; var a = 0; step(in){ "
        "if (in == 1) { error 7; } if (in == 2) { error 7; } }"
    )
    assert list_error_ids(p) == frozenset({7})


def test_list_error_ids_empty():
    assert list_error_ids(parse_or_raise("inputs 1..3; step(in){}")) == frozenset()


def test_error_sites_collects_every_id():
    p = parse_or_raise(
        "inputs 1..3; step(in){ "
        "if (in == 1) { error 7; } if (in == 2) { error 9; } }"
    )
    assert list_error_ids(p) == frozenset({7, 9})


def test_wrap64_boundaries():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    assert wrap64(2**63 - 1) == 2**63 - 1
    assert wrap64(-(2**63)) == -(2**63)
    assert wrap64(0) == 0
    assert wrap64(-17) == -17


@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_wrap64_range(x):
    w = wrap64(x)
    assert -(2**63) <= w < 2**63
    assert (w - x) % (2**64) == 0


def test_eval_expr_wraps_arithmetic():
    mul = Binary("*", Binary("*", IntLit(2**32, 0), IntLit(2**32, 0), 0), IntLit(1, 0), 0)
    assert eval_expr(mul, {}) == 0
    add = Binary("+", IntLit(2**63 - 1, 0), IntLit(1, 0), 0)
    assert eval_expr(add, {}) == -(2**63)


def test_eval_expr_comparison_and_logic():
    env = {"a": 3}
    lt = Binary("<", Name("a", 0), IntLit(5, 0), 0)
    assert eval_expr(lt, env) == 1
    conj = Binary("&&", lt, Binary("==", Name("a", 0), IntLit(4, 0), 0), 0)
    assert eval_expr(conj, env) == 0


def test_comments_and_whitespace_ignored():
    spaced = (
        "inputs 1..5;\n// leading comment\nvar a = 1;\n"
        "step(in){\n  if (in == 3) { a = 2; emit 20; }\n"
        "  else { reject; }  // trailing\n}\n"
    )
    assert pretty_print(parse_or_raise(spaced)) == pretty_print(parse_or_raise(EXAMPLE))


def test_pretty_print_fixpoint_on_example():
    text = pretty_print(parse_or_raise(EXAMPLE))
    assert pretty_print(parse_or_raise(text)) == text


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_pretty_print_round_trip_generated(seed):
    src = generate_source(seed=seed)
    text = pretty_print(parse_or_raise(src))
    assert pretty_print(parse_or_raise(text)) == text


@given(st.text(max_size=120))
@settings(max_examples=200)
def test_parse_totality_arbitrary_text(text):
    out = parse_program(text)
    if isinstance(out, Program):
        assert out.alphabet_lo <= out.alphabet_hi
    else:
        assert out and all(d.severity == "error" for d in out)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_parse_totality_generated_sources(seed):
    assert isinstance(parse_program(generate_source(seed=seed)), Program)


def test_tokenize_reports_positions():
    toks = tokenize("inputs 1..3;")
    assert toks[0].kind == "inputs"
    assert toks[0].line == 1 and toks[0].col == 1
    num = [t for t in toks if t.kind == "int"][0]
    assert num.value == 1


def test_walk_stmts_visits_nested():
    p = parse_or_raise(
        "inputs 1..3; var a = 0; step(in){ "
        "if (in == 1) { if (a == 0) { error 2; } } emit 5; }"
    )
    kinds = [type(s).__name__ for s in walk_stmts(p.body)]
    assert "ErrorStmt" in kinds and "Emit" in kinds
    assert kinds.count("If") == 2


def reference_step_naive(p, values, symbol):
    """Tiny independent evaluator used to cross-check reference_step."""
    env = {name: v for (name, _), v in zip(p.globals, values)}
    env[p.param] = symbol

    def ev(e):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, Name):
            return env[e.ident]
        if isinstance(e, Binary):
            l, r = ev(e.lhs), ev(e.rhs)
            ops = {
                "+": lambda: wrap64(l + r),
                "-": lambda: wrap64(l - r),
                "*": lambda: wrap64(l * r),
                "==": lambda: int(l == r),
                "!=": lambda: int(l != r),
                "<": lambda: int(l < r),
                "<=": lambda: int(l <= r),
                ">": lambda: int(l > r),
                ">=": lambda: int(l >= r),
                "&&": lambda: int(bool(l) and bool(r)),
                "||": lambda: int(bool(l) or bool(r)),
            }
            return ops[e.op]()
        return wrap64(-ev(e.operand))

    def run(stmts):
        for s in stmts:
            if isinstance(s, If):
                out = run(s.then if ev(s.cond) else s.orelse)
            elif isinstance(s, Emit):
                outputs.append(s.value)
                out = None
            elif isinstance(s, ErrorStmt):
                out = ("error", s.error_id)
            elif type(s).__name__ == "Reject":
                out = ("invalid_input", None)
            else:
                env[s.name] = ev(s.expr)
                out = None
            if out is not None:
                return out
        return None

    outputs = []
    halt = run(p.body)
    final = tuple(env[k] for k, _ in p.globals)
    if halt is None:
        return ("ok", None, final, tuple(outputs))
    return (halt[0], halt[1], final, tuple(outputs))


@given(st.integers(min_value=0, max_value=100), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_reference_step_matches_naive_evaluator(seed, rnd):
    p = parse_or_raise(generate_source(seed=seed))
    for _ in range(20):
        values = tuple(rnd.randrange(-3, 9) for _ in p.globals)
        sym = rnd.randint(p.alphabet_lo, p.alphabet_hi)
        status, err, final, outs = reference_step(p, values, sym)
        assert (status, err, tuple(final), tuple(outs)) == reference_step_naive(
            p, values, sym
        )
