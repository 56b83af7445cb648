"""Interval abstract interpretation of a reactive program.

Two products: per-variable bounds on the global state across any number
of steps (inter-step fixpoint with widening and one narrowing pass), and
the set of literals the input parameter is compared against, turned into
a weighted symbol pool that restricts mutation to values the program
actually distinguishes.

Bounds use extended integers: infinite endpoints are idealized "no bound
known" markers and arithmetic flows through them without wraparound, the
usual interval-analysis convention. Finite bounds that escape the signed
64-bit range are treated as real overflow (exact wrap for points, top
otherwise), so bounds hold dynamically for programs whose values stay in
range, which monotone widening represents as an infinite endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frontend import (
    Assign,
    Binary,
    Emit,
    ErrorStmt,
    If,
    IntLit,
    I64_MAX,
    I64_MIN,
    Name,
    Program,
    Reject,
    Unary,
    wrap64,
)

INF = float("inf")
WIDEN_AFTER = 3  # unstable joins tolerated before widening kicks in
CONST_WEIGHT = 4  # pool weight of a compared constant and its neighbours

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


@dataclass(frozen=True)
class Interval:
    """Closed integer interval with infinite endpoints; lo > hi means empty."""

    lo: "int | float"
    hi: "int | float"

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def covers(self, other: "Interval") -> bool:
        return other.is_empty or (self.lo <= other.lo and other.hi <= self.hi)

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(
            -INF if other.lo < self.lo else self.lo,
            INF if other.hi > self.hi else self.hi,
        )

    def narrow(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return self
        return Interval(
            other.lo if self.lo == -INF else self.lo,
            other.hi if self.hi == INF else self.hi,
        )

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        lo = "-inf" if self.lo == -INF else str(self.lo)
        hi = "+inf" if self.hi == INF else str(self.hi)
        return f"[{lo}, {hi}]"


EMPTY = Interval(INF, -INF)
TOP = Interval(-INF, INF)
ZERO = Interval(0, 0)
ONE = Interval(1, 1)
ZERO_ONE = Interval(0, 1)


def point(v: int) -> Interval:
    return Interval(v, v)


def _clamp(iv: Interval) -> Interval:
    """Handle finite bounds escaping the signed 64-bit range.

    Infinite bounds stand for "unbounded" and pass through untouched
    (widening products, idealized arithmetic over extended integers). A
    finite bound outside the range means the computation really can
    overflow: point intervals wrap exactly, anything wider degrades to
    top because wrapping scatters the interval to the far end.
    """
    if iv.is_empty:
        return iv
    lo_over = iv.lo != -INF and iv.lo < I64_MIN
    hi_over = iv.hi != INF and iv.hi > I64_MAX
    if not lo_over and not hi_over:
        return iv
    if iv.is_point:
        return point(wrap64(int(iv.lo)))
    return TOP


def _mul_bound(a, b):
    # 0 * inf is 0 by convention: a zero factor pins the product.
    if a == 0 or b == 0:
        return 0
    return a * b


def iv_add(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    return _clamp(Interval(a.lo + b.lo, a.hi + b.hi))


def iv_sub(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    return _clamp(Interval(a.lo - b.hi, a.hi - b.lo))


def iv_mul(a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    products = [
        _mul_bound(a.lo, b.lo),
        _mul_bound(a.lo, b.hi),
        _mul_bound(a.hi, b.lo),
        _mul_bound(a.hi, b.hi),
    ]
    return _clamp(Interval(min(products), max(products)))


def iv_neg(a: Interval) -> Interval:
    if a.is_empty:
        return EMPTY
    return _clamp(Interval(-a.hi, -a.lo))


def _truth(iv: Interval) -> "bool | None":
    """Definite truth value of an interval as a condition, if any."""
    if iv.is_empty:
        return None
    if iv.lo > 0 or iv.hi < 0:
        return True
    if iv.lo == 0 and iv.hi == 0:
        return False
    return None


def _bool_iv(truth: "bool | None") -> Interval:
    if truth is True:
        return ONE
    if truth is False:
        return ZERO
    return ZERO_ONE


def iv_cmp(op: str, a: Interval, b: Interval) -> Interval:
    if a.is_empty or b.is_empty:
        return EMPTY
    if op == "==":
        if a.is_point and b.is_point and a.lo == b.lo:
            return ONE
        if a.hi < b.lo or b.hi < a.lo:
            return ZERO
        return ZERO_ONE
    if op == "!=":
        inv = iv_cmp("==", a, b)
        if inv is ONE:
            return ZERO
        if inv is ZERO:
            return ONE
        return ZERO_ONE
    if op == "<":
        if a.hi < b.lo:
            return ONE
        if a.lo >= b.hi:
            return ZERO
        return ZERO_ONE
    if op == "<=":
        if a.hi <= b.lo:
            return ONE
        if a.lo > b.hi:
            return ZERO
        return ZERO_ONE
    if op == ">":
        return iv_cmp("<", b, a)
    return iv_cmp("<=", b, a)


def eval_abs(e, env: dict) -> Interval:
    """Abstract evaluation under an interval environment."""
    if isinstance(e, IntLit):
        return point(e.value)
    if isinstance(e, Name):
        return env[e.ident]
    if isinstance(e, Unary):
        inner = eval_abs(e.operand, env)
        if e.op == "-":
            return iv_neg(inner)
        t = _truth(inner)
        return _bool_iv(None if t is None else not t)
    op = e.op
    if op == "&&":
        ta = _truth(eval_abs(e.lhs, env))
        tb = _truth(eval_abs(e.rhs, env))
        if ta is False or tb is False:
            return ZERO
        if ta is True and tb is True:
            return ONE
        return ZERO_ONE
    if op == "||":
        ta = _truth(eval_abs(e.lhs, env))
        tb = _truth(eval_abs(e.rhs, env))
        if ta is True or tb is True:
            return ONE
        if ta is False and tb is False:
            return ZERO
        return ZERO_ONE
    a = eval_abs(e.lhs, env)
    b = eval_abs(e.rhs, env)
    if op == "+":
        return iv_add(a, b)
    if op == "-":
        return iv_sub(a, b)
    if op == "*":
        return iv_mul(a, b)
    return iv_cmp(op, a, b)


def _refine_var(env: dict, name: str, op: str, bound: Interval) -> "dict | None":
    iv = env[name]
    if op == "==":
        iv = iv.meet(bound)
    elif op == "!=":
        if bound.is_point:
            c = bound.lo
            lo = iv.lo + 1 if iv.lo == c else iv.lo
            hi = iv.hi - 1 if iv.hi == c else iv.hi
            iv = Interval(lo, hi)
    elif op == "<":
        if bound.hi != INF:
            iv = iv.meet(Interval(-INF, bound.hi - 1))
    elif op == "<=":
        iv = iv.meet(Interval(-INF, bound.hi))
    elif op == ">":
        if bound.lo != -INF:
            iv = iv.meet(Interval(bound.lo + 1, INF))
    elif op == ">=":
        iv = iv.meet(Interval(bound.lo, INF))
    if iv.is_empty:
        return None
    out = dict(env)
    out[name] = iv
    return out


_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def refine(cond, env: dict, taken: bool) -> "dict | None":
    """Narrow the environment for one arm of a branch; None when infeasible."""
    if isinstance(cond, Unary) and cond.op == "!":
        return refine(cond.operand, env, not taken)
    if isinstance(cond, IntLit):
        return env if bool(cond.value) == taken else None
    if isinstance(cond, Name):
        iv = env[cond.ident]
        if taken:
            return _refine_var(env, cond.ident, "!=", ZERO)
        return _refine_var(env, cond.ident, "==", ZERO)
    if isinstance(cond, Binary):
        op = cond.op
        if op == "&&" and taken:
            env2 = refine(cond.lhs, env, True)
            return refine(cond.rhs, env2, True) if env2 is not None else None
        if op == "||" and not taken:
            env2 = refine(cond.lhs, env, False)
            return refine(cond.rhs, env2, False) if env2 is not None else None
        if op in _CMP_OPS:
            if not taken:
                return refine(Binary(_NEGATE[op], cond.lhs, cond.rhs), env, True)
            out = env
            if isinstance(cond.lhs, Name):
                out = _refine_var(out, cond.lhs.ident, op, eval_abs(cond.rhs, env))
                if out is None:
                    return None
            if isinstance(cond.rhs, Name):
                out = _refine_var(out, cond.rhs.ident, _SWAP[op], eval_abs(cond.lhs, env))
            return out
    return env


def _join_env(a: "dict | None", b: "dict | None") -> "dict | None":
    if a is None:
        return b
    if b is None:
        return a
    return {k: a[k].join(b[k]) for k in a}


def abstract_step(program: Program, global_env: dict, input_iv: Interval) -> "dict | None":
    """Abstract one step invocation; None when every path leaves the run.

    Paths ending in error/reject never reach a step boundary, so they
    contribute no state.
    """

    def run_block(stmts, env: "dict | None") -> "dict | None":
        if env is None:
            return None
        for st in stmts:
            if isinstance(st, Assign):
                env = dict(env)
                env[st.name] = eval_abs(st.expr, env)
            elif isinstance(st, Emit):
                continue
            elif isinstance(st, (ErrorStmt, Reject)):
                return None
            elif isinstance(st, If):
                t_env = refine(st.cond, env, True)
                e_env = refine(st.cond, env, False)
                t_out = run_block(st.then, t_env)
                e_out = run_block(st.orelse, e_env)
                env = _join_env(t_out, e_out)
                if env is None:
                    return None
        return env

    env = dict(global_env)
    env[program.param] = input_iv
    out = run_block(program.body, env)
    if out is None:
        return None
    return {name: out[name] for name in program.global_names()}


@dataclass(frozen=True)
class IntervalSummary:
    global_bounds: dict  # variable name -> post-fixpoint Interval
    input_constants: frozenset
    value_pool: tuple  # ascending (symbol, weight) pairs


def _collect_input_constants(program: Program) -> frozenset:
    param = program.param

    def references_param(e) -> bool:
        if isinstance(e, Name):
            return e.ident == param
        if isinstance(e, Unary):
            return references_param(e.operand)
        if isinstance(e, Binary):
            return references_param(e.lhs) or references_param(e.rhs)
        return False

    consts = set()

    def scan(e):
        if isinstance(e, Binary):
            if e.op in _CMP_OPS:
                if isinstance(e.lhs, IntLit) and references_param(e.rhs):
                    consts.add(e.lhs.value)
                if isinstance(e.rhs, IntLit) and references_param(e.lhs):
                    consts.add(e.rhs.value)
            scan(e.lhs)
            scan(e.rhs)
        elif isinstance(e, Unary):
            scan(e.operand)

    def scan_stmts(stmts):
        for st in stmts:
            if isinstance(st, Assign):
                scan(st.expr)
            elif isinstance(st, If):
                scan(st.cond)
                scan_stmts(st.then)
                scan_stmts(st.orelse)

    scan_stmts(program.body)
    return frozenset(consts)


def input_value_pool(constants, alphabet: range) -> tuple:
    """Weighted mutation pool over the whole alphabet.

    Every symbol keeps base weight 1 so nothing starves; compared constants
    and their off-by-one neighbours get CONST_WEIGHT. Out-of-alphabet
    neighbours are dropped.
    """
    weights = {sym: 1 for sym in alphabet}
    for c in constants:
        for v in (c - 1, c, c + 1):
            if v in weights:
                weights[v] = CONST_WEIGHT
    return tuple(sorted(weights.items()))


def analyze(program: Program) -> IntervalSummary:
    """Inter-step fixpoint over global intervals plus the mutation pool.

    Iterates the abstract step from the initial valuation, joining each
    result in; widens after WIDEN_AFTER unstable rounds, then applies one
    narrowing pass (kept only if the result is still a post-fixpoint).
    """
    names = program.global_names()
    init = {name: point(v) for name, v in program.globals}
    input_iv = Interval(program.alphabet_lo, program.alphabet_hi)

    def post(env):
        return abstract_step(program, env, input_iv)

    def env_join(a, b):
        return _join_env(a, b)

    def env_le(a, b) -> bool:
        return all(b[n].covers(a[n]) for n in names)

    x = init
    unstable = 0
    while True:
        stepped = post(x)
        y = env_join(x, stepped)
        if y == x:
            break
        unstable += 1
        if unstable > WIDEN_AFTER:
            x = {n: x[n].widen(y[n]) for n in names}
        else:
            x = y

    stepped = post(x)
    target = env_join(dict(init), stepped)
    narrowed = {n: x[n].narrow(target[n]) for n in names}
    recheck = env_join(dict(init), post(narrowed))
    if env_le(recheck, narrowed):
        x = narrowed

    constants = _collect_input_constants(program)
    pool = input_value_pool(constants, program.alphabet())
    return IntervalSummary(
        global_bounds={n: x[n] for n in names},
        input_constants=constants,
        value_pool=pool,
    )
