"""Interval abstract interpretation of a reactive program.

Two products: per-variable bounds on the global state across any number
of steps (inter-step fixpoint with widening and one narrowing pass), and
the set of literals the input parameter is compared against, turned into
a weighted symbol pool that restricts mutation to values the program
actually distinguishes. Besides them, inductive_box gives the oracle a
box that holds every reachable valuation, checked by one abstract step
rather than by the fixpoint.

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
    is_arith,
    walk_exprs,
    walk_stmts,
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
I64 = Interval(I64_MIN, I64_MAX)


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


def _unwrapped(op: str, a: Interval, b: Interval) -> Interval:
    """a op b for op in + - *, over the integers: no bound is wrapped."""
    if a.is_empty or b.is_empty:
        return EMPTY
    if op == "+":
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if op == "-":
        return Interval(a.lo - b.hi, a.hi - b.lo)
    products = [
        _mul_bound(a.lo, b.lo),
        _mul_bound(a.lo, b.hi),
        _mul_bound(a.hi, b.lo),
        _mul_bound(a.hi, b.hi),
    ]
    return Interval(min(products), max(products))


def iv_add(a: Interval, b: Interval) -> Interval:
    return _clamp(_unwrapped("+", a, b))


def iv_sub(a: Interval, b: Interval) -> Interval:
    return _clamp(_unwrapped("-", a, b))


def iv_mul(a: Interval, b: Interval) -> Interval:
    return _clamp(_unwrapped("*", a, b))


def iv_neg(a: Interval) -> Interval:
    return _clamp(_unwrapped("-", ZERO, a))


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
    if op in ("&&", "||"):
        # the right operand is evaluated only when the left one does not
        # decide the result: False decides &&, True decides ||
        absorbing = op == "||"
        ta = _truth(eval_abs(e.lhs, env))
        if ta is absorbing:
            return _bool_iv(ta)
        tb = _truth(eval_abs(e.rhs, env))
        if tb is absorbing or (ta is not None and tb is not None):
            return _bool_iv(tb)
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


def abstract_step(
    program: Program, global_env: dict, input_iv: Interval, bounds: "dict | None" = None
) -> "dict | None":
    """Abstract one step invocation; None when every path leaves the run.

    Paths ending in error/reject never reach a step boundary, so they
    contribute no state.

    With a dict bounds, the walk follows generated code: each arithmetic
    Assign st it reaches records bounds[id(st)], the bounds of its value
    before wrapping (eval_unwrapped), and stores their wrapped image,
    which is I64 when a bound wider than a point escapes the range.
    """

    def run_block(stmts, env: "dict | None") -> "dict | None":
        if env is None:
            return None
        for st in stmts:
            if isinstance(st, Assign):
                if bounds is not None and is_arith(st.expr):
                    bound = bounds[id(st)] = eval_unwrapped(st.expr, env)
                    value = _clamp(bound).meet(I64)
                else:
                    value = eval_abs(st.expr, env)
                env = dict(env)
                env[st.name] = value
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


def eval_unwrapped(e, env: dict) -> Interval:
    """Bounds of the value that generated code computes for the
    arithmetic expression e before it wraps it: sums, differences,
    products and negations over the integers, every other operand at its
    eval_abs bound. Recurses no deeper than eval_abs."""
    if isinstance(e, Unary):
        x = e.operand
        return _unwrapped("-", ZERO, eval_unwrapped(x, env) if is_arith(x) else eval_abs(x, env))
    lhs = eval_unwrapped(e.lhs, env) if is_arith(e.lhs) else eval_abs(e.lhs, env)
    rhs = eval_unwrapped(e.rhs, env) if is_arith(e.rhs) else eval_abs(e.rhs, env)
    return _unwrapped(e.op, lhs, rhs)


def assignment_bounds(program: Program) -> dict:
    """id of each arithmetic Assign -> bounds of its value before
    wrapping, over one step from any valuation.

    abstract_step walks the step once, with every global at I64 and the
    input at the alphabet interval. Every bound stays finite: infinite
    endpoints would claim that no value overflows, which is the fixpoint
    convention of analyze and not sound here. An Assign that no feasible
    path reaches has no entry. Keys are ids because equal Assign nodes
    in different places are equal values.
    """
    bounds: dict = {}
    env = dict.fromkeys(program.global_names(), I64)
    abstract_step(program, env, Interval(program.alphabet_lo, program.alphabet_hi), bounds)
    return bounds


def _literal_hull(program: Program) -> Interval:
    """The hull of the initial values, the literals assigned to globals,
    and each literal of an ordering comparison with its two neighbours,
    clamped to I64."""
    lits = list(program.initial_values())
    for st in walk_stmts(program.body):
        if not isinstance(st, (Assign, If)):
            continue
        if isinstance(st, Assign) and isinstance(st.expr, IntLit):
            lits.append(st.expr.value)
        for e in walk_exprs(st.expr if isinstance(st, Assign) else st.cond):
            if isinstance(e, Binary) and e.op in ("<", "<=", ">", ">="):
                for side in (e.lhs, e.rhs):
                    if isinstance(side, IntLit):
                        lits.extend((side.value - 1, side.value, side.value + 1))
    return Interval(min(lits), max(lits)).meet(I64)


def inductive_box(program: Program) -> "tuple[dict, dict]":
    """(box, bounds): a global name -> Interval box that holds every
    reachable valuation, and the assignment_bounds of one step from any
    valuation in the box.

    The guess puts every global at _literal_hull. One abstract_step from
    the box, with the input at the alphabet interval and bounds recorded
    as generated code computes them, gives the box's successors; a
    global whose successor interval the box does not cover is put at
    I64, and the check runs again. So it ends after at most one walk
    per global more than the first, since a box of I64 only maps into
    itself.

    Why it holds every reachable valuation: the box holds the initial
    valuation (the guess has the initial values, I64 has every value),
    and abstract_step is sound, so a step from any valuation in the box
    by any symbol of the alphabet that completes lands in its result,
    which the box covers. By induction on the steps, every valuation
    reached from the initial one lies in the box. The bounds come from
    the last walk, so they bound each assignment from any valuation in
    the box, and hence from every reachable one.
    """
    names = program.global_names()
    hull = _literal_hull(program) if names else I64
    box = dict.fromkeys(names, hull)
    input_iv = Interval(program.alphabet_lo, program.alphabet_hi)
    while True:
        bounds: dict = {}
        out = abstract_step(program, box, input_iv, bounds)
        loose = [n for n in names if out is not None and not box[n].covers(out[n])]
        if not loose:
            return box, bounds
        box.update(dict.fromkeys(loose, I64))


@dataclass(frozen=True)
class IntervalSummary:
    global_bounds: dict  # variable name -> post-fixpoint Interval
    input_constants: frozenset
    value_pool: tuple  # ascending (symbol, weight) pairs


def _collect_input_constants(program: Program) -> frozenset:
    """Every literal compared with an expression that names the input.

    Each expression is walked once: in reverse preorder every operand
    comes before the node that holds it, so whether a node names the
    input follows from its operands.
    """
    param = program.param
    consts = set()
    for st in walk_stmts(program.body):
        if not isinstance(st, (Assign, If)):
            continue
        reads: set = set()  # ids of the nodes that name the input
        for e in reversed(walk_exprs(st.expr if isinstance(st, Assign) else st.cond)):
            if isinstance(e, Name):
                if e.ident == param:
                    reads.add(id(e))
            elif isinstance(e, Unary):
                if id(e.operand) in reads:
                    reads.add(id(e))
            elif isinstance(e, Binary):
                lhs, rhs = id(e.lhs) in reads, id(e.rhs) in reads
                if lhs or rhs:
                    reads.add(id(e))
                if e.op in _CMP_OPS:
                    if rhs and isinstance(e.lhs, IntLit):
                        consts.add(e.lhs.value)
                    if lhs and isinstance(e.rhs, IntLit):
                        consts.add(e.rhs.value)
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

    def env_le(a, b) -> bool:
        return all(b[n].covers(a[n]) for n in names)

    x = init
    unstable = 0
    while True:
        stepped = post(x)
        y = _join_env(x, stepped)
        if y == x:
            break
        unstable += 1
        if unstable > WIDEN_AFTER:
            x = {n: x[n].widen(y[n]) for n in names}
        else:
            x = y

    stepped = post(x)
    target = _join_env(dict(init), stepped)
    narrowed = {n: x[n].narrow(target[n]) for n in names}
    recheck = _join_env(dict(init), post(narrowed))
    if env_le(recheck, narrowed):
        x = narrowed

    constants = _collect_input_constants(program)
    pool = input_value_pool(constants, program.alphabet())
    return IntervalSummary(
        global_bounds={n: x[n] for n in names},
        input_constants=constants,
        value_pool=pool,
    )
