"""Deterministic benchmark program generation.

Produces small reactive state machines in the spirit of event-driven
reachability benchmarks. Each input symbol pumps its own bounded
counter, some counters only climb while another sits at its ceiling
(staged progressions), and reaching a ceiling can reset a peer. Error
statements hide behind conjunctions that pin counters near their
ceilings, so triggering one takes a coordinated multi-step input
sequence rather than a lucky single symbol. A tail of force-placed
error sites keeps every id 1..errors present exactly once.

All updates keep globals inside [0, domain), so the reachable state
space is at most domain^vars valuations and exhaustive reachability
stays cheap. Same seed, same text, byte for byte.
"""

from __future__ import annotations

from random import Random

from .frontend import (
    Assign,
    Binary,
    Emit,
    ErrorStmt,
    If,
    IntLit,
    Name,
    Program,
    Reject,
    parse_or_raise,
    pretty_print,
)

DEFAULT_VARS = 4
DEFAULT_DOMAIN = 4
DEFAULT_ALPHABET = 5
DEFAULT_DEPTH = 4
DEFAULT_ERRORS = 10


def generate_source(
    vars: int = DEFAULT_VARS,
    domain: int = DEFAULT_DOMAIN,
    alphabet: int = DEFAULT_ALPHABET,
    depth: int = DEFAULT_DEPTH,
    errors: int = DEFAULT_ERRORS,
    seed: int = 0,
) -> str:
    if min(vars, domain, alphabet, depth) < 1 or errors < 0:
        raise ValueError("generation parameters must be positive")
    rng = Random(seed)
    n = vars
    param = "x"
    error_pool = list(range(1, errors + 1))

    # Staircase layout: v0 is a low digit pumped by one dedicated symbol,
    # v1 a high digit that advances only when the carry symbol lands while
    # v0 sits at its ceiling (v0 resets, odometer style). High v1 readings
    # therefore need long coordinated sequences, while noise symbols poke
    # the remaining vars and occasionally knock the low digit back down.
    staircase = n >= 2 and alphabet >= 2
    if staircase and n > 2:
        free_idx = tuple(range(2, n))
    elif staircase:
        free_idx = (0,)
    else:
        free_idx = tuple(range(n))

    def lit(v: int) -> IntLit:
        return IntLit(v)

    def gvar(i: int) -> Name:
        return Name(f"v{i}")

    def free_var() -> int:
        return free_idx[rng.randrange(len(free_idx))]

    def state_cond() -> Binary:
        i = rng.randrange(n)
        r = rng.random()
        if r < 0.55:
            return Binary("==", gvar(i), lit(rng.randrange(domain)))
        if r < 0.8:
            op = "<" if rng.random() < 0.5 else ">"
            return Binary(op, gvar(i), lit(rng.randrange(domain)))
        if n == 1:
            return Binary("!=", gvar(i), lit(rng.randrange(domain)))
        j = (i + 1 + rng.randrange(n - 1)) % n
        op = "==" if rng.random() < 0.6 else "<"
        return Binary(op, gvar(i), gvar(j))

    def high_val() -> int:
        r = rng.random()
        if r < 0.55:
            return domain - 1
        if r < 0.8:
            return max(0, domain - 2)
        return rng.randrange(domain)

    def error_guard() -> Binary:
        """Guard for an error site, usually pinned to a staircase reading."""
        if not staircase:
            want = 2 if rng.random() < 0.7 else 3
            idxs = rng.sample(range(n), min(n, want))
            cond: Binary = Binary("==", gvar(idxs[0]), lit(high_val()))
            for i in idxs[1:]:
                cond = Binary(
                    "&&", cond, Binary("==", gvar(i), lit(high_val()))
                )
            return cond
        if n > 2 and rng.random() < 0.2:
            cond = Binary("==", gvar(free_var()), lit(rng.randrange(domain)))
            if rng.random() < 0.5:
                cond = Binary(
                    "&&",
                    cond,
                    Binary("==", gvar(free_var()), lit(rng.randrange(domain))),
                )
            return cond
        reading = min(1 + int(rng.random() * 4), domain - 1)
        cond = Binary("==", gvar(1), lit(reading))
        if rng.random() < 0.6:
            cond = Binary(
                "&&", cond, Binary("==", gvar(0), lit(rng.randrange(domain)))
            )
        if n > 2 and rng.random() < 0.25:
            cond = Binary(
                "&&",
                cond,
                Binary("==", gvar(free_var()), lit(rng.randrange(domain))),
            )
        return cond

    def inc(i: int) -> If:
        return If(
            Binary("<", gvar(i), lit(domain - 1)),
            (Assign(f"v{i}", Binary("+", gvar(i), lit(1))),),
            (),
        )

    def dec(i: int) -> If:
        return If(
            Binary(">", gvar(i), lit(0)),
            (Assign(f"v{i}", Binary("-", gvar(i), lit(1))),),
            (),
        )

    def other(i: int) -> int:
        j = (i + 1 + rng.randrange(n - 1)) % n
        if staircase and j == 1:
            j = 0
        return j

    def staged_inc(i: int, j: int) -> If:
        # v_i climbs only while v_j sits at its ceiling
        return If(Binary("==", gvar(j), lit(domain - 1)), (inc(i),), ())

    def update(primary: int | None = None):
        i = primary if primary is not None else free_var()
        r = rng.random()
        if r < 0.40:
            return inc(i)
        if r < 0.55:
            return dec(i)
        if r < 0.70 and n > 1:
            return staged_inc(i, (i + 1 + rng.randrange(n - 1)) % n)
        if r < 0.80:
            return Assign(f"v{i}", lit(rng.randrange(2)))
        if r < 0.88 and n > 1:
            return Assign(f"v{i}", gvar((i + 1 + rng.randrange(n - 1)) % n))
        if r < 0.95 and n > 1:
            # consume: topping out this counter knocks a peer back to zero
            return If(
                Binary("==", gvar(i), lit(domain - 1)),
                (Assign(f"v{other(i)}", lit(0)),),
                (),
            )
        return Emit(rng.randint(10, 99))

    def maybe_error() -> list:
        if error_pool and rng.random() < 0.55:
            k = error_pool.pop(0)
            guard = state_cond() if rng.random() < 0.25 else error_guard()
            return [If(guard, (ErrorStmt(k),), ())]
        return []

    def noise_update(interfere: bool = True):
        if staircase and interfere and rng.random() < 0.12:
            return Assign("v0", lit(0))
        return update(primary=free_var())

    def noise_arm(level: int, interfere: bool = True) -> tuple:
        stmts = list(maybe_error())
        stmts.append(noise_update(interfere))
        if rng.random() < 0.5:
            stmts.append(noise_update(interfere))
        if level < depth and rng.random() < 0.4:
            orelse = (noise_update(interfere),) if rng.random() < 0.5 else ()
            stmts.append(If(state_cond(), (noise_update(interfere),), orelse))
        if rng.random() < 0.2:
            stmts.append(Emit(rng.randint(10, 99)))
        return tuple(stmts)

    def pump_arm() -> tuple:
        stmts = list(maybe_error())
        stmts.append(inc(0))
        if rng.random() < 0.4:
            stmts.append(update(primary=free_var()))
        return tuple(stmts)

    def carry_arm() -> tuple:
        stmts = list(maybe_error())
        stmts.append(
            If(
                Binary("==", gvar(0), lit(domain - 1)),
                (Assign("v0", lit(0)), inc(1)),
                (),
            )
        )
        if rng.random() < 0.4:
            stmts.append(update(primary=free_var()))
        return tuple(stmts)

    dispatch = list(range(1, alphabet + 1))
    rng.shuffle(dispatch)
    dispatch = dispatch[: min(alphabet, 4)]
    s_inc = dispatch[0] if staircase else None
    s_carry = dispatch[1] if staircase else None

    def arm(level: int, sym: "int | None" = None) -> tuple:
        if staircase and sym == s_inc:
            return pump_arm()
        if staircase and sym == s_carry:
            return carry_arm()
        return noise_arm(level)

    def cascade(symbols: tuple, level: int) -> If:
        sym = symbols[0]
        rest = symbols[1:]
        if rest:
            orelse: tuple = (cascade(rest, level),)
        elif rng.random() < 0.25:
            orelse = (Reject(),)
        elif rng.random() < 0.6:
            orelse = noise_arm(level)
        else:
            orelse = ()
        return If(Binary("==", Name(param), lit(sym)), arm(level, sym), orelse)

    body: list = []
    body.append(cascade(tuple(dispatch), 1))
    if alphabet >= 2:
        pivot = rng.randint(2, alphabet)
        body.append(
            If(
                Binary("<", Name(param), lit(pivot)),
                noise_arm(2, interfere=False),
                noise_arm(2, interfere=False),
            )
        )

    # chain the unplaced error ids so paths add instead of multiplying
    def error_chain(ids: list) -> If:
        k = ids[0]
        guard = Binary(
            "&&",
            Binary("==", Name(param), lit(rng.randint(1, alphabet))),
            error_guard(),
        )
        orelse: tuple = (error_chain(ids[1:]),) if len(ids) > 1 else ()
        return If(guard, (ErrorStmt(k),), orelse)

    if error_pool:
        body.append(error_chain(list(error_pool)))
        error_pool.clear()
    if rng.random() < 0.5:
        body.append(update())

    inits = []
    for i in range(n):
        if staircase and i < 2:
            inits.append((f"v{i}", 0))
        else:
            inits.append((f"v{i}", rng.randrange(2)))
    program = Program(
        alphabet_lo=1,
        alphabet_hi=alphabet,
        globals=tuple(inits),
        param=param,
        body=tuple(body),
    )
    return pretty_print(program)


def generate_program(
    vars: int = DEFAULT_VARS,
    domain: int = DEFAULT_DOMAIN,
    alphabet: int = DEFAULT_ALPHABET,
    depth: int = DEFAULT_DEPTH,
    errors: int = DEFAULT_ERRORS,
    seed: int = 0,
) -> Program:
    """Generate and reparse, so the result went through full validation."""
    return parse_or_raise(
        generate_source(
            vars=vars,
            domain=domain,
            alphabet=alphabet,
            depth=depth,
            errors=errors,
            seed=seed,
        )
    )
