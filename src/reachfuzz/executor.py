"""Instrumented execution of a program on an input sequence.

An execution consumes one symbol per step and feeds two fitness maps:
a 65,536-byte branch-pair map (index = (prev_tag >> 1) XOR tag(block),
saturating hit counts, classified into logarithmic buckets) and a
65,536-bit state map indexed by an FNV-1a hash of the global valuation
after each completed step. The previous-tag register persists across
steps within one run, so branch pairs capture cross-step sequencing.

One code generator turns the step body into Python: the campaign target
(program + plan + tags, instrumented), an uninstrumented single step
(compile_step) and the oracle's whole-level expander (compile_expand).
The test suite checks them against the AST reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .cfg import CapacityError, Cfg, Exit, ExitKind, Jump, build_cfg
from .frontend import Assign, Binary, IntLit, Name, Program, Unary
from .instrument import InstrumentationPlan
from .interval import TOP, Interval, _collect_input_constants, _truth, eval_abs

MAP_SIZE = 65536  # branch-pair byte map entries; also state-map bit count
STATE_BYTES = MAP_SIZE // 8
DEFAULT_MAX_STEPS = 4096
DEFAULT_STATE_KEY_CAP = 10**6

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_INVALID = "invalid_input"
STATUS_STEP_LIMIT = "step_limit"
STATUS_BY_CODE = (STATUS_OK, STATUS_ERROR, STATUS_INVALID, STATUS_STEP_LIMIT)


# hit count -> bucket bit: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255
BUCKET_LUT = bytes([0, 1, 2, 4] + [8] * 4 + [16] * 8 + [32] * 16 + [64] * 96 + [128] * 128)
_BUCKETS = list(BUCKET_LUT)  # a list indexes faster than bytes on the hot path


def classify_counts(raw: int) -> int:
    """Bucket bitmask for a raw hit count (0, 1, 2, 3, 4-7, ... 128-255)."""
    return BUCKET_LUT[raw]


def state_key(values) -> int:
    """FNV-1a 64-bit over little-endian 8-byte two's-complement encodings.

    Values are hashed in declaration order; the empty valuation hashes to
    the offset basis. Bit-exact by construction.
    """
    h = FNV_OFFSET
    for v in values:
        for byte in (v & _U64).to_bytes(8, "little"):
            h = ((h ^ byte) * FNV_PRIME) & _U64
    return h


def state_entry(key: int) -> "tuple[int, int, int]":
    """(key, byte index, bit mask) of a state key's state-map bit, the one
    at the key's low 16 bits. The only place that picks the bit."""
    i = key & 0xFFFF
    return key, i >> 3, 1 << (i & 7)


@dataclass(frozen=True)
class ExecResult:
    """Everything one execution produced.

    counts is the local 65,536-byte branch map with raw saturating hit
    counts; touched lists exactly the nonzero indices (first-touch order).
    state_keys has one entry per completed step, in step order.
    """

    status: str
    error_id: "int | None"
    steps: int
    counts: bytearray
    touched: "tuple[int, ...]"
    state_keys: "tuple[int, ...]"
    outputs: "tuple[int, ...]"
    final_values: "tuple[int, ...]"


@dataclass(frozen=True)
class NoveltyReport:
    new_branch_bits: bool
    new_state_bits: bool


_KEY = itemgetter(0)


@dataclass
class GlobalMaps:
    """Campaign-global coverage state: virgin branch buckets + state bits.

    Bits are only ever set; merging is idempotent and order-insensitive
    for the final bit state. state_keys holds the keys whose bits merge
    has set, up to state_key_cap of them; a run whose keys are all there
    can set no bit, which spares merge the per-step loop.
    """

    virgin_branch: bytearray = field(default_factory=lambda: bytearray(MAP_SIZE))
    state_bits: bytearray = field(default_factory=lambda: bytearray(STATE_BYTES))
    state_keys: set = field(default_factory=set)
    state_key_cap: int = DEFAULT_STATE_KEY_CAP

    def merge(self, hits, touched, entries) -> "tuple[bool, bool]":
        """Fold one run into the maps; returns (new_branch, new_state).

        hits holds the run's hit counts, unsaturated (128 and up bucket as
        0x80), and is left zero at every index of touched. entries are the
        run's (key, byte, mask) state entries, one per completed step.
        """
        virgin = self.virgin_branch
        lut = _BUCKETS
        new_branch = False
        for idx in touched:
            n = hits[idx]
            hits[idx] = 0
            mask = lut[n] if n < 256 else 0x80
            cur = virgin[idx]
            if mask & ~cur:
                virgin[idx] = cur | mask
                new_branch = True
        new_state = False
        keys = self.state_keys
        if not keys.issuperset(map(_KEY, entries)):
            bits = self.state_bits
            cap = self.state_key_cap
            for key, bi, mask in entries:
                b = bits[bi]
                if not b & mask:
                    bits[bi] = b | mask
                    new_state = True
                if len(keys) < cap:
                    keys.add(key)
        return new_branch, new_state

    def merge_and_report(self, result: ExecResult) -> NoveltyReport:
        entries = [state_entry(k) for k in result.state_keys]
        return NoveltyReport(*self.merge(bytearray(result.counts), result.touched, entries))

    def branch_bit_count(self) -> int:
        return int.from_bytes(self.virgin_branch, "little").bit_count()

    def state_bit_count(self) -> int:
        return int.from_bytes(self.state_bits, "little").bit_count()


# --- compiled target --------------------------------------------------------

_WRAP_BIAS = 1 << 63


def _wrap_src(inner: str) -> str:
    return f"((({inner}) + {_WRAP_BIAS}) & {_U64}) - {_WRAP_BIAS}"


class _ExprGen:
    """Translate expressions to Python source.

    Arithmetic is congruent mod 2^64, so intermediate results stay
    unwrapped and a single wrap is applied where a value becomes
    observable: assignments, emits, comparison operands, truth tests.
    Names and literals are always already in wrapped form.
    """

    def __init__(self, rename: dict):
        self.rename = rename

    def decide(self, cond) -> "bool | None":
        """The truth value of a branch condition when it is known at
        compile time; the campaign target knows none."""
        return None

    def value(self, e) -> str:
        """Source congruent to the value mod 2^64 (may exceed i64 range)."""
        if isinstance(e, IntLit):
            return repr(e.value)
        if isinstance(e, Name):
            return self.rename[e.ident]
        if isinstance(e, Unary):
            if e.op == "-":
                return f"(-{self.value(e.operand)})"
            return f"(0 if {self.truth(e.operand)} else 1)"
        if e.op in ("+", "-", "*"):
            return f"({self.value(e.lhs)} {e.op} {self.value(e.rhs)})"
        if e.op in ("&&", "||"):
            return f"(1 if {self.truth(e)} else 0)"
        return f"(1 if {self.wrapped(e.lhs)} {e.op} {self.wrapped(e.rhs)} else 0)"

    def wrapped(self, e) -> str:
        """Source for the exact signed-64 value."""
        if isinstance(e, (IntLit, Name)):
            return self.value(e)
        if isinstance(e, Unary) and e.op == "!":
            return self.value(e)
        if isinstance(e, Binary) and e.op not in ("+", "-", "*"):
            return self.value(e)
        return f"({_wrap_src(self.value(e))})"

    def truth(self, e) -> str:
        if isinstance(e, IntLit):
            return "True" if e.value else "False"
        if isinstance(e, Unary) and e.op == "!":
            return f"(not {self.truth(e.operand)})"
        if isinstance(e, Binary):
            if e.op == "&&":
                return f"({self.truth(e.lhs)} and {self.truth(e.rhs)})"
            if e.op == "||":
                return f"({self.truth(e.lhs)} or {self.truth(e.rhs)})"
            if e.op not in ("+", "-", "*"):
                return f"({self.wrapped(e.lhs)} {e.op} {self.wrapped(e.rhs)})"
        return f"({self.wrapped(e)} != 0)"

    def assign(self, target: str, e, pad: str) -> "list[str]":
        """Statements storing the exact signed-64 value of e in target.

        An arithmetic result is wrapped only when it leaves the signed
        64-bit range: two comparisons cost less than the three big-int
        operations of an unconditional wrap.
        """
        arith = (isinstance(e, Unary) and e.op == "-") or (
            isinstance(e, Binary) and e.op in ("+", "-", "*")
        )
        if not arith:
            return [f"{pad}{target} = {self.wrapped(e)}"]
        return [
            f"{pad}{target} = {self.value(e)}",
            f"{pad}if {target} > {_WRAP_BIAS - 1} or {target} < {-_WRAP_BIAS}:",
            f"{pad}    {target} = {_wrap_src(target)}",
        ]


_DEAD = -1  # known-prev value of a path that has left the step loop


class _FoldGen(_ExprGen):
    """An _ExprGen that folds what an interval environment decides.

    env maps every global and the input parameter to an Interval; a
    condition whose interval has a definite truth value is decided, and a
    decided operand of && or || is dropped. reads_input records whether
    any emitted expression still names the input parameter.
    """

    def __init__(self, rename: dict, env: dict, param: str):
        super().__init__(rename)
        self.env = env
        self.param = param
        self.reads_input = False
        self.known: dict = {}  # id of a condition -> its decision

    def decide(self, cond) -> "bool | None":
        key = id(cond)
        if key not in self.known:
            self.known[key] = self._decide(cond)
        return self.known[key]

    def _decide(self, e) -> "bool | None":
        """_truth(eval_abs(e, env)), without evaluating the second operand
        of a logical operator that the first one decides."""
        if isinstance(e, Unary) and e.op == "!":
            known = self.decide(e.operand)
            return None if known is None else not known
        if isinstance(e, Binary) and e.op in ("&&", "||"):
            absorbing = e.op == "||"  # the value that decides the operator
            lhs = self.decide(e.lhs)
            if lhs is absorbing:
                return absorbing
            rhs = self.decide(e.rhs)
            if rhs is absorbing or (lhs is not None and rhs is not None):
                return rhs
            return None
        return _truth(eval_abs(e, self.env))

    def value(self, e) -> str:
        if isinstance(e, Name) and e.ident == self.param:
            self.reads_input = True
        return super().value(e)

    def truth(self, e) -> str:
        known = self.decide(e)
        if known is not None:
            return repr(known)
        if isinstance(e, Binary) and e.op in ("&&", "||"):
            # an operand equal to the operator's identity (True for &&,
            # False for ||) does not change the result
            identity = e.op == "&&"
            if self.decide(e.lhs) is identity:
                return self.truth(e.rhs)
            if self.decide(e.rhs) is identity:
                return self.truth(e.lhs)
        return super().truth(e)


def _probe(lines: "list[str]", pad: str, prev: "int | None", tag: int) -> None:
    """Hit-count one instrumented block. prev is the previous tag when it
    is known at compile time, which folds the map index to a constant."""
    if prev is None:
        lines.append(f"{pad}i = (prev >> 1) ^ {tag}")
        idx = "i"
    else:
        idx = str((prev >> 1) ^ tag)
    lines.append(f"{pad}c = m[{idx}]")
    lines.append(f"{pad}if c:")
    lines.append(f"{pad}    m[{idx}] = c + 1")
    lines.append(f"{pad}else:")
    lines.append(f"{pad}    m[{idx}] = 1")
    lines.append(f"{pad}    t_append({idx})")


# Non-ok exit templates, one source line each, formatted with the error
# id k. The campaign target and compile_step leave their step loop with a
# status code; the oracle's expander records the error and moves on to
# the next symbol.
_BREAK_ERROR = ("st = 1", "err = {k}", "break")
_BREAK_REJECT = ("st = 2", "break")
_SKIP_ERROR = ("if {k} not in found:", "    found[{k}] = (values, _s)", "continue")
_SKIP_REJECT = ("continue",)


def _emit_body(
    g: Cfg,
    instrumented: frozenset,
    gen: _ExprGen,
    lines: "list[str]",
    bid: int,
    stop: "int | None",
    depth: int,
    prev: "int | None" = None,
    on_error: "tuple[str, ...]" = _BREAK_ERROR,
    on_reject: "tuple[str, ...]" = _BREAK_REJECT,
    outputs: bool = True,
) -> "int | None":
    """Emit structured Python for the block subgraph from bid up to stop.

    The lowering only produces series-parallel DAGs, so every branch
    carries the join hint needed to rebuild if/else nesting.

    prev is the previous tag known at compile time on entry, or None when
    only the runtime register `prev` holds it; the value known on exit is
    returned (_DEAD when every path leaves the step). A known tag is
    stored to the register only where paths with different tags join, or
    by the caller at the end of the step.

    on_error and on_reject are the line templates of the two non-ok
    exits; outputs=False drops `emit` statements.

    A branch whose condition gen decides is replaced by its taken arm, an
    arm that emits no line is left out, and an else arm that is a single
    if statement becomes an elif, so else-if chains add no indentation.
    """
    pad = "    " * depth
    tags = g.tags
    while bid != stop:
        blk = g.block(bid)
        if bid in instrumented:
            _probe(lines, pad, prev, tags[bid])
            prev = tags[bid]
        for st in blk.stmts:
            if isinstance(st, Assign):
                lines.extend(gen.assign(gen.rename[st.name], st.expr, pad))
            elif outputs:
                lines.append(f"{pad}out_append({st.value})")
        term = blk.term
        if isinstance(term, Jump):
            bid = term.target
            continue
        if isinstance(term, Exit):
            if term.kind is ExitKind.OK:
                # ok-exits fall through to the step epilogue
                return prev
            error = term.kind is ExitKind.ERROR
            for line in on_error if error else on_reject:
                lines.append(pad + line.format(k=term.error_id))
            return _DEAD
        join = term.join_id
        then_id, else_id = term.then_id, term.else_id
        if then_id == else_id:
            # both arms empty: condition is pure, nothing to evaluate
            bid = then_id
            continue
        known = gen.decide(term.cond)
        if known is not None:
            # the taken arm leads on to the join like any other block
            bid = then_id if known else else_id
            continue
        negate = then_id == join
        if negate:
            arm_ids = [else_id]
        else:
            arm_ids = [then_id] if else_id == join else [then_id, else_id]
        arms = []
        for arm_id in arm_ids:
            sub: "list[str]" = []
            end = _emit_body(
                g, instrumented, gen, sub, arm_id, join, depth + 1, prev,
                on_error, on_reject, outputs,
            )
            arms.append((sub, end))
        ends = [k for _, k in arms]
        if len(arms) == 1:
            ends.append(prev)  # the path that skips the single arm
        live = {k for k in ends if k != _DEAD}
        if len(live) > 1:
            # the paths disagree: each one stores its known tag
            if len(arms) == 1 and prev is not None:
                lines.append(f"{pad}prev = {prev}")
            for sub, k in arms:
                if k is not None and k != _DEAD:
                    sub.append(f"{pad}    prev = {k}")
            prev = None
        else:
            prev = live.pop() if live else _DEAD
        # conditions have no effects, so an if with no arm left goes too
        if len(arms) == 2 and not arms[0][0]:
            negate, arms = True, arms[1:]
        if arms[0][0]:
            lines.append(f"{pad}if {'not ' if negate else ''}{gen.truth(term.cond)}:")
            lines.extend(arms[0][0])
        if len(arms) == 2 and arms[1][0]:
            orelse = arms[1][0]
            if _single_if(orelse, pad + "    "):
                lines.append(pad + "el" + orelse[0].lstrip())
                lines.extend(line[4:] for line in orelse[1:])
            else:
                lines.append(pad + "else:")
                lines.extend(orelse)
        if join is None:
            return prev
        bid = join
    return prev


def _single_if(lines: "list[str]", pad: str) -> bool:
    """Whether lines, indented by pad, are exactly one if statement."""
    if not lines or not lines[0].startswith(pad + "if "):
        return False
    n = len(pad)
    return all(
        line[n] == " " or line.startswith(("elif ", "else:"), n) for line in lines[1:]
    )


def _names(program: Program) -> "tuple[_ExprGen, str, str]":
    """Expression generator over the generated names (_g<i> for the i-th
    global, _s for the symbol), the unpack target of a valuation and the
    source of the valuation tuple."""
    rename = {name: f"_g{i}" for i, (name, _) in enumerate(program.globals)}
    rename[program.param] = "_s"
    gvars = [rename[name] for name in program.global_names()]
    unpack = "".join(v + ", " for v in gvars)
    return _ExprGen(rename), unpack, f"({unpack})"


def _generate_source(program: Program, g: Cfg, instrumented: frozenset) -> str:
    """Source of the campaign target.

    The valid prefix of the input is found before the step loop: C-level
    min/max settle the usual all-valid case, so steps carry no bounds or
    step-limit checks, and the loop's else clause sets the status the
    prefix ended on.
    """
    gen, _, tuple_src = _names(program)
    lo, hi = program.alphabet_lo, program.alphabet_hi

    lines = [
        "def _target(seq, max_steps, m, t, sk, kc, out, _fnv=state_key, _entry=state_entry):",
    ]
    for (name, init) in program.globals:
        lines.append(f"    {gen.rename[name]} = {init}")
    lines.append(f"    prev = {g.tags[g.entry]}")
    lines.append("    err = -1")
    lines.append("    t_append = t.append")
    lines.append("    sk_append = sk.append")
    lines.append("    out_append = out.append")
    lines.append("    base = len(sk)")
    lines.append("    seq = tuple(seq)")
    lines.append("    n = len(seq)")
    lines.append("    end = n")
    lines.append("    tail = 0")
    lines.append("    if n > max_steps:")
    lines.append("        end = max_steps if max_steps > 0 else 0")
    lines.append("        tail = 3")
    lines.append(f"    if n and (min(seq) < {lo} or max(seq) > {hi}):")
    lines.append("        j = 0")
    lines.append(f"        while j < end and {lo} <= seq[j] <= {hi}:")
    lines.append("            j += 1")
    lines.append("        if j < end:")
    lines.append("            end = j")
    lines.append("            tail = 2")
    lines.append("    for _s in (seq if end == n else seq[:end]):")
    last = _emit_body(g, instrumented, gen, lines, g.entry, None, 2)
    if last is not None and last != _DEAD:
        lines.append(f"        prev = {last}")
    lines.append(f"        v = {tuple_src}")
    lines.append("        try:")
    lines.append("            sk_append(kc[v])")
    lines.append("        except KeyError:")
    lines.append("            kc[v] = e = _entry(_fnv(v))")
    lines.append("            sk_append(e)")
    lines.append("    else:")
    lines.append("        st = tail")
    lines.append(f"    return st, err, len(sk) - base, {tuple_src}")
    return "\n".join(lines) + "\n"


@dataclass
class CompiledTarget:
    """A program + plan + tag table compiled to a Python function.

    fn(seq, max_steps, counts, touched, state_entries, key_cache, outputs)
    -> (status_code, error_id, steps, final_values); callers own the
    buffers, so campaign loops can reuse scratch storage across runs.
    counts is a list of MAP_SIZE ints that the run leaves zero outside
    touched; its hit counts are not saturated (a list index costs less
    than a bytearray one), so readers clamp them at 255.
    state_entries collects one cached state_entry triple per completed
    step, so map merging needs no per-step arithmetic.
    """

    fn: "object"
    source: str
    key_cache: dict = field(default_factory=dict)

    def run(self, input_seq, max_steps: int = DEFAULT_MAX_STEPS) -> ExecResult:
        hits = [0] * MAP_SIZE
        touched: "list[int]" = []
        entries: "list[tuple[int, int, int]]" = []
        outputs: "list[int]" = []
        code, err, steps, final = self.fn(
            input_seq, max_steps, hits, touched, entries, self.key_cache, outputs
        )
        counts = bytearray(MAP_SIZE)
        for i in touched:
            counts[i] = min(hits[i], 255)
        return ExecResult(
            status=STATUS_BY_CODE[code],
            error_id=err if code == 1 else None,
            steps=steps,
            counts=counts,
            touched=tuple(touched),
            state_keys=tuple(e[0] for e in entries),
            outputs=tuple(outputs),
            final_values=final,
        )


def compile_target(program: Program, g: Cfg, plan: InstrumentationPlan) -> CompiledTarget:
    if g.tags is None:
        raise ValueError("cfg carries no tag table")
    source = _generate_source(program, g, plan.instrumented)
    return CompiledTarget(fn=_compile(source, "<compiled-target>", "_target"), source=source)


def _compile(source: str, filename: str, name: str):
    """Compile generated source and return the function it defines as
    name. CapacityError when the source nests deeper than Python compiles
    (indentation levels, parentheses or the compiler's recursion limit)."""
    namespace = {"state_key": state_key, "state_entry": state_entry}
    try:
        code = compile(source, filename, "exec")
    except (SyntaxError, RecursionError) as exc:
        raise CapacityError(f"the program nests too deeply to compile ({exc})") from None
    exec(code, namespace)
    return namespace[name]


def compile_step(program: Program):
    """Uninstrumented single-step function.

    Returns step(values_tuple, symbol) -> (status, error_id, new_values)
    built from the same code generator as the campaign target, so both
    engines share one set of semantics.
    """
    g = _bare_cfg(program)
    gen, unpack, tuple_src = _names(program)

    lines = ["def _step(values, _s):"]
    if unpack:
        lines.append(f"    {unpack}= values")
    lines.append("    st = 0")
    lines.append("    err = -1")
    lines.append(f"    if _s < {program.alphabet_lo} or _s > {program.alphabet_hi}:")
    lines.append("        st = 2")
    lines.append("    else:")
    lines.append("        for _ in (0,):")
    _emit_body(g, frozenset(), gen, lines, g.entry, None, 3, outputs=False)
    lines.append(f"    return st, err, {tuple_src}")
    return _compile("\n".join(lines) + "\n", "<compiled-step>", "_step")


def _input_classes(program: Program) -> "list[range]":
    """The alphabet cut into runs of symbols that no comparison with a
    constant tells apart: a run boundary lies at c and at c + 1 for every
    constant c that the program compares its input against."""
    lo, hi = program.alphabet_lo, program.alphabet_hi
    cuts = {lo, hi + 1}
    for c in _collect_input_constants(program):
        cuts.update(b for b in (c, c + 1) if lo < b <= hi)
    bounds = sorted(cuts)
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def compile_expand(program: Program):
    """Uninstrumented expansion of a whole BFS level, for exhaustive
    exploration.

    Returns (expand, classes), where classes holds, per generated body,
    the symbols it runs for. expand(frontier, seen, append, found, cap,
    classes) -> bool steps each state of frontier, in order, by every
    alphabet symbol, in alphabet order:
    - an error k not yet in found sets found[k] = (state, symbol);
    - a rejected step is a dead end;
    - a completed step's valuation v that is not in seen is stored as
      seen[v] = state and passed to append, while len(seen) < cap.
    The result is True iff cap refused a new valuation.

    The alphabet is cut into input classes (_input_classes), and each
    class gets its own body, folded with the input at the class interval
    and every global unknown: a decided branch becomes its taken arm and
    a decided operand of && or || is dropped. A class whose every path
    rejects gets no body. Bodies that no longer name the input and have
    the same text are merged and run once, for their smallest symbol; a
    body that still names the input runs for each symbol of its class.
    The bodies run in the order of their smallest symbol, so appends,
    refusals and found entries come in the order of stepping each symbol
    in turn. Passing classes with one body's tuple set to (symbol,) and
    the others empty steps by that symbol alone.
    """
    g = _bare_cfg(program)
    gen, unpack, tuple_src = _names(program)
    pad = "            "
    epilogue = [
        f"{pad}v = {tuple_src}",
        f"{pad}if v not in seen:",
        f"{pad}    if len(seen) < cap:",
        f"{pad}        seen[v] = values",
        f"{pad}        append(v)",
        f"{pad}    else:",
        f"{pad}        full = True",
    ]
    unknown = {name: TOP for name in program.global_names()}
    classes: "list[tuple[int, ...]]" = []
    bodies: "list[list[str]]" = []
    merged: set = set()
    for run in _input_classes(program):
        env = dict(unknown, **{program.param: Interval(run.start, run.stop - 1)})
        fold = _FoldGen(gen.rename, env, program.param)
        body = [f"{pad}{unpack}= values"] if unpack else []
        end = _emit_body(
            g, frozenset(), fold, body, g.entry, None, 3,
            on_error=_SKIP_ERROR, on_reject=_SKIP_REJECT, outputs=False,
        )
        if end == _DEAD and not any("found[" in line for line in body):
            continue  # every path rejects
        if end != _DEAD:
            body.extend(epilogue)
        if fold.reads_input:
            classes.append(tuple(run))
        else:
            text = "\n".join(body)
            if text in merged:
                continue
            merged.add(text)
            classes.append((run.start,))
        bodies.append(body)

    lines = [
        "def _expand(frontier, seen, append, found, cap, classes):",
        "    full = False",
    ]
    if bodies:
        lines.append("    " + "".join(f"c{j}, " for j in range(len(bodies))) + "= classes")
    lines.append("    for values in frontier:")
    for j, body in enumerate(bodies):
        lines.append(f"        for _s in c{j}:")
        lines.extend(body)
    if not bodies:
        lines.append("        pass")
    lines.append("    return full")
    return _compile("\n".join(lines) + "\n", "<compiled-expand>", "_expand"), tuple(classes)


def _bare_cfg(program: Program) -> Cfg:
    g = build_cfg(program)
    return Cfg(blocks=g.blocks, entry=g.entry, tags={b.id: 0 for b in g.blocks})


def run(
    program: Program,
    g: Cfg,
    plan: InstrumentationPlan,
    input_seq,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecResult:
    """Compile the campaign target and run it once."""
    return compile_target(program, g, plan).run(input_seq, max_steps)
