"""Instrumented execution of a program on an input sequence.

An execution consumes one symbol per step and feeds two fitness maps:
a 65,536-byte branch-pair map (index = (prev_tag >> 1) XOR tag(block),
saturating hit counts, classified into logarithmic buckets) and a state
map, the set of state-map indices that runs reached: the index of a
completed step is the low 16 bits of an FNV-1a hash of the global
valuation after it, so the set holds at most MAP_SIZE ints. The
previous-tag register persists across steps within one run, so branch
pairs capture cross-step sequencing.

One code generator, _emit_body, turns the step body into Python in two
places: the campaign target (program + plan + tags, instrumented) and
the oracle's uninstrumented whole-level expander (compile_expand). Both
translate expressions with one _ExprGen, which folds the branches and
the && / || operands that interval.eval_abs decides with every global
unknown and the input at the alphabet (the target) or at one input
class (each body of the expander). The test suite checks both against
the AST reference interpreter, frontend.reference_step, which also runs
inputs for `replay` and witnesses for `report`. Neither generator makes
a line for `emit`: no caller reads the outputs of a compiled run. The
expander's assignments also keep each successor's oracle key (pack_key)
current.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from operator import itemgetter

from .cfg import Branch, CapacityError, Cfg, Exit, Jump, build_cfg
from .frontend import I64_MAX, I64_MIN, Assign, Binary, IntLit, Name, Program, Unary, is_arith
from .instrument import InstrumentationPlan
from .interval import (
    TOP,
    Interval,
    _collect_input_constants,
    _truth,
    assignment_bounds,
    eval_abs,
    inductive_box,
)

MAP_SIZE = 65536  # branch-pair byte map entries; also state-map indices
DEFAULT_MAX_STEPS = 4096

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


# hit count -> bucket bit: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255
BUCKET_LUT = bytes([0, 1, 2, 4] + [8] * 4 + [16] * 8 + [32] * 16 + [64] * 96 + [128] * 128)
_BUCKETS = list(BUCKET_LUT)  # a list indexes faster than bytes on the hot path


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


def state_entry(key: int) -> "tuple[int, int]":
    """(key, state-map index) of a state key: the index is the key's low
    16 bits. The only place that picks the index."""
    return key, key & 0xFFFF


_INDEX = itemgetter(1)  # the state-map index of a state entry


@dataclass
class GlobalMaps:
    """Campaign-global coverage state: virgin branch buckets and the state
    map, the set of state-map indices that merged runs reached.

    Both only grow; merging is idempotent and order-insensitive. The
    state map holds at most MAP_SIZE ints, however many states the
    program has.
    """

    virgin_branch: bytearray = field(default_factory=lambda: bytearray(MAP_SIZE))
    state_indices: set = field(default_factory=set)

    def merge(self, hits, touched, entries) -> "tuple[bool, bool]":
        """Fold one run into the maps; returns (new_branch, new_state).

        hits holds the run's hit counts, unsaturated (128 and up bucket as
        0x80), and is left zero at every index of touched. entries are the
        run's (key, index) state entries, one per completed step.
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
        seen = self.state_indices
        n = len(seen)
        seen.update(map(_INDEX, entries))
        return new_branch, len(seen) != n

    def branch_bit_count(self) -> int:
        return int.from_bytes(self.virgin_branch, "little").bit_count()

    def state_bit_count(self) -> int:
        return len(self.state_indices)


# --- compiled target --------------------------------------------------------

_WRAP_BIAS = 1 << 63


def _wrap_src(inner: str) -> str:
    return f"((({inner}) + {_WRAP_BIAS}) & {_U64}) - {_WRAP_BIAS}"


class _ExprGen:
    """Translate expressions to Python source, folding what an interval
    environment decides.

    Arithmetic is congruent mod 2^64, so intermediate results stay
    unwrapped and a single wrap is applied where a value becomes
    observable: assignments, emits, comparison operands, truth tests.
    Names and literals are always already in wrapped form.

    env maps every global and the input parameter to an Interval; a
    condition whose interval has a definite truth value is decided, and a
    decided operand of && or || is dropped. reads_input records whether
    any emitted expression still names the input parameter.

    scale maps the generated name of each global to its key multiplier
    in the oracle's expander (compile_expand), whose assignments keep
    the state key nk current; it is empty for the campaign target.
    """

    def __init__(
        self, rename: dict, bounds: dict, env: dict, param: str, scale: "dict | None" = None
    ):
        self.rename = rename
        self.bounds = bounds  # assignment bounds of the program's step
        self.env = env
        self.param = param
        self.scale = scale or {}
        self.reads_input = False
        self.known: dict = {}  # id of a condition -> its decision

    def decide(self, cond) -> "bool | None":
        """The truth value of a condition under env, when it has one:
        _truth(eval_abs(cond, env)). A !, && or || takes it from its
        operands' decisions by eval_abs's truth table, so a chain of n
        operands is evaluated once, not n times."""
        key = id(cond)
        if key in self.known:
            return self.known[key]
        if isinstance(cond, Unary) and cond.op == "!":
            t = self.decide(cond.operand)
            t = None if t is None else not t
        elif isinstance(cond, Binary) and cond.op in ("&&", "||"):
            # the right operand counts only when the left one does not
            # decide the result: False decides &&, True decides ||
            absorbing = cond.op == "||"
            t = self.decide(cond.lhs)
            if t is not absorbing:
                tb = self.decide(cond.rhs)
                t = tb if tb is absorbing or (t is not None and tb is not None) else None
        else:
            t = _truth(eval_abs(cond, self.env))
        self.known[key] = t
        return t

    def value(self, e) -> str:
        """Source congruent to the value mod 2^64 (may exceed i64 range)."""
        if isinstance(e, IntLit):
            return repr(e.value)
        if isinstance(e, Name):
            if e.ident == self.param:
                self.reads_input = True
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
        if not is_arith(e):
            return self.value(e)
        return f"({_wrap_src(self.value(e))})"

    def truth(self, e) -> str:
        known = self.decide(e)
        if known is not None:
            return repr(known)
        if isinstance(e, Unary) and e.op == "!":
            return f"(not {self.truth(e.operand)})"
        if isinstance(e, Binary):
            if e.op in ("&&", "||"):
                # an operand equal to the operator's identity (True for &&,
                # False for ||) does not change the result
                identity = e.op == "&&"
                if self.decide(e.lhs) is identity:
                    return self.truth(e.rhs)
                if self.decide(e.rhs) is identity:
                    return self.truth(e.lhs)
                return f"({self.truth(e.lhs)} {'and' if identity else 'or'} {self.truth(e.rhs)})"
            if e.op not in ("+", "-", "*"):
                return f"({self.wrapped(e.lhs)} {e.op} {self.wrapped(e.rhs)})"
        return f"({self.wrapped(e)} != 0)"

    def assign(self, target: str, st: Assign, pad: str) -> "list[str]":
        """Statements storing the exact signed-64 value of st's expression
        in target, and, when target has a scale M, keeping nk current.

        An arithmetic result is wrapped only when it leaves the signed
        64-bit range, and it is tested only on a side that its bound
        before wrapping passes: a comparison costs less than the three
        big-int operations of an unconditional wrap. An assignment with
        no bound (no feasible path reaches it) keeps both tests.

        nk changes by a constant where it can: by c*M for target =
        target + c or c + target, and by -c*M for target - c, when there
        is no wrap test; and by (c - target)*M before target = c. Any
        other assignment takes target*M off nk before it and adds it back
        after it.
        """
        e = st.expr
        tests = []
        if not is_arith(e):
            lines = [f"{pad}{target} = {self.wrapped(e)}"]
        else:
            bound = self.bounds.get(id(st), TOP)
            if bound.hi > I64_MAX:
                tests.append(f"{target} > {I64_MAX}")
            if bound.lo < I64_MIN:
                tests.append(f"{target} < {I64_MIN}")
            lines = [f"{pad}{target} = {self.value(e)}"]
            if tests:
                lines.append(f"{pad}if {' or '.join(tests)}:")
                lines.append(f"{pad}    {target} = {_wrap_src(target)}")
        m = self.scale.get(target)
        if m is None:
            return lines
        if isinstance(e, IntLit):
            return [f"{pad}nk += {_times(f'{e.value} - {target}', m)}", *lines]
        c = None if tests else _increment(e, st.name)
        if c is not None:
            return [f"{pad}nk += {c * m}", *lines]
        held = _times(target, m)
        return [f"{pad}nk -= {held}", *lines, f"{pad}nk += {held}"]


def _times(src: str, m: int) -> str:
    """Source for src * m, for an int m."""
    return src if m == 1 else f"({src}) * {m}"


def _increment(e, name: str) -> "int | None":
    """c when e is name + c or c + name, and -c when e is name - c, for
    a literal c; else None."""
    if not isinstance(e, Binary) or e.op not in ("+", "-"):
        return None
    lhs, rhs = e.lhs, e.rhs
    if e.op == "+" and isinstance(lhs, IntLit):
        lhs, rhs = rhs, lhs
    if isinstance(lhs, Name) and lhs.ident == name and isinstance(rhs, IntLit):
        return rhs.value if e.op == "+" else -rhs.value
    return None


_DEAD = -1  # known-prev value of a path that has left the step loop


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
# id k. The campaign target leaves its step loop with a status word; the
# oracle's expander records the error and moves on to the next symbol
# (compile_expand turns continue into break in a body that runs once).
_BREAK_ERROR = ("st = 'error'", "err = {k}", "break")
_BREAK_REJECT = ("st = 'invalid_input'", "break")
_SKIP_ERROR = ("if {k} not in found:", "    found[{k}] = (key, _s)", "continue")
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
) -> "tuple[int | None, int]":
    """Emit structured Python for the block subgraph from bid up to stop.

    The lowering only produces series-parallel DAGs, so every branch
    carries the join hint needed to rebuild if/else nesting.

    prev is the previous tag known at compile time on entry, or None when
    only the runtime register `prev` holds it. Returns the value known on
    exit (_DEAD when every path leaves the step) and, when the lines
    emitted here begin with an if statement, len(lines) at its end (else
    -1): they are exactly that statement iff it is len(lines). A known
    tag is stored to the register only where paths with different tags
    join, or by the caller at the end of the step.

    on_error and on_reject are the line templates of the two non-ok
    exits. `emit` statements make no line.

    A branch whose condition gen decides is replaced by its taken arm, an
    arm that emits no line is left out, and an else arm that is a single
    if statement becomes an elif, so else-if chains add no indentation
    and take time linear in their length.
    """
    pad = "    " * depth
    tags = g.tags
    start = len(lines)
    if_end = -1  # len(lines) after an if statement that began at start
    while bid != stop:
        blk = g.block(bid)
        if bid in instrumented:
            _probe(lines, pad, prev, tags[bid])
            prev = tags[bid]
        for st in blk.stmts:
            if isinstance(st, Assign):
                lines.extend(gen.assign(gen.rename[st.name], st, pad))
        term = blk.term
        if isinstance(term, Jump):
            bid = term.target
            continue
        if isinstance(term, Exit):
            if term.kind != "ok":
                # ok-exits fall through to the step epilogue
                for line in on_error if term.kind == "error" else on_reject:
                    lines.append(pad + line.format(k=term.error_id))
                prev = _DEAD
            break
        join = term.join_id
        then_id, else_id = term.then_id, term.else_id
        known = gen.decide(term.cond)
        if known is not None:
            # the taken arm leads on to the join like any other block
            bid = then_id if known else else_id
            continue
        # the then arm is emitted one level deeper, the else arm at this
        # depth, so an elif takes its lines as they are
        arms = []  # (lines, exit value, end of a leading if statement)
        for arm_id, arm_depth in ((then_id, depth + 1), (else_id, depth)):
            if arm_id == join:
                break  # no else arm
            sub: "list[str]" = []
            arms.append((sub, *_emit_body(
                g, instrumented, gen, sub, arm_id, join, arm_depth, prev,
                on_error, on_reject,
            )))
        ends = [k for _, k, _ in arms]
        if len(arms) == 1:
            ends.append(prev)  # the path that skips the single arm
        live = {k for k in ends if k != _DEAD}
        if len(live) > 1:
            # the paths disagree: each one stores its known tag
            if len(arms) == 1 and prev is not None:
                lines.append(f"{pad}prev = {prev}")
            for (sub, k, _), arm_pad in zip(arms, (pad + "    ", pad)):
                if k is not None and k != _DEAD:
                    sub.append(f"{arm_pad}prev = {k}")
            prev = None
        else:
            prev = live.pop() if live else _DEAD
        head = len(lines)
        then = arms[0][0]
        orelse = arms[1][0] if len(arms) == 2 else []
        cond = gen.truth(term.cond) if then or orelse else ""
        if then:
            lines.append(f"{pad}if {cond}:")
            lines.extend(then)
        elif orelse:
            # conditions have no effects, so an empty then arm negates
            lines.append(f"{pad}if not {cond}:")
        if orelse and then and arms[1][2] == len(orelse):
            orelse[0] = pad + "el" + orelse[0][len(pad):]
            lines.extend(orelse)
        elif orelse:
            if then:
                lines.append(pad + "else:")
            lines.extend("    " + line for line in orelse)
        if head == start and len(lines) > head:
            if_end = len(lines)
        if join is None:
            break
        bid = join
    return prev, if_end


def _names(program: Program, bounds: dict) -> "tuple[_ExprGen, str, str]":
    """Expression generator over the generated names (_g<i> for the i-th
    global, _s for the symbol), with the assignment bounds bounds, every
    global at TOP and the input at the alphabet interval; the unpack
    target of a valuation and the source of the valuation tuple."""
    rename = {name: f"_g{i}" for i, (name, _) in enumerate(program.globals)}
    rename[program.param] = "_s"
    gvars = [rename[name] for name in program.global_names()]
    unpack = "".join(v + ", " for v in gvars)
    env = dict.fromkeys(program.global_names(), TOP)
    env[program.param] = Interval(program.alphabet_lo, program.alphabet_hi)
    gen = _ExprGen(rename, bounds, env, program.param)
    return gen, unpack, f"({unpack})"


@dataclass
class CompiledTarget:
    """A program + plan + tag table compiled to a Python function.

    fn(seq, counts, touched, state_entries, key_cache) -> (status,
    error_id), with status one of "ok", "error", "invalid_input",
    "step_limit" and error_id None unless it is "error". A run stops after
    DEFAULT_MAX_STEPS steps. Callers own the buffers, so campaign loops
    can reuse scratch storage across runs.
    counts is a list of MAP_SIZE ints that the run leaves zero outside
    touched; its hit counts are not saturated (a list index costs less
    than a bytearray one), so readers clamp them at 255.
    state_entries collects one cached state_entry pair, (key, index), per
    completed step, so map merging needs no per-step arithmetic.

    Four optional arguments follow key_cache. The first three are for a
    run that resumes another one part way:
    - start, the (valuation, prev tag, steps done) of a run that has
      completed `steps done` steps, with counts, touched and
      state_entries holding what those steps left there. The run goes on
      from there over seq, the symbols after those steps, and extends
      the buffers. The step limit counts the steps done, so the run
      stops on the same step as a run from the initial state over the
      whole input. Only seq is scanned for out-of-alphabet symbols.
    - cut and snap: when the run completes its cut-th step (counting
      the steps done), it sets snap, a list, to the snapshot
      [start, touched, counts, state entries] of that point, the last
      three copied from the buffers, counts as the hit count of each
      touched index. A run that ends before, or that starts at or past
      the cut, leaves snap as it is. load_snapshot readies the buffers
      and the start for a run that resumes from a snapshot.

    The fourth, allow, is a set of state-map indices, for trim's trials.
    A run given one returns (None, None) on its first completed step
    whose index is not in allow, with that step's entry the last of
    state_entries; the run it resumes past a cut carries allow on. Its
    counts stay as the steps so far left them, so the caller zeroes
    them at touched. None is no status word: only trim passes allow.
    """

    fn: "object"
    key_cache: dict = field(default_factory=dict)


def load_snapshot(snap, counts, touched, state_entries):
    """Load snap, a snapshot list of a CompiledTarget run, into empty
    buffers and return the start to pass with them: None for [], the
    initial state."""
    if not snap:
        return None
    start, done_touched, done_counts, done_entries = snap
    touched.extend(done_touched)
    state_entries.extend(done_entries)
    for i, n in zip(done_touched, done_counts):
        counts[i] = n
    return start


def _nesting_limit(generator):
    """Wrap a code generator so that it raises CapacityError where the
    program nests deeper than source can be generated for (the recursion
    limit) or Python compiles (indentation levels, parentheses or the
    compiler's recursion limit)."""

    @wraps(generator)
    def generate(*args):
        try:
            return generator(*args)
        except (SyntaxError, RecursionError) as exc:
            raise CapacityError(f"the program nests too deeply to compile ({exc})") from None

    return generate


@_nesting_limit
def compile_target(program: Program, g: Cfg, plan: InstrumentationPlan) -> CompiledTarget:
    """The campaign target.

    The valid prefix of the input is found before the step loop: C-level
    min/max settle the usual all-valid case, so steps carry no bounds or
    step-limit checks, and the loop's else clause sets the status the
    prefix ended on. A cut that falls in the prefix ends the loop there
    (tail None); the else clause takes the snapshot and the function
    calls itself, from it, on the rest. So the step body is generated
    once and at the same indentation as without a cut. The source is
    generated here, not in a helper, so that an else-if chain recurses
    through _emit_body from the same call depth as in compile_expand.
    The step body runs only for symbols of the alphabet, so a branch or
    an operand of && or || that the alphabet decides is folded.
    """
    if g.tags is None:
        raise ValueError("cfg carries no tag table")
    gen, unpack, tuple_src = _names(program, assignment_bounds(program))
    lo, hi = program.alphabet_lo, program.alphabet_hi

    lines = [
        "def _target(seq, m, t, sk, kc, start=None, cut=-1, snap=None, allow=None,"
        " _fnv=state_key, _entry=state_entry):",
        "    if start is None:",
    ]
    for (name, init) in program.globals:
        lines.append(f"        {gen.rename[name]} = {init}")
    lines.append(f"        prev = {g.tags[g.entry]}")
    lines.append("        done = 0")
    lines.append("    else:")
    lines.append(f"        [{unpack}], prev, done = start")
    lines.append("    err = None")
    lines.append("    t_append = t.append")
    lines.append("    sk_append = sk.append")
    lines.append("    seq = tuple(seq)")
    lines.append("    n = len(seq)")
    lines.append("    end = n")
    lines.append("    tail = 'ok'")
    lines.append(f"    if n > {DEFAULT_MAX_STEPS} - done:")
    lines.append(f"        end = {DEFAULT_MAX_STEPS} - done")
    lines.append("        tail = 'step_limit'")
    lines.append(f"    if n and (min(seq) < {lo} or max(seq) > {hi}):")
    lines.append("        j = 0")
    lines.append(f"        while j < end and {lo} <= seq[j] <= {hi}:")
    lines.append("            j += 1")
    lines.append("        if j < end:")
    lines.append("            end = j")
    lines.append("            tail = 'invalid_input'")
    lines.append("    if done < cut <= done + end:")
    lines.append("        end = cut - done")
    lines.append("        tail = None")
    lines.append("    for _s in (seq if end == n else seq[:end]):")
    last, _ = _emit_body(g, plan.instrumented, gen, lines, g.entry, None, 2)
    if last is not None and last != _DEAD:
        lines.append(f"        prev = {last}")
    lines.append(f"        v = {tuple_src}")
    lines.append("        try:")
    lines.append("            e = kc[v]")
    lines.append("        except KeyError:")
    lines.append("            kc[v] = e = _entry(_fnv(v))")
    lines.append("        sk_append(e)")
    lines.append("        if allow is not None and e[1] not in allow:")
    lines.append("            return None, None")
    lines.append("    else:")
    lines.append("        if tail is None:")
    lines.append("            snap[:] = ((v, prev, cut), t[:], list(map(m.__getitem__, t)), sk[:])")
    lines.append("            return _target(seq[end:], m, t, sk, kc, snap[0], -1, None, allow)")
    lines.append("        st = tail")
    lines.append("    return st, err")
    source = "\n".join(lines) + "\n"
    return CompiledTarget(fn=_compile(source, "<compiled-target>", "_target"))


def _compile(source: str, filename: str, name: str):
    """Compile generated source and return the function it defines as
    name."""
    namespace = {"state_key": state_key, "state_entry": state_entry}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


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


def pack_key(values, digits) -> int:
    """The oracle key of a valuation in the box of digits, a (lo, radix)
    pair per global: the sum of (value - lo) * M over the globals, where
    M is the product of the radices before it."""
    key, m = 0, 1
    for v, (lo, radix) in zip(values, digits):
        key += (v - lo) * m
        m *= radix
    return key


def unpack_key(key: int, digits) -> "tuple[int, ...]":
    """The valuation whose pack_key is key."""
    values = []
    for lo, radix in digits:
        key, d = divmod(key, radix)
        values.append(lo + d)
    return tuple(values)


def _assigned(g: Cfg, writes: list, fold: _ExprGen) -> set:
    """The globals that _emit_body(g, ..., fold, ...) assigns: the union
    of writes, a set of names per block, over the blocks it emits,
    walked from the entry with an explicit stack. A branch that fold
    decides leads to its taken arm, any other to both arms and its join.
    fold caches each decision for the emission."""
    names: set = set()
    blocks, decide = g.blocks, fold.decide
    todo, met = [g.entry], {g.entry}
    while todo:
        bid = todo.pop()
        names |= writes[bid]
        term = blocks[bid].term
        if type(term) is Jump:
            nxt: tuple = (term.target,)
        elif type(term) is Branch:
            known = decide(term.cond)
            if known is not None:
                nxt = (term.then_id if known else term.else_id,)
            elif term.join_id is None:
                nxt = (term.then_id, term.else_id)
            else:
                nxt = (term.then_id, term.else_id, term.join_id)
        else:
            continue
        for bid in nxt:
            if bid not in met:
                met.add(bid)
                todo.append(bid)
    return names


@_nesting_limit
def compile_expand(program: Program):
    """Uninstrumented expansion of a whole BFS level, for exhaustive
    exploration, keyed by pack_key.

    Returns (expand, classes, digits): classes holds, per generated body,
    the symbols it runs for, and digits the (lo, radix) of each global's
    digit in the keys, from interval.inductive_box. expand(frontier,
    keys, seen, append, keep, link, found, cap, classes) -> bool steps
    each state of frontier, in order, by every alphabet symbol, in
    alphabet order; keys holds the pack_key of each state of frontier, at
    the same index:
    - an error k not yet in found sets found[k] = (key, symbol), key
      being the state's;
    - a rejected step is a dead end;
    - a completed step's valuation v whose key is not in the set seen
      has its key added to it and passed to keep, v passed to append,
      and the key of the state it was stepped from to link, while
      len(seen) < cap.
    The result is True iff cap refused a new valuation.

    Contract: every state of frontier lies in the box, as every
    reachable state does. The wrap tests and the key of a successor
    rest on it: each state is unpacked once into _g0.._gN, each body
    starts with nk = key and each assignment keeps nk current
    (_ExprGen.assign), so a successor is looked up in seen by its key,
    with no tuple built or hashed unless it is new. A body reads the
    globals it never assigns from the _g names; for each global that it
    can assign (_assigned), and only those, it first copies _gK to _hK
    and works on _hK. The step is walked once, by inductive_box, which
    also gives the wrap tests their bounds. A countdown of the room
    left under cap admits new states.

    The alphabet is cut into input classes (_input_classes), and each
    class gets its own body, folded as the campaign target is but with
    the input at the class interval: a decided branch becomes its taken
    arm and a decided operand of && or || is dropped. A class whose
    every path rejects gets no body. Bodies that no longer name the
    input and have the same text are merged and run once, for their
    smallest symbol, as a `while cJ:` block that ends in break and
    records that symbol as a literal; a body that still names the input
    runs for each symbol of its class, in a `for _s in cJ:` loop that
    copies afresh for each symbol. The bodies run in the order of their
    smallest symbol, so appends, refusals and found entries come in the
    order of stepping each symbol in turn. Passing classes with one
    body's tuple set to (symbol,) and the others empty steps by that
    symbol alone.
    """
    g = build_cfg(program)
    writes = [{st.name for st in blk.stmts if isinstance(st, Assign)} for blk in g.blocks]
    box, bounds = inductive_box(program)
    gen, unpack, _ = _names(program, bounds)
    names = program.global_names()
    digits = tuple((iv.lo, iv.hi - iv.lo + 1) for iv in box.values())
    held = {name: "_h" + gen.rename[name][2:] for name in names}  # K -> _hK
    scale, m = {}, 1
    for name, (_, radix) in zip(box, digits):
        scale[held[name]] = m
        m *= radix
    pad = "            "
    classes: "list[tuple[int, ...]]" = []
    bodies: "list[str]" = []
    merged: set = set()
    for run in _input_classes(program):
        env = dict(gen.env, **{program.param: Interval(run.start, run.stop - 1)})
        fold = _ExprGen(gen.rename, bounds, env, program.param, scale)
        assigned = _assigned(g, writes, fold)
        fold.rename = dict(gen.rename, **{name: held[name] for name in assigned})
        body = [f"{pad}{held[name]} = {gen.rename[name]}" for name in names if name in assigned]
        body.append(f"{pad}nk = key")
        end, _ = _emit_body(
            g, frozenset(), fold, body, g.entry, None, 3,
            on_error=_SKIP_ERROR, on_reject=_SKIP_REJECT,
        )
        if end == _DEAD and not any("found[" in line for line in body):
            continue  # every path rejects
        if end != _DEAD:
            successor = "".join(fold.rename[name] + ", " for name in names)
            body.extend([
                f"{pad}if nk not in seen:",
                f"{pad}    if room:",
                f"{pad}        room -= 1",
                f"{pad}        seen_add(nk)",
                f"{pad}        append(({successor}))",
                f"{pad}        keep(nk)",
                f"{pad}        link(key)",
                f"{pad}    else:",
                f"{pad}        full = True",
            ])
        text = "\n".join(body)
        j = len(bodies)
        if fold.reads_input:
            classes.append(tuple(run))
            bodies.append(f"        for _s in c{j}:\n{text}")
            continue
        if text in merged:
            continue
        merged.add(text)
        classes.append((run.start,))
        # a body that runs once ends every path in break
        text = text.replace("(key, _s)", f"(key, {run.start})").replace("continue", "break")
        bodies.append(f"        while c{j}:\n{text}\n{pad}break")

    lines = [
        "def _expand(frontier, keys, seen, append, keep, link, found, cap, classes):",
        "    full = False",
        "    seen_add = seen.add",
        "    room = max(cap - len(seen), 0)",
    ]
    if bodies:
        lines.append("    " + "".join(f"c{j}, " for j in range(len(bodies))) + "= classes")
    lines.append("    for values, key in zip(frontier, keys):")
    if unpack:
        lines.append(f"        {unpack}= values")
    lines.extend(bodies)
    if not bodies and not unpack:
        lines.append("        pass")
    lines.append("    return full")
    expand = _compile("\n".join(lines) + "\n", "<compiled-expand>", "_expand")
    return expand, tuple(classes), digits
