"""RRP language front end: lexer, parser, validation, reference semantics.

RRP (Reactive Reachability Program) is a small imperative language for
reactive step machines: a program declares an input symbol range, integer
state variables, and a single ``step`` body made of branching cascades.
There are no loops inside the step; iteration comes from feeding the step
a stream of input symbols, one per step.

Grammar (comments run ``//`` to end of line)::

    program    := inputsDecl varDecl* stepDef
    inputsDecl := "inputs" INT ".." INT ";"
    varDecl    := "var" IDENT "=" INT ";"
    stepDef    := "step" "(" IDENT ")" block
    block      := "{" stmt* "}"
    stmt       := IDENT "=" expr ";"
                | "if" "(" expr ")" block ["else" (block | ifStmt)]
                | "emit" INT ";"
                | "error" INT ";"
                | "reject" ";"
    expr       := unary (BINOP unary)*
    unary      := ("-" | "!") unary | INT | IDENT | "(" expr ")"

BINOP is one of || && == != < <= > >= + - *. How tightly each binds is
the table _PREC, from || (loosest) to * (tightest); all are
left-associative. IDENT in an expression names a global or the step's
input parameter.

All integer arithmetic is signed 64-bit with wraparound on overflow.
Comparisons yield 0/1; logical operators treat any nonzero value as true.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
_U64_MASK = (1 << 64) - 1
_BIAS = 1 << 63

MAX_ALPHABET = 4096

KEYWORDS = frozenset({"inputs", "var", "step", "if", "else", "emit", "error", "reject"})


def wrap64(x: int) -> int:
    """Reduce an arbitrary integer to signed 64-bit two's-complement."""
    return ((x + _BIAS) & _U64_MASK) - _BIAS


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# Positions are carried for diagnostics but excluded from equality, so a
# reparse of pretty-printed output compares structurally identical.


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit:
    value: int
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class Name:
    ident: str
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class Binary:
    op: str  # + - * == != < <= > >= && ||
    lhs: "Expr"
    rhs: "Expr"
    pos: "tuple[int, int] | None" = _pos_field()


Expr = Union[IntLit, Name, Unary, Binary]


@dataclass(frozen=True)
class Assign:
    name: str
    expr: Expr
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "tuple[Stmt, ...]"
    orelse: "tuple[Stmt, ...]"  # empty tuple when there is no else
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class Emit:
    value: int
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class ErrorStmt:
    error_id: int
    pos: "tuple[int, int] | None" = _pos_field()


@dataclass(frozen=True)
class Reject:
    pos: "tuple[int, int] | None" = _pos_field()


Stmt = Union[Assign, If, Emit, ErrorStmt, Reject]


@dataclass(frozen=True)
class Program:
    """A parsed, validated reactive program."""

    alphabet_lo: int
    alphabet_hi: int
    globals: tuple  # ordered (name, initial value) pairs
    param: str
    body: tuple  # Stmt sequence

    def alphabet(self) -> range:
        return range(self.alphabet_lo, self.alphabet_hi + 1)

    def global_names(self) -> "tuple[str, ...]":
        return tuple(name for name, _ in self.globals)

    def initial_values(self) -> "tuple[int, ...]":
        return tuple(value for _, value in self.globals)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    col: int
    message: str

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # "int", "ident", a keyword, a punctuator, or "eof"
    value: "int | str | None"
    line: int
    col: int


_PUNCT2 = ("..", "==", "!=", "<=", ">=", "&&", "||")
_PUNCT1 = ";=(){}+-*<>!"


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message


def tokenize(text: str) -> "list[Token]":
    tokens = []
    i, n = 0, len(text)
    line, col = 1, 1
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(tuple(_PUNCT2), i):
            two = text[i : i + 2]
            tokens.append(Token(two, None, line, col))
            i += 2
            col += 2
            continue
        if "0" <= c <= "9":
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(Token("int", int(text[start:i]), line, col))
            col += i - start
            continue
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_":
            start = i
            while i < n and (
                ("a" <= text[i] <= "z")
                or ("A" <= text[i] <= "Z")
                or ("0" <= text[i] <= "9")
                or text[i] == "_"
            ):
                i += 1
            word = text[start:i]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        if c in _PUNCT1:
            tokens.append(Token(c, None, line, col))
            i += 1
            col += 1
            continue
        raise LexError(line, col, f"unexpected character {c!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Binding strength of the binary operators, loosest first; unary - and !
# bind tighter than all of them. The parser climbs this table and
# format_expr reads it, so it is the one statement of precedence.
_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
         "+": 4, "-": 4, "*": 5}
_UNARY_PREC = 6


class _ParseError(Exception):
    def __init__(self, token: Token, message: str):
        super().__init__(message)
        self.token = token
        self.message = message


class _Parser:
    def __init__(self, tokens: "list[Token]"):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def accept(self, kind: str) -> "Token | None":
        if self.peek().kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: "str | None" = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.kind if tok.kind != "eof" else "end of input"
            raise _ParseError(tok, f"expected {what or kind!r}, found {found!r}")
        return self.advance()

    def parse_int(self) -> "tuple[int, Token]":
        neg = self.accept("-")
        tok = self.expect("int", "integer literal")
        value = -tok.value if neg else tok.value
        return wrap64(value), (neg or tok)

    def parse_program(self):
        self.expect("inputs")
        lo, _ = self.parse_int()
        self.expect("..")
        hi, _ = self.parse_int()
        self.expect(";")
        decls = []
        while self.peek().kind == "var":
            self.advance()
            name_tok = self.expect("ident", "variable name")
            self.expect("=")
            init, _ = self.parse_int()
            self.expect(";")
            decls.append((name_tok.value, init, (name_tok.line, name_tok.col)))
        self.expect("step")
        self.expect("(")
        param_tok = self.expect("ident", "parameter name")
        self.expect(")")
        body = self.parse_block()
        self.expect("eof", "end of input")
        return lo, hi, decls, param_tok, body

    def parse_block(self) -> "tuple[Stmt, ...]":
        self.expect("{")
        stmts = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return tuple(stmts)

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "emit":
            self.advance()
            value, _ = self.parse_int()
            self.expect(";")
            return Emit(value, pos=(tok.line, tok.col))
        if tok.kind == "error":
            self.advance()
            error_id, _ = self.parse_int()
            self.expect(";")
            return ErrorStmt(error_id, pos=(tok.line, tok.col))
        if tok.kind == "reject":
            self.advance()
            self.expect(";")
            return Reject(pos=(tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(tok.value, expr, pos=(tok.line, tok.col))
        raise _ParseError(tok, f"expected a statement, found {tok.kind!r}")

    def parse_if(self) -> If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block()
        orelse: "tuple[Stmt, ...]" = ()
        if self.accept("else"):
            if self.peek().kind == "if":
                orelse = (self.parse_if(),)
            else:
                orelse = self.parse_block()
        return If(cond, then, orelse, pos=(tok.line, tok.col))

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: the operand, then every operator binding at
        least min_prec, each with a right operand that binds tighter, so
        every operator is left-associative."""
        e = self.parse_unary()
        while _PREC.get(self.peek().kind, 0) >= min_prec:
            tok = self.advance()
            rhs = self.parse_expr(_PREC[tok.kind] + 1)
            e = Binary(tok.kind, e, rhs, pos=(tok.line, tok.col))
        return e

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "!"):
            self.advance()
            operand = self.parse_unary()
            # Fold negated literals so pretty-printed negatives reparse to
            # the identical tree.
            if tok.kind == "-" and isinstance(operand, IntLit):
                return IntLit(wrap64(-operand.value), pos=(tok.line, tok.col))
            return Unary(tok.kind, operand, pos=(tok.line, tok.col))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(wrap64(tok.value), pos=(tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            return Name(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise _ParseError(tok, f"expected an expression, found {tok.kind!r}")


def is_arith(e: Expr) -> bool:
    """Whether e is a sum, difference, product or negation: the nodes
    that generated code computes without wrapping."""
    return (isinstance(e, Unary) and e.op == "-") or (
        isinstance(e, Binary) and e.op in ("+", "-", "*")
    )


def walk_exprs(e: Expr, out: "list | None" = None) -> "list[Expr]":
    """e and every subexpression of it, in preorder, appended to out (a
    new list by default)."""
    if out is None:
        out = []
    out.append(e)
    if isinstance(e, Unary):
        walk_exprs(e.operand, out)
    elif isinstance(e, Binary):
        walk_exprs(e.lhs, out)
        walk_exprs(e.rhs, out)
    return out


def walk_stmts(stmts, out: "list | None" = None) -> "list[Stmt]":
    """Every statement of stmts and of the arms nested in them, in
    preorder, appended to out (a new list by default)."""
    if out is None:
        out = []
    for st in stmts:
        out.append(st)
        if isinstance(st, If):
            walk_stmts(st.then, out)
            walk_stmts(st.orelse, out)
    return out


def _validate(lo, hi, decls, param_tok, body) -> "list[Diagnostic]":
    diags = []
    if lo > hi:
        diags.append(Diagnostic("error", 1, 1, "empty alphabet"))
    elif hi - lo + 1 > MAX_ALPHABET:
        diags.append(
            Diagnostic("error", 1, 1, f"alphabet larger than {MAX_ALPHABET} symbols")
        )
    seen = {}
    for name, _, pos in decls:
        if name in seen:
            diags.append(Diagnostic("error", pos[0], pos[1], f"duplicate declaration {name}"))
        seen[name] = pos
    param = param_tok.value
    if param in seen:
        diags.append(
            Diagnostic(
                "error",
                param_tok.line,
                param_tok.col,
                f"input parameter {param} collides with a global declaration",
            )
        )
    declared = set(seen) | {param}

    def check_expr(e: Expr):
        for node in walk_exprs(e):
            if isinstance(node, Name) and node.ident not in declared:
                line, col = node.pos or (1, 1)
                diags.append(
                    Diagnostic("error", line, col, f"undeclared identifier {node.ident}")
                )

    for st in walk_stmts(body):
        if isinstance(st, Assign):
            if st.name not in seen:
                line, col = st.pos or (1, 1)
                if st.name == param:
                    diags.append(
                        Diagnostic("error", line, col, "cannot assign to the input parameter")
                    )
                else:
                    diags.append(
                        Diagnostic("error", line, col, f"undeclared identifier {st.name}")
                    )
            check_expr(st.expr)
        elif isinstance(st, If):
            check_expr(st.cond)
    return diags


def parse_program(text: str) -> "Program | list[Diagnostic]":
    """Parse and validate RRP source.

    Total: returns a valid Program, or a non-empty Diagnostic list, never
    both and never neither.
    """
    try:
        tokens = tokenize(text)
    except LexError as e:
        return [Diagnostic("error", e.line, e.col, e.message)]
    parser = _Parser(tokens)
    try:
        lo, hi, decls, param_tok, body = parser.parse_program()
        diags = _validate(lo, hi, decls, param_tok, body)
    except _ParseError as e:
        return [Diagnostic("error", e.token.line, e.token.col, e.message)]
    except RecursionError:
        # the parser and the validator recurse once per nesting level
        tok = parser.peek()
        return [Diagnostic("error", tok.line, tok.col, "program nests too deeply")]
    if diags:
        return diags
    program = Program(
        alphabet_lo=lo,
        alphabet_hi=hi,
        globals=tuple((name, init) for name, init, _ in decls),
        param=param_tok.value,
        body=body,
    )
    return program


def parse_or_raise(text: str) -> Program:
    result = parse_program(text)
    if isinstance(result, Program):
        return result
    raise ValueError("; ".join(d.render() for d in result))


def list_error_ids(program: Program) -> frozenset:
    """All error ids appearing syntactically in the step body, deduplicated."""
    return frozenset(
        st.error_id for st in walk_stmts(program.body) if isinstance(st, ErrorStmt)
    )


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def format_expr(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(e, IntLit):
        s = str(e.value)
        prec = _UNARY_PREC if e.value >= 0 else _UNARY_PREC - 1
    elif isinstance(e, Name):
        return e.ident
    elif isinstance(e, Unary):
        s = e.op + format_expr(e.operand, _UNARY_PREC)
        prec = _UNARY_PREC
    else:
        prec = _PREC[e.op]
        s = (
            format_expr(e.lhs, prec)
            + f" {e.op} "
            + format_expr(e.rhs, prec, right=True)
        )
    if prec < parent_prec or (right and prec == parent_prec):
        return f"({s})"
    return s


def _format_stmts(stmts, indent: int, out: "list[str]"):
    pad = "    " * indent
    for st in stmts:
        if not isinstance(st, If):
            out.append(pad + format_stmt_inline(st))
            continue
        out.append(f"{pad}if ({format_expr(st.cond)}) {{")
        _format_stmts(st.then, indent + 1, out)
        if st.orelse:
            out.append(f"{pad}}} else {{")
            _format_stmts(st.orelse, indent + 1, out)
        out.append(f"{pad}}}")


def pretty_print(program: Program) -> str:
    out = [f"inputs {program.alphabet_lo}..{program.alphabet_hi};"]
    for name, init in program.globals:
        out.append(f"var {name} = {init};")
    out.append(f"step({program.param}) {{")
    _format_stmts(program.body, 1, out)
    out.append("}")
    return "\n".join(out) + "\n"


def format_stmt_inline(st: Stmt) -> str:
    """Single-line rendering of a statement other than if, used by the
    pretty printer and the CFG dump."""
    if isinstance(st, Assign):
        return f"{st.name} = {format_expr(st.expr)};"
    if isinstance(st, Emit):
        return f"emit {st.value};"
    if isinstance(st, ErrorStmt):
        return f"error {st.error_id};"
    if isinstance(st, Reject):
        return "reject;"
    raise TypeError(f"not a linear statement: {st!r}")


# ---------------------------------------------------------------------------
# Reference semantics (AST walk)
# ---------------------------------------------------------------------------


def eval_expr(e: Expr, env: dict) -> int:
    """Evaluate an expression under wrapping 64-bit integer semantics."""
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Name):
        return env[e.ident]
    if isinstance(e, Unary):
        if e.op == "-":
            return wrap64(-eval_expr(e.operand, env))
        return 0 if eval_expr(e.operand, env) else 1
    op = e.op
    if op == "&&":
        return 1 if (eval_expr(e.lhs, env) and eval_expr(e.rhs, env)) else 0
    if op == "||":
        return 1 if (eval_expr(e.lhs, env) or eval_expr(e.rhs, env)) else 0
    a = eval_expr(e.lhs, env)
    b = eval_expr(e.rhs, env)
    if op == "+":
        return wrap64(a + b)
    if op == "-":
        return wrap64(a - b)
    if op == "*":
        return wrap64(a * b)
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "<":
        return 1 if a < b else 0
    if op == "<=":
        return 1 if a <= b else 0
    if op == ">":
        return 1 if a > b else 0
    return 1 if a >= b else 0


def reference_step(program: Program, values: "tuple[int, ...]", symbol: int):
    """One reactive step by direct AST interpretation.

    Returns (status, error_id, new_values, outputs) with status one of
    "ok", "error", "invalid_input". The independent baseline the
    generated code is checked against.
    """
    if not (program.alphabet_lo <= symbol <= program.alphabet_hi):
        return "invalid_input", None, values, []
    env = dict(zip(program.global_names(), values))
    env[program.param] = symbol
    outputs: "list[int]" = []

    def run_block(stmts) -> "tuple[str, int | None]":
        for st in stmts:
            if isinstance(st, Assign):
                env[st.name] = eval_expr(st.expr, env)
            elif isinstance(st, Emit):
                outputs.append(st.value)
            elif isinstance(st, ErrorStmt):
                return "error", st.error_id
            elif isinstance(st, Reject):
                return "invalid_input", None
            else:
                taken = st.then if eval_expr(st.cond, env) else st.orelse
                status, err = run_block(taken)
                if status != "ok":
                    return status, err
        return "ok", None

    status, err = run_block(program.body)
    new_values = tuple(env[name] for name in program.global_names())
    return status, err, new_values, outputs
