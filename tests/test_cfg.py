from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from reachfuzz.cfg import (
    BasicBlock,
    Branch,
    CapacityError,
    Cfg,
    Exit,
    ExitKind,
    Jump,
    assign_block_tags,
    build_cfg,
    count_paths,
    dump_cfg,
    iter_paths,
    topological_order,
)
from reachfuzz.frontend import parse_or_raise, reference_step
from reachfuzz.gen import generate_program

STRAIGHT = "inputs 1..2; var a = 0; var b = 0; step(in){ a = 1; b = 2; }"
DIAMOND = "inputs 1..5; var a = 0; step(in){ if (in == 3) { a = 2; } else { a = 1; } }"


def successors(block):
    t = block.term
    if isinstance(t, Jump):
        return [t.target]
    if isinstance(t, Branch):
        return [t.then_id] if t.then_id == t.else_id else [t.then_id, t.else_id]
    return []


def edges_of(g):
    out = []
    for b in g.blocks:
        for s in successors(b):
            out.append((b.id, s))
    return out


def test_straight_line_shape():
    g = build_cfg(parse_or_raise(STRAIGHT))
    assert len(g.blocks) == 2
    assert len(edges_of(g)) == 1
    assert isinstance(g.blocks[g.entry].term, Jump)
    exits = [b for b in g.blocks if isinstance(b.term, Exit)]
    assert len(exits) == 1 and exits[0].term.kind is ExitKind.OK


def test_diamond_shape():
    g = build_cfg(parse_or_raise(DIAMOND))
    assert len(g.blocks) == 4
    assert len(edges_of(g)) == 4
    assert isinstance(g.blocks[g.entry].term, Branch)
    assert count_paths(g) == 2


def cascade_source(depth):
    """Full if/else tree of the given depth, one distinct leaf per path."""

    def body(d, tag):
        if d == 0:
            return f"a = {tag};"
        return (
            f"if (in == {d}) {{ {body(d - 1, tag * 2)} }} "
            f"else {{ {body(d - 1, tag * 2 + 1)} }}"
        )

    return f"inputs 1..4; var a = 0; step(in){{ {body(depth, 1)} }}"


def test_cascade_path_count():
    g = build_cfg(parse_or_raise(cascade_source(3)))
    assert count_paths(g) == 8
    paths = list(iter_paths(g))
    assert len(paths) == 8
    assert len(set(paths)) == 8
    for p in paths:
        assert p[0] == g.entry
        assert isinstance(g.blocks[p[-1]].term, Exit)


def test_iter_paths_matches_count_on_generated():
    for seed in range(6):
        g = build_cfg(generate_program(vars=2, depth=3, errors=3, seed=seed))
        n = count_paths(g)
        if n <= 4000:
            assert n == sum(1 for _ in iter_paths(g))


def test_paths_follow_edges():
    g = build_cfg(parse_or_raise(cascade_source(2)))
    edge_set = set(edges_of(g))
    for p in iter_paths(g):
        for a, b in zip(p, p[1:]):
            assert (a, b) in edge_set


def test_branch_pairs_diamond():
    g = build_cfg(parse_or_raise(DIAMOND))
    pairs = g.edges()
    assert len(pairs) == 4
    assert pairs == set(edges_of(g))


def test_branch_pairs_straight_line():
    g = build_cfg(parse_or_raise(STRAIGHT))
    assert len(g.edges()) == 1


def test_empty_branch_arms_single_successor():
    g = build_cfg(parse_or_raise("inputs 1..2; var a = 0; step(in){ if (in == 1) {} else {} }"))
    branch_blocks = [b for b in g.blocks if isinstance(b.term, Branch)]
    assert branch_blocks
    for b in branch_blocks:
        if b.term.then_id == b.term.else_id:
            assert successors(b) == [b.term.then_id]
    paths = list(iter_paths(g))
    assert len(paths) == len(set(paths))


def chain_cfg(n, seed=0):
    blocks = []
    for i in range(n - 1):
        blocks.append(BasicBlock(i, (), Jump(i + 1)))
    blocks.append(BasicBlock(n - 1, (), Exit(ExitKind.OK, None)))
    return assign_block_tags(Cfg(tuple(blocks), 0, ()), seed)


def test_tags_deterministic_and_distinct():
    a = chain_cfg(1000, seed=1)
    b = chain_cfg(1000, seed=1)
    c = chain_cfg(1000, seed=2)
    assert a.tags == b.tags
    assert a.tags != c.tags
    assert len(set(a.tags)) == 1000
    assert all(0 <= t < 65536 for t in a.tags)


def test_tags_capacity_error():
    blocks = [BasicBlock(i, (), Jump(i + 1)) for i in range(65537 - 1)]
    blocks.append(BasicBlock(65536, (), Exit(ExitKind.OK, None)))
    try:
        assign_block_tags(Cfg(tuple(blocks), 0, ()), 0)
    except CapacityError:
        return
    raise AssertionError("expected CapacityError above 65536 blocks")


def test_tags_at_capacity_boundary():
    g = chain_cfg(65536)
    assert len(set(g.tags)) == 65536


def test_topological_order_respects_edges():
    for seed in range(4):
        g = build_cfg(generate_program(seed=seed))
        order = topological_order(g)
        assert sorted(order) == sorted(b.id for b in g.blocks)
        pos = {bid: i for i, bid in enumerate(order)}
        for a, b in edges_of(g):
            assert pos[a] < pos[b]


def test_dump_cfg_lists_blocks_and_edges():
    g = build_cfg(parse_or_raise(DIAMOND))
    text = dump_cfg(g)
    assert text.count("block ") == 4
    assert text.count("edge ") == 4
    assert "exit ok" in text


def walk_cfg_step(program, g, values, symbol):
    """Execute one step by walking the graph directly; independent of
    both the code generator and the AST interpreter."""
    from reachfuzz.frontend import Assign, Emit, eval_expr

    if not (program.alphabet_lo <= symbol <= program.alphabet_hi):
        return ("invalid_input", None, values, [])
    env = {name: v for (name, _), v in zip(program.globals, values)}
    env[program.param] = symbol
    outputs = []
    cur = g.entry
    while True:
        block = g.blocks[cur]
        for s in block.stmts:
            if isinstance(s, Assign):
                env[s.name] = eval_expr(s.expr, env)
            elif isinstance(s, Emit):
                outputs.append(s.value)
        t = block.term
        if isinstance(t, Exit):
            final = tuple(env[name] for name, _ in program.globals)
            if t.kind is ExitKind.OK:
                return ("ok", None, final, outputs)
            if t.kind is ExitKind.ERROR:
                return ("error", t.error_id, final, outputs)
            return ("invalid_input", None, final, outputs)
        if isinstance(t, Jump):
            cur = t.target
        else:
            cur = t.then_id if eval_expr(t.cond, env) else t.else_id


@given(st.integers(min_value=0, max_value=60), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_cfg_walk_matches_ast_semantics(seed, rnd):
    program = generate_program(seed=seed)
    g = build_cfg(program)
    for _ in range(40):
        values = tuple(rnd.randrange(-2, 8) for _ in program.globals)
        sym = rnd.randint(program.alphabet_lo, program.alphabet_hi)
        got = walk_cfg_step(program, g, values, sym)
        status, err, final, outs = reference_step(program, values, sym)
        assert got == (status, err, tuple(final), list(outs))


def test_cfg_walk_matches_ast_thousand_pairs():
    import random

    rnd = random.Random(7)
    program = generate_program(seed=11)
    g = build_cfg(program)
    for _ in range(1000):
        values = tuple(rnd.randrange(-4, 12) for _ in program.globals)
        sym = rnd.randint(program.alphabet_lo, program.alphabet_hi)
        got = walk_cfg_step(program, g, values, sym)
        status, err, final, outs = reference_step(program, values, sym)
        assert got == (status, err, tuple(final), list(outs))
