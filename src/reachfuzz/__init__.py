"""Coverage-guided fuzzing toolkit for reactive reachability programs.

Pipeline: parse a reactive step program, lower it to a DAG of basic
blocks, pick a minimal set of blocks whose tags still tell every
entry-to-exit path apart, bound the global variables by interval
analysis to restrict mutation values, then fuzz with dual-map novelty
retention (branch-pair buckets + hashed state-map indices) and check the
verdicts against an exhaustive reachability oracle.
"""

from .cfg import (
    Branch,
    Cfg,
    Exit,
    Jump,
    assign_block_tags,
    build_cfg,
    count_paths,
    dump_cfg,
)
from .executor import (
    BUCKET_LUT,
    MAP_SIZE,
    CompiledTarget,
    GlobalMaps,
    compile_target,
    state_key,
)
from .frontend import (
    Diagnostic,
    Program,
    list_error_ids,
    parse_or_raise,
    parse_program,
    pretty_print,
    reference_step,
    wrap64,
)
from .fuzzer import (
    Campaign,
    ErrorRecord,
    FuzzConfig,
    TestCase,
    baseline_config,
    fuzz_loop,
    init_campaign,
    mutate,
    schedule_energy,
    trim,
    write_outputs,
)
from .gen import generate_source
from .instrument import (
    InstrumentationPlan,
    select_instrumentation,
)
from .interval import Interval, IntervalSummary, analyze, input_value_pool
from .oracle import OracleResult, bfs_reachability

__all__ = [
    "BUCKET_LUT",
    "Branch",
    "Campaign",
    "Cfg",
    "CompiledTarget",
    "Diagnostic",
    "ErrorRecord",
    "Exit",
    "FuzzConfig",
    "GlobalMaps",
    "InstrumentationPlan",
    "Interval",
    "IntervalSummary",
    "Jump",
    "MAP_SIZE",
    "OracleResult",
    "Program",
    "TestCase",
    "analyze",
    "assign_block_tags",
    "baseline_config",
    "bfs_reachability",
    "build_cfg",
    "compile_target",
    "count_paths",
    "dump_cfg",
    "fuzz_loop",
    "generate_source",
    "init_campaign",
    "input_value_pool",
    "list_error_ids",
    "mutate",
    "parse_or_raise",
    "parse_program",
    "pretty_print",
    "reference_step",
    "schedule_energy",
    "select_instrumentation",
    "state_key",
    "trim",
    "wrap64",
    "write_outputs",
]
