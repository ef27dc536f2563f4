"""The compatibility surface: the public names of ``pga_mech``, the
``__all__`` of each submodule naming only what the module defines, and
library calls that leave no cyclic garbage behind."""

import gc
import importlib
import random

import pga_mech
from pga_mech import (
    SearchBounds,
    codegen,
    compare,
    extract_functional,
    extract_mechanistic,
    improve_step,
    minimize,
    pareto_front,
    parse_pga,
    parse_thread,
    search_implementations,
    unchain,
)

PUBLIC = [
    "ComparisonVerdict",
    "Instruction",
    "InstrSeq",
    "JumpResolution",
    "Node",
    "PgaSyntaxError",
    "RewriteError",
    "RewriteStep",
    "RewriteVerificationError",
    "SearchBounds",
    "SearchBudgetExceeded",
    "TERMINATE",
    "ThreadGraph",
    "ThreadSyntaxError",
    "basic",
    "bisimilar",
    "canonical_position",
    "canonicalize",
    "codegen",
    "collapse_divergence",
    "compare",
    "eliminate_jump_to_termination",
    "expand_test_chain",
    "extract_functional",
    "extract_mechanistic",
    "functional_abstraction",
    "functionally_equivalent",
    "graph_to_dict",
    "has_adjacent_delays",
    "improve_step",
    "improves",
    "instruction_at",
    "is_implementation",
    "is_pre_extraction",
    "jump",
    "jump_target",
    "make_d",
    "make_delay",
    "make_post",
    "make_prefix",
    "make_s",
    "minimize",
    "neg_test",
    "pareto_front",
    "parse_pga",
    "parse_thread",
    "pos_test",
    "print_pga",
    "print_thread",
    "reachable_positions",
    "rewrite_negtest_jump",
    "search_implementations",
    "splice",
    "strictly_improves",
    "to_dot",
    "to_json",
    "unchain",
    "unroll",
]

MODULES = ("extraction", "instructions", "ordering", "rewrites", "search", "threads")


def test_public_names_are_pinned():
    assert len(PUBLIC) == 58
    assert pga_mech.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(pga_mech, name), name


def test_submodule_all_names_exist():
    for module_name in MODULES:
        module = importlib.import_module(f"pga_mech.{module_name}")
        assert len(set(module.__all__)) == len(module.__all__), module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"


def test_library_calls_leave_no_cyclic_garbage():
    # a reference cycle keeps everything it reaches alive until the cyclic
    # collector runs; on 10^4-instruction inputs that is most of the memory
    rng = random.Random(13)
    pool = ("a", "b", "+a", "-b", "#1", "#2", "#3", "c.d")
    text = (";".join(rng.choice(pool) for _ in range(2_000)) + ";("
            + ";".join(rng.choice(pool) for _ in range(8_000)) + ";!)^w")
    seq = parse_pga(text)
    graph = extract_mechanistic(seq)
    thread_text = "P = a . Q\nQ = b ? P : R\nR = S"
    chain = parse_pga("(+a;#4;+b;#4;!)^w")
    target = parse_thread("P = a . Q; Q = S")
    results = search_implementations(target, SearchBounds(3, 0, ("a",)))
    calls = {
        "parse_pga": lambda: parse_pga(text),
        "parse_thread": lambda: parse_thread(thread_text),
        "extract_mechanistic": lambda: extract_mechanistic(seq),
        "extract_functional": lambda: extract_functional(seq),
        "minimize": lambda: minimize(graph),
        "compare": lambda: compare(graph, graph),
        "unchain": lambda: unchain(parse_pga("#2;a;#1;b;!")),
        "improve_step": lambda: improve_step(chain),
        "codegen": lambda: codegen(parse_thread(thread_text)),
        "search_implementations":
            lambda: search_implementations(target, SearchBounds(3, 0, ("a",))),
        "pareto_front": lambda: pareto_front(results),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, call in calls.items():
            gc.collect()
            call()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()
