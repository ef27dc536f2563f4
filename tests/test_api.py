"""The compatibility surface: the public names of ``pga_mech``, and the
``__all__`` of each submodule naming only what the module defines."""

import importlib

import pga_mech

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
