"""Constraint-guided fuzzing toolchain for a tensor-operator framework.

The pipeline: collect operators from descriptors, extract validation
constraints from kernel IR by taint analysis, lift them to
frontend-parameter expressions, derive generation templates, and run
guided campaigns against a random baseline with crash findings
classified by input causality.
"""

from .constraints import (
    Constraint,
    ConstraintTree,
    classify_constraints,
    evaluate,
    evaluate_tree,
    normal_form,
    parse_constraint,
    parse_tree,
    render,
    serialize_tree,
    toposort_params,
    tree_equal,
)
from .corpus import Corpus, decode_binding, encode_binding, load_corpus, provision_fixtures
from .extractor import extract_constraints, find_sinks, propagate_taint, seed_sources
from .generator import GuidedGenerator, build_control_template, build_data_template, generate_random
from .orchestrator import (
    CampaignConfig,
    classify_causality,
    compare_reports,
    parse_config,
    run_campaign,
    write_report,
)
from .registry import OpSpec, Registry, build_registry, cluster_entities, parse_opspecs

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "Constraint",
    "ConstraintTree",
    "Corpus",
    "GuidedGenerator",
    "OpSpec",
    "Registry",
    "build_control_template",
    "build_data_template",
    "build_registry",
    "classify_causality",
    "classify_constraints",
    "cluster_entities",
    "compare_reports",
    "decode_binding",
    "encode_binding",
    "evaluate",
    "evaluate_tree",
    "extract_constraints",
    "find_sinks",
    "generate_random",
    "load_corpus",
    "normal_form",
    "parse_config",
    "parse_constraint",
    "parse_opspecs",
    "parse_tree",
    "propagate_taint",
    "provision_fixtures",
    "render",
    "run_campaign",
    "seed_sources",
    "serialize_tree",
    "toposort_params",
    "tree_equal",
    "write_report",
]
