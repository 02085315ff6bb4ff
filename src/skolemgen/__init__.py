"""Exhaustive generation, counting and verification of Skolem sequences,
with the derived Steiner-triple-system construction."""

from .core import (
    EMPTY_STATE,
    Entry,
    InvalidSequenceError,
    OpenState,
    SkolemSequence,
    add_closers,
    add_opener,
    children,
    is_skolem_label,
    parent,
    parse_state,
    reverse,
    state_from_sequence,
    validate_skolem,
)
from .engine import (
    EnumerationReport,
    count_open_levels,
    dfs_enumerate,
    enumerate_skolem,
    parallel_count,
    parallel_enumerate,
    prune_feasible,
)
from .oracle import oracle_enumerate, oracle_validate
from .render import render_arc_diagram
from .sts import TripleSystem, base_blocks, develop_sts, verify_sts

__version__ = "0.1.0"

__all__ = [
    "EMPTY_STATE",
    "Entry",
    "EnumerationReport",
    "InvalidSequenceError",
    "OpenState",
    "SkolemSequence",
    "TripleSystem",
    "add_closers",
    "add_opener",
    "base_blocks",
    "children",
    "count_open_levels",
    "develop_sts",
    "dfs_enumerate",
    "enumerate_skolem",
    "is_skolem_label",
    "oracle_enumerate",
    "oracle_validate",
    "parallel_count",
    "parallel_enumerate",
    "parent",
    "parse_state",
    "prune_feasible",
    "render_arc_diagram",
    "reverse",
    "state_from_sequence",
    "validate_skolem",
    "verify_sts",
]
