"""Workbench for measurement-based (one-way) computation patterns.

Build patterns from entanglement, dependent-measurement, and correction
commands; rewrite them to entanglement-measurement-correction normal form;
simulate their measurement branches; extract the unitary they implement;
and analyze depth, dependency structure, and Clifford membership.
"""

from .angles import Angle, as_angle
from .clifford import (
    has_dependencies,
    is_clifford,
    is_pauli_only,
    pauli_eliminate,
    verify_no_dependency_theorems,
)
from .commands import Command, CorrectX, CorrectZ, Entangle, Measure, Shift
from .dsl import DslError, PatternDocument, parse, parse_document, serialize
from .library import (
    cnot,
    controlled_u,
    cz,
    dependency_graph,
    depth,
    entanglement_graph,
    ghz,
    h,
    identity,
    j,
    j_chain,
    p_half,
    rotation,
    rx,
    rz,
    teleport,
)
from .patterns import Pattern, PatternError, compose, rename, tensor, validate
from .rewrite import (
    Rule,
    applicable_redexes,
    apply_rule,
    is_emc,
    is_standard,
    random_order_standardize,
    standardize,
    standardize_extended,
    termination_measure,
)
from .signals import Signal, signal
from .simulate import (
    Branch,
    extract_unitary,
    is_deterministic,
    run_all_branches,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
