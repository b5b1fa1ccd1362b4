"""Relational model substrate.

This subpackage provides the first-order relational machinery the paper
relies on: terms (constants, variables, labelled nulls), atoms and
predicate positions, instances and databases, tuple-generating
dependencies (TGDs), homomorphisms, and a small concrete syntax.
"""

from repro.model.terms import Constant, Null, Term, Variable
from repro.model.atoms import Atom, Predicate, Position
from repro.model.instance import Database, Instance
from repro.model.store import FactStore
from repro.model.tgd import TGD, TGDSet
from repro.model.homomorphism import (
    Substitution,
    extend_homomorphism,
    find_homomorphisms,
    find_homomorphisms_with_forced_atom,
    is_homomorphism,
)
from repro.model.parser import parse_atom, parse_database, parse_program, parse_tgd
from repro.model.serialization import (
    atom_to_text,
    database_to_text,
    program_to_text,
    tgd_to_text,
)

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Null",
    "Predicate",
    "Position",
    "Atom",
    "Instance",
    "Database",
    "FactStore",
    "TGD",
    "TGDSet",
    "Substitution",
    "find_homomorphisms",
    "find_homomorphisms_with_forced_atom",
    "extend_homomorphism",
    "is_homomorphism",
    "parse_atom",
    "parse_tgd",
    "parse_program",
    "parse_database",
    "atom_to_text",
    "tgd_to_text",
    "program_to_text",
    "database_to_text",
]
