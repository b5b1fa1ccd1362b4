"""Seeded random generators of TGD programs and databases.

These generators are used by the property-based tests (to exercise the
equivalence between the syntactic characterisations and the actual
chase behaviour on many small inputs) and by the scaling benchmarks.
All of them are deterministic functions of their ``seed``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database
from repro.model.terms import Constant, Variable
from repro.model.tgd import TGD, TGDSet


def _schema(predicate_count: int, max_arity: int, rng: random.Random) -> List[Predicate]:
    return [
        Predicate(f"P{i}", rng.randint(1, max_arity)) for i in range(1, predicate_count + 1)
    ]


def random_simple_linear_program(
    seed: int,
    predicate_count: int = 4,
    max_arity: int = 3,
    rule_count: int = 5,
    existential_probability: float = 0.5,
) -> TGDSet:
    """A random simple linear program (distinct body variables)."""
    rng = random.Random(seed)
    schema = _schema(predicate_count, max_arity, rng)
    tgds: List[TGD] = []
    for index in range(rule_count):
        body_predicate = rng.choice(schema)
        body_variables = [Variable(f"x{index}_{i}") for i in range(body_predicate.arity)]
        body_atom = Atom(body_predicate, tuple(body_variables))
        head_predicate = rng.choice(schema)
        head_args = []
        existential_counter = 0
        for position in range(head_predicate.arity):
            if body_variables and rng.random() > existential_probability:
                head_args.append(rng.choice(body_variables))
            else:
                head_args.append(Variable(f"z{index}_{existential_counter}"))
                existential_counter += 1
        tgds.append(
            TGD(
                body=(body_atom,),
                head=(Atom(head_predicate, tuple(head_args)),),
                rule_id=f"rand_sl_{seed}_{index}",
            )
        )
    return TGDSet(tgds, name=f"random_sl(seed={seed})")


def random_linear_program(
    seed: int,
    predicate_count: int = 4,
    max_arity: int = 3,
    rule_count: int = 5,
    existential_probability: float = 0.5,
    repetition_probability: float = 0.4,
) -> TGDSet:
    """A random linear program; body atoms may repeat variables."""
    rng = random.Random(seed)
    base = random_simple_linear_program(
        seed, predicate_count, max_arity, rule_count, existential_probability
    )
    tgds: List[TGD] = []
    for index, tgd in enumerate(base):
        body_atom = tgd.body[0]
        args = list(body_atom.args)
        for position in range(1, len(args)):
            if rng.random() < repetition_probability:
                args[position] = args[rng.randint(0, position - 1)]
        mapping = {old: new for old, new in zip(body_atom.args, args) if old != new}
        new_body = Atom(body_atom.predicate, tuple(args))
        new_head = tuple(a.substitute(mapping) for a in tgd.head)
        tgds.append(
            TGD(body=(new_body,), head=new_head, rule_id=f"rand_l_{seed}_{index}")
        )
    return TGDSet(tgds, name=f"random_linear(seed={seed})")


def random_guarded_program(
    seed: int,
    predicate_count: int = 4,
    max_arity: int = 3,
    rule_count: int = 5,
    side_atom_probability: float = 0.6,
    existential_probability: float = 0.4,
) -> TGDSet:
    """A random guarded program: one guard atom plus side atoms over its variables."""
    rng = random.Random(seed)
    schema = _schema(predicate_count, max_arity, rng)
    tgds: List[TGD] = []
    for index in range(rule_count):
        guard_predicate = rng.choice(schema)
        guard_variables = [Variable(f"x{index}_{i}") for i in range(guard_predicate.arity)]
        body: List[Atom] = [Atom(guard_predicate, tuple(guard_variables))]
        if rng.random() < side_atom_probability and guard_variables:
            side_predicate = rng.choice(schema)
            side_args = tuple(rng.choice(guard_variables) for _ in range(side_predicate.arity))
            body.append(Atom(side_predicate, side_args))
        head_predicate = rng.choice(schema)
        head_args = []
        existential_counter = 0
        for position in range(head_predicate.arity):
            if guard_variables and rng.random() > existential_probability:
                head_args.append(rng.choice(guard_variables))
            else:
                head_args.append(Variable(f"z{index}_{existential_counter}"))
                existential_counter += 1
        tgds.append(
            TGD(
                body=tuple(body),
                head=(Atom(head_predicate, tuple(head_args)),),
                rule_id=f"rand_g_{seed}_{index}",
            )
        )
    return TGDSet(tgds, name=f"random_guarded(seed={seed})")


def random_full_program(seed: int, rule_count: int = 4) -> TGDSet:
    """A random guarded program with every existential replaced by a
    body variable — full TGDs, whose restricted chase has a unique,
    order-independent fixpoint."""
    base = random_guarded_program(seed, rule_count=rule_count)
    rng = random.Random(seed)
    rules = []
    for index, tgd in enumerate(base):
        body_variables = sorted(tgd.body_variables(), key=lambda v: v.name)
        existentials = sorted(tgd.existential_variables(), key=lambda v: v.name)
        mapping = {z: rng.choice(body_variables) for z in existentials}
        rules.append(
            TGD(
                body=tgd.body,
                head=tuple(a.substitute(mapping) for a in tgd.head),
                rule_id=f"full_{seed}_{index}",
            )
        )
    return TGDSet(rules, name=f"random_full(seed={seed})")


def random_database(
    tgds: TGDSet,
    seed: int,
    fact_count: int = 10,
    constant_count: int = 5,
    predicates: Optional[Sequence[Predicate]] = None,
) -> Database:
    """A random database over the schema of ``tgds`` (or over ``predicates``)."""
    rng = random.Random(seed)
    pool = list(predicates) if predicates is not None else sorted(
        tgds.schema(), key=lambda p: (p.name, p.arity)
    )
    constants = [Constant(f"c{i}") for i in range(1, constant_count + 1)]
    database = Database()
    for _ in range(fact_count):
        predicate = rng.choice(pool)
        args = tuple(rng.choice(constants) for _ in range(predicate.arity))
        database.add(Atom(predicate, args))
    return database
