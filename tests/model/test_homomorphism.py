"""Unit tests for homomorphism search."""

import pytest

from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.model.atoms import Atom, Predicate
from repro.model.homomorphism import (
    apply_substitution,
    extend_homomorphism,
    find_homomorphisms,
    find_homomorphisms_with_forced_atom,
    is_homomorphism,
)
from repro.model.instance import Instance
from repro.model.terms import Constant, Variable

R = Predicate("R", 2)
S = Predicate("S", 1)
T = Predicate("T", 3)
A, B, C = Constant("a"), Constant("b"), Constant("c")
X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def homomorphisms(atoms, instance, **kwargs):
    return list(find_homomorphisms(atoms, instance, **kwargs))


class TestFindHomomorphisms:
    def test_single_atom(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C))])
        results = homomorphisms([Atom(R, (X, Y))], instance)
        assert len(results) == 2
        assert {(h[X], h[Y]) for h in results} == {(A, B), (B, C)}

    def test_join_on_shared_variable(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C)), Atom(R, (A, C))])
        results = homomorphisms([Atom(R, (X, Y)), Atom(R, (Y, Z))], instance)
        assert {(h[X], h[Y], h[Z]) for h in results} == {(A, B, C)}

    def test_repeated_variable_in_pattern(self):
        instance = Instance([Atom(R, (A, A)), Atom(R, (A, B))])
        results = homomorphisms([Atom(R, (X, X))], instance)
        assert {(h[X],) for h in results} == {(A,)}

    def test_join_with_repeated_variable(self):
        instance = Instance(
            [Atom(R, (A, B)), Atom(R, (B, B)), Atom(R, (B, C)), Atom(T, (A, B, B))]
        )
        results = homomorphisms([Atom(R, (X, Y)), Atom(T, (X, Y, Y))], instance)
        assert results == [{X: A, Y: B}]

    def test_no_match(self):
        instance = Instance([Atom(R, (A, B))])
        assert homomorphisms([Atom(S, (X,))], instance) == []

    def test_seed_restricts_matches(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C))])
        results = homomorphisms([Atom(R, (X, Y))], instance, seed={X: B})
        assert {(h[X], h[Y]) for h in results} == {(B, C)}

    def test_seed_variable_outside_the_atoms_is_kept(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C))])
        results = homomorphisms([Atom(R, (X, Y))], instance, seed={X: B, W: C})
        assert results == [{X: B, Y: C, W: C}]

    def test_empty_atom_list_yields_the_seed_once(self):
        instance = Instance([Atom(R, (A, B))])
        assert homomorphisms([], instance, seed={X: A}) == [{X: A}]

    def test_constant_in_pattern(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C)), Atom(R, (A, C))])
        results = homomorphisms([Atom(R, (A, Y))], instance)
        assert sorted(h[Y].name for h in results) == ["b", "c"]
        assert all(set(h) == {Y} for h in results)

    def test_cross_product_when_no_shared_variables(self):
        instance = Instance([Atom(R, (A, B)), Atom(S, (A,)), Atom(S, (B,))])
        results = homomorphisms([Atom(R, (X, Y)), Atom(S, (Z,))], instance)
        assert len(results) == 2

    def test_cross_product_binds_every_variable(self):
        instance = Instance([Atom(R, (A, B)), Atom(S, (C,))])
        results = homomorphisms([Atom(R, (X, Y)), Atom(S, (Z,))], instance)
        assert results == [{X: A, Y: B, Z: C}]

    def test_forced_atom(self):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C))])
        forced = Atom(R, (B, C))
        results = list(
            find_homomorphisms_with_forced_atom(
                [Atom(R, (X, Y)), Atom(R, (Y, Z))], instance, 1, forced
            )
        )
        assert {(h[X], h[Y], h[Z]) for h in results} == {(A, B, C)}

    @pytest.mark.parametrize("index", [0, 1])
    def test_forced_atom_at_either_body_index(self, index):
        instance = Instance([Atom(R, (A, B)), Atom(R, (B, C)), Atom(S, (B,))])
        forced = [Atom(R, (A, B)), Atom(S, (B,))][index]
        results = list(
            find_homomorphisms_with_forced_atom(
                [Atom(R, (X, Y)), Atom(S, (Y,))], instance, index, forced
            )
        )
        assert results == [{X: A, Y: B}]

    def test_forced_atom_with_wrong_predicate_yields_nothing(self):
        instance = Instance([Atom(R, (A, B))])
        results = list(
            find_homomorphisms_with_forced_atom([Atom(R, (X, Y))], instance, 0, Atom(S, (A,)))
        )
        assert results == []

    def test_forced_atom_with_mismatching_terms_yields_nothing(self):
        instance = Instance([Atom(R, (A, B))])
        results = list(
            find_homomorphisms_with_forced_atom([Atom(R, (X, X))], instance, 0, Atom(R, (A, B)))
        )
        assert results == []

    def test_forced_single_atom_body(self):
        instance = Instance([Atom(R, (A, B))])
        results = list(
            find_homomorphisms_with_forced_atom([Atom(R, (X, Y))], instance, 0, Atom(R, (A, B)))
        )
        assert len(results) == 1

    def test_forced_atom_need_not_be_in_the_instance(self):
        instance = Instance([Atom(S, (C,))])
        results = list(
            find_homomorphisms_with_forced_atom(
                [Atom(R, (X, Y)), Atom(S, (Z,))], instance, 0, Atom(R, (A, B))
            )
        )
        assert results == [{X: A, Y: B, Z: C}]


class TestHelpers:
    def test_apply_substitution(self):
        assert apply_substitution(Atom(R, (X, Y)), {X: A, Y: B}) == Atom(R, (A, B))

    def test_apply_substitution_leaves_unbound_variables(self):
        assert apply_substitution(Atom(R, (X, Y)), {X: A}) == Atom(R, (A, Y))

    def test_is_homomorphism(self):
        instance = Instance([Atom(R, (A, B))])
        assert is_homomorphism([Atom(R, (X, Y))], instance, {X: A, Y: B})
        assert not is_homomorphism([Atom(R, (X, Y))], instance, {X: B, Y: A})
        assert not is_homomorphism([Atom(R, (X, Y))], instance, {X: A})

    def test_extend_homomorphism_finds_head_witness(self):
        instance = Instance([Atom(R, (A, B)), Atom(S, (B,))])
        extension = extend_homomorphism([Atom(S, (Y,))], instance, {X: A})
        assert extension is not None and extension[Y] == B

    def test_extend_homomorphism_respects_seed(self):
        instance = Instance([Atom(R, (A, B))])
        assert extend_homomorphism([Atom(R, (X, Y))], instance, {X: B}) is None

    def test_extend_homomorphism_keeps_the_whole_base(self):
        instance = Instance([Atom(R, (A, B)), Atom(S, (B,))])
        assert extend_homomorphism([Atom(S, (Y,))], instance, {X: A, Y: B}) == {X: A, Y: B}
        assert extend_homomorphism([Atom(S, (Y,))], instance, {Y: A}) is None

    def test_extend_homomorphism_binds_an_existential(self):
        instance = Instance([Atom(R, (A, B))])
        assert extend_homomorphism([Atom(R, (X, Z))], instance, {X: A}) == {X: A, Z: B}


def _as_set(substitutions):
    return {frozenset(h.items()) for h in substitutions}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "generator",
    [random_simple_linear_program, random_linear_program, random_guarded_program],
)
def test_forced_atom_enumeration_is_the_filtered_full_enumeration(generator, seed):
    """Every enumerated substitution is a homomorphism, and forcing body
    atom ``i`` onto an instance atom yields exactly the full
    enumeration's substitutions that map atom ``i`` there."""
    tgds = generator(seed)
    database = random_database(tgds, seed=seed + 1000, fact_count=25, constant_count=4)
    instance = Instance(database)
    for tgd in tgds:
        full = list(find_homomorphisms(tgd.body, instance))
        assert len(_as_set(full)) == len(full)
        for h in full:
            assert is_homomorphism(tgd.body, instance, h)
        for index, body_atom in enumerate(tgd.body):
            for forced in instance.atoms_with_predicate(body_atom.predicate):
                expected = [h for h in full if apply_substitution(body_atom, h) == forced]
                assert _as_set(
                    find_homomorphisms_with_forced_atom(tgd.body, instance, index, forced)
                ) == _as_set(expected)
