"""Unit tests for TGDs and TGD sets."""

import pickle

import pytest

from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.model.atoms import Atom, Predicate, atom
from repro.model.instance import Database
from repro.model.terms import Constant, Variable
from repro.model.tgd import TGD, TGDSet

R = Predicate("R", 2)
S = Predicate("S", 2)
P = Predicate("P", 1)
X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")


def make_tgd(body, head, rule_id="t"):
    return TGD(body=tuple(body), head=tuple(head), rule_id=rule_id)


class TestTGDStructure:
    def test_frontier_and_existentials(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))])
        assert tgd.frontier() == {Y}
        assert tgd.existential_variables() == {Z}
        assert tgd.body_variables() == {X, Y}
        assert tgd.head_variables() == {Y, Z}

    def test_full_tgd_has_no_existentials(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (X, Y))])
        assert tgd.is_full
        assert tgd.existential_variables() == set()

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            TGD(body=(), head=(Atom(R, (X, Y)),))

    def test_empty_head_rejected(self):
        with pytest.raises(ValueError):
            TGD(body=(Atom(R, (X, Y)),), head=())

    def test_constants_rejected(self):
        with pytest.raises(ValueError):
            make_tgd([Atom(R, (X, Constant("a")))], [Atom(S, (X, X))])

    def test_schema(self):
        tgd = make_tgd([Atom(R, (X, Y)), Atom(P, (X,))], [Atom(S, (X, Z))])
        assert tgd.schema() == {R, P, S}

    def test_positions_of_variable_in_body(self):
        tgd = make_tgd([Atom(R, (X, X)), Atom(P, (X,))], [Atom(S, (X, Z))])
        positions = tgd.positions_of_variable_in_body(X)
        assert {(p.predicate.name, p.index) for p in positions} == {("R", 1), ("R", 2), ("P", 1)}

    def test_rename_apart(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))])
        renamed = tgd.rename_apart("_0")
        assert renamed.body_variables() == {Variable("x_0"), Variable("y_0")}
        assert renamed.rule_id == tgd.rule_id
        assert renamed.frontier() == {Variable("y_0")}

    def test_str_mentions_existentials(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))])
        assert "exists z" in str(tgd)


class TestTGDClasses:
    def test_simple_linear(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))])
        assert tgd.is_simple_linear and tgd.is_linear and tgd.is_guarded

    def test_linear_not_simple(self):
        tgd = make_tgd([Atom(R, (X, X))], [Atom(S, (X, Z))])
        assert tgd.is_linear and not tgd.is_simple_linear and tgd.is_guarded

    def test_guarded_not_linear(self):
        tgd = make_tgd([Atom(R, (X, Y)), Atom(P, (X,))], [Atom(S, (Y, Z))])
        assert tgd.is_guarded and not tgd.is_linear
        assert tgd.guard() == Atom(R, (X, Y))

    def test_not_guarded(self):
        tgd = make_tgd([Atom(R, (X, Y)), Atom(R, (Y, Z))], [Atom(S, (X, Z))])
        assert not tgd.is_guarded
        assert tgd.guard() is None

    def test_guard_is_leftmost(self):
        tgd = make_tgd([Atom(R, (X, Y)), Atom(S, (X, Y))], [Atom(P, (X,))])
        assert tgd.guard() == Atom(R, (X, Y))


class TestTGDSet:
    def test_schema_arity_norm(self):
        tgds = TGDSet(
            [
                make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a"),
                make_tgd([Atom(P, (X,))], [Atom(R, (X, Z))], "b"),
            ]
        )
        assert tgds.schema() == {R, S, P}
        assert tgds.arity() == 2
        assert tgds.atom_count() == 4
        assert tgds.norm() == 4 * 3 * 2

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            TGDSet([])

    def test_duplicate_rule_ids_rejected(self):
        first = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "same")
        second = make_tgd([Atom(P, (X,))], [Atom(R, (X, Z))], "same")
        with pytest.raises(ValueError):
            TGDSet([first, second])

    def test_class_flags(self):
        simple = TGDSet([make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a")])
        assert simple.is_simple_linear and simple.is_linear and simple.is_guarded
        mixed = TGDSet(
            [
                make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a"),
                make_tgd([Atom(R, (X, X))], [Atom(S, (X, Z))], "b"),
            ]
        )
        assert not mixed.is_simple_linear and mixed.is_linear

    def test_by_rule_id(self):
        tgd = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a")
        assert TGDSet([tgd]).by_rule_id() == {"a": tgd}

    def test_rename_apart_makes_variables_disjoint(self):
        first = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a")
        second = make_tgd([Atom(S, (X, Y))], [Atom(R, (Y, Z))], "b")
        renamed = TGDSet([first, second]).rename_apart()
        variables = [t.body_variables() | t.head_variables() for t in renamed]
        assert variables[0] & variables[1] == set()

    def test_body_and_head_predicates(self):
        tgds = TGDSet([make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a")])
        assert tgds.predicates_in_bodies() == {R}
        assert tgds.predicates_in_heads() == {S}

    def test_equality_and_hash(self):
        first = make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a")
        assert TGDSet([first]) == TGDSet([first])
        assert hash(TGDSet([first])) == hash(TGDSet([first]))


class TestProgramMemo:
    def _program(self):
        return TGDSet(
            [
                make_tgd([Atom(R, (X, Y))], [Atom(S, (Y, Z))], "a"),
                make_tgd([Atom(S, (X, Y)), Atom(P, (X,))], [Atom(R, (Y, X))], "b"),
            ]
        )

    def test_memo_builds_once_per_key(self):
        tgds = self._program()
        builds = []
        for _ in range(3):
            value = tgds.memo("k", lambda: builds.append(1) or len(builds))
        assert value == 1 and builds == [1]

    def test_predicates_in_order_follow_first_occurrence(self):
        assert self._program().predicates_in_order() == (R, S, P)

    def test_memo_is_not_part_of_the_value(self):
        warm, cold = self._program(), self._program()
        warm.memo("k", lambda: object())
        assert warm == cold and hash(warm) == hash(cold)

    def test_warm_program_round_trips_through_pickle(self):
        tgds = self._program()
        database = Database([Atom(R, (Constant("a"), Constant("b")))])
        semi_oblivious_chase(database, tgds)  # compiles plans into the memo
        assert tgds._memo
        copy = pickle.loads(pickle.dumps(tgds))
        assert copy == tgds and copy.name == tgds.name
        assert copy._memo == {}
        assert semi_oblivious_chase(database, copy).instance == (
            semi_oblivious_chase(database, tgds).instance
        )
