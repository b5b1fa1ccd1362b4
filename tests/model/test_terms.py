"""Unit tests for constants, variables and labelled nulls."""

import pytest

from repro.model.terms import Constant, Null, Variable, is_ground, make_null, term_depth


class TestConstant:
    def test_equality_is_by_name(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")

    def test_depth_is_zero(self):
        assert Constant("a").depth == 0

    def test_kind_flags(self):
        constant = Constant("a")
        assert constant.is_constant
        assert not constant.is_null
        assert not constant.is_variable

    def test_str(self):
        assert str(Constant("alice")) == "alice"

    def test_hashable(self):
        assert len({Constant("a"), Constant("a"), Constant("b")}) == 2


class TestVariable:
    def test_equality_is_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_kind_flags(self):
        variable = Variable("x")
        assert variable.is_variable
        assert not variable.is_constant
        assert not variable.is_null

    def test_variable_is_not_constant_with_same_name(self):
        assert Variable("a") != Constant("a")

    def test_has_no_depth(self):
        with pytest.raises(TypeError):
            term_depth(Variable("x"))


class TestNull:
    def test_same_label_means_same_null(self):
        binding = {"x": Constant("a")}
        assert make_null("r1", "z", binding) == make_null("r1", "z", binding)

    def test_different_rule_means_different_null(self):
        binding = {"x": Constant("a")}
        assert make_null("r1", "z", binding) != make_null("r2", "z", binding)

    def test_different_binding_means_different_null(self):
        assert make_null("r1", "z", {"x": Constant("a")}) != make_null(
            "r1", "z", {"x": Constant("b")}
        )

    def test_binding_order_is_irrelevant(self):
        first = make_null("r1", "z", {"x": Constant("a"), "y": Constant("b")})
        second = make_null("r1", "z", {"y": Constant("b"), "x": Constant("a")})
        assert first == second

    def test_depth_of_null_over_constants(self):
        null = make_null("r1", "z", {"x": Constant("a")})
        assert null.depth == 1

    def test_depth_of_nested_null(self):
        inner = make_null("r1", "z", {"x": Constant("a")})
        outer = make_null("r1", "z", {"x": inner})
        assert outer.depth == 2

    def test_depth_with_empty_binding(self):
        assert make_null("r1", "z", {}).depth == 1

    def test_depth_takes_max_over_binding(self):
        deep = make_null("r1", "z", {"x": Constant("a")})
        mixed = make_null("r2", "w", {"x": deep, "y": Constant("b")})
        assert mixed.depth == 2

    def test_kind_flags(self):
        null = make_null("r1", "z", {})
        assert null.is_null
        assert not null.is_constant
        assert not null.is_variable

    def test_depth_is_not_part_of_identity(self):
        null = make_null("r1", "z", {"x": Constant("a")})
        clone = Null(rule_id="r1", variable="z", binding=null.binding, depth=99)
        assert clone == null

    def test_from_trusted_matches_the_constructor(self):
        inner = make_null("r1", "z", {"x": Constant("a")})
        binding = (("x", inner), ("y", Constant("b")))
        built = Null(rule_id="r2", variable="w", binding=binding)
        trusted = Null.from_trusted("r2", "w", binding, 2)
        assert trusted == built and hash(trusted) == hash(built)
        assert (trusted.rule_id, trusted.variable, trusted.binding, trusted.depth) == (
            built.rule_id, built.variable, built.binding, built.depth,
        )
        assert str(trusted) == str(built)
        with pytest.raises(AttributeError):
            trusted.depth = 5  # type: ignore[misc]


class TestHelpers:
    def test_term_depth(self):
        assert term_depth(Constant("a")) == 0
        assert term_depth(make_null("r", "z", {})) == 1

    def test_is_ground(self):
        assert is_ground(Constant("a"))
        assert is_ground(make_null("r", "z", {}))
        assert not is_ground(Variable("x"))
