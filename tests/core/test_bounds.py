"""Tests for the depth/size bound formulas (Sections 5-8)."""

import pytest

from repro.model.parser import parse_database, parse_program
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import (
    depth_bound,
    generic_size_bound,
    guarded_lower_bound_value,
    linear_lower_bound_value,
    per_tree_depth_slice_bound,
    size_bound_factor,
    sl_lower_bound_value,
)
from repro.core.classify import TGDClass
from repro.generators.families import guarded_lower_bound, sl_lower_bound


class TestDepthBound:
    def test_simple_linear_formula(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        # |sch| = 2, ar = 2  ->  d_SL = 4.
        assert depth_bound(program, TGDClass.SIMPLE_LINEAR) == 4

    def test_linear_formula(self):
        program = parse_program("R(x, x) -> exists z . R(z, x)")
        # |sch| = 1, ar = 2  ->  d_L = 1 * 2^3 = 8.
        assert depth_bound(program, TGDClass.LINEAR) == 8

    def test_guarded_formula(self):
        program = parse_program("R(x, y), P(x) -> exists z . R(y, z)")
        # |sch| = 2, ar = 2  ->  d_G = 2 * 2^5 * 2^(2*4) = 2 * 32 * 256.
        assert depth_bound(program, TGDClass.GUARDED) == 2 * 32 * 256

    def test_guarded_formula_on_the_guarded_family(self):
        _, tgds = guarded_lower_bound(1, 1, 1)
        schema_size, arity = len(tgds.schema()), tgds.arity()
        assert (schema_size, arity) == (16, 6)
        expected = (
            schema_size * arity ** (2 * arity + 1) * 2 ** (schema_size * arity**arity)
        )
        assert depth_bound(tgds, TGDClass.GUARDED) == expected
        assert expected.bit_length() == 746_534

    def test_bounds_are_monotone_across_classes(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert (
            depth_bound(program, TGDClass.SIMPLE_LINEAR)
            <= depth_bound(program, TGDClass.LINEAR)
            <= depth_bound(program, TGDClass.GUARDED)
        )

    def test_arbitrary_class_is_rejected(self):
        program = parse_program("R(x, y), R(y, z) -> S(x, z)")
        with pytest.raises(ValueError):
            depth_bound(program)

    def test_class_is_inferred_when_not_given(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert depth_bound(program) == depth_bound(program, TGDClass.SIMPLE_LINEAR)


class TestSizeBounds:
    def test_size_bound_factor_formula(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        depth = depth_bound(program)
        norm = program.norm()
        assert size_bound_factor(program) == (depth + 1) * norm ** (2 * 2 * (depth + 1))

    def test_generic_size_bound_grows_with_database(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert generic_size_bound(10, program, 1) == 10 * generic_size_bound(1, program, 1)

    def test_per_tree_depth_slice_bound_monotone_in_depth(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert per_tree_depth_slice_bound(program, 0) < per_tree_depth_slice_bound(program, 1)

    def test_measured_chase_respects_characterisation_bound(self):
        database, tgds = sl_lower_bound(1, 2, 2)
        result = semi_oblivious_chase(database, tgds)
        assert result.terminated
        assert result.size <= len(database) * size_bound_factor(tgds)
        assert result.max_depth <= depth_bound(tgds)


class TestLowerBoundFormulas:
    def test_sl_value(self):
        assert sl_lower_bound_value(2, 3, 2) == 2 * 2 ** 6

    def test_linear_value(self):
        assert linear_lower_bound_value(1, 2, 2) == 2 ** (2 * 3)

    def test_guarded_value(self):
        assert guarded_lower_bound_value(1, 1, 1) == 2 ** (2 * 3)

    def test_lower_bounds_are_below_upper_bounds(self):
        """The worst-case families stay below |D| · f_C(Σ) (consistency check)."""
        database, tgds = sl_lower_bound(2, 2, 1)
        assert sl_lower_bound_value(1, 2, 2) <= len(database) * size_bound_factor(tgds)
