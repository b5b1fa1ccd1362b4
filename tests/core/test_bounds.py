"""Tests for the depth/size bound formulas (Sections 5-8)."""

import pytest

from repro.model.parser import parse_database, parse_program
from repro.chase.semi_oblivious import semi_oblivious_chase
from repro.core.bounds import (
    INT_BITS,
    Bound,
    _digits_estimate,
    depth_bound,
    generic_size_bound,
    guarded_lower_bound_value,
    linear_lower_bound_value,
    magnitude,
    per_tree_depth_slice_bound,
    size_bound,
    size_bound_factor,
    sl_lower_bound_value,
)
from repro.core.classify import TGDClass, classify
from repro.generators.families import (
    example_7_1,
    guarded_lower_bound,
    linear_lower_bound,
    sl_lower_bound,
)

SL_RULE = "R(x, y) -> exists z . S(y, z)"
L_RULE = "R(x, x) -> exists z . R(z, x)"
G_RULE = "R(x, y), P(x) -> exists z . R(y, z)"
MENTORING = (
    "Team(t), MemberOf(p, t) -> exists q . Mentors(q, p), MemberOf(q, t)\n"
    "Mentors(q, p) -> Knows(q, p)"
)

#: The SL/L fixtures of this file and three paper families, plus the
#: small guarded ones: each ``|D| · f_C`` is cheap enough to build.  A
#: class of ``None`` is the classifier's; a forced G reads the rule as
#: guarded, as the monotonicity test does.
MAGNITUDE_FIXTURES = {
    "sl-rule": (lambda: parse_program(SL_RULE), None),
    "sl-rule-as-l": (lambda: parse_program(SL_RULE), TGDClass.LINEAR),
    "sl-rule-as-g": (lambda: parse_program(SL_RULE), TGDClass.GUARDED),
    "l-rule": (lambda: parse_program(L_RULE), None),
    "l-rule-as-g": (lambda: parse_program(L_RULE), TGDClass.GUARDED),
    "g-rule": (lambda: parse_program(G_RULE), None),
    "sl-family-1-2": (lambda: sl_lower_bound(1, 2, 2)[1], None),
    "sl-family-2-2": (lambda: sl_lower_bound(2, 2, 1)[1], None),
    "l-family-1-2": (lambda: linear_lower_bound(1, 2)[1], None),
    "example-7-1": (lambda: example_7_1()[1], None),
}


def _plain_size_bound(database_size, tgds, tgd_class):
    """``|D| · f_C(Σ)`` as a plain int, straight from the formulas."""
    tgd_class = tgd_class or classify(tgds)
    schema_size, arity = len(tgds.schema()), max(tgds.arity(), 1)
    depth = {
        TGDClass.SIMPLE_LINEAR: schema_size * arity,
        TGDClass.LINEAR: schema_size * arity ** (arity + 1),
        TGDClass.GUARDED: schema_size
        * arity ** (2 * arity + 1)
        * 2 ** (schema_size * arity**arity),
    }[tgd_class]
    norm = max(tgds.norm(), 1)
    return database_size * (depth + 1) * norm ** (2 * arity * (depth + 1))


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
        depth = int(depth_bound(program))
        norm = program.norm()
        assert size_bound_factor(program) == (depth + 1) * norm ** (2 * 2 * (depth + 1))

    def test_generic_size_bound_grows_with_database(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert generic_size_bound(10, program, 1) == 10 * generic_size_bound(1, program, 1)

    def test_per_tree_depth_slice_bound_monotone_in_depth(self):
        program = parse_program("R(x, y) -> exists z . S(y, z)")
        assert per_tree_depth_slice_bound(program, 0) < per_tree_depth_slice_bound(program, 1)

    @pytest.mark.parametrize("name", sorted(MAGNITUDE_FIXTURES))
    def test_bound_is_exact(self, name):
        build, tgd_class = MAGNITUDE_FIXTURES[name]
        tgds = build()
        for database_size in (0, 1, 2, 3, 1000, 10**6):
            value = _plain_size_bound(database_size, tgds, tgd_class)
            bound = size_bound(database_size, tgds, tgd_class)
            assert bound.magnitude() == magnitude(value), (name, database_size)
            for n in (value - 1, value, value + 1, 0, 2**64):
                assert (n <= bound) == (n <= value), (name, database_size, n - value)
            json_form = value if value.bit_length() <= 64 else magnitude(value)
            assert bound.to_json() == json_form, (name, database_size)

    def test_guarded_bounds_are_never_built(self):
        # ``|D| · f_G`` of the 2-rule mentoring ontology has ~1.9·10^8
        # bits and takes ~90 s to build; the string is the one the
        # built integer prints.
        tgds = parse_program(MENTORING)
        assert depth_bound(tgds) == 8_388_608
        bound = size_bound(1, tgds)
        assert bound.magnitude() == "~10^56413109"
        assert bound.to_json() == "~10^56413109"
        assert 10**10_000 <= bound and not bound <= 10**10_000
        with pytest.raises(OverflowError):
            int(bound)
        # d_G itself has 746,534 bits here, so even the decimal exponent
        # of f_G has ~224,700 digits: it prints as a magnitude too.
        _, family = guarded_lower_bound(1, 1, 1)
        assert size_bound(1, family).magnitude().startswith("~10^~10^2247")

    def test_comparisons_are_exact_at_power_edges(self):
        # Symbolic bounds (over EXACT_BITS) compared with ints of about
        # their own length, where the exponent alone almost settles it.
        for coeff, base, exp in [(1, 2, 5000), (1, 2, 5001), (3, 3, 3000), (1, 4, 2600)]:
            bound, value = Bound.power(coeff, base, exp), coeff * base**exp
            for n in (value - 1, value, value + 1, 1 << value.bit_length()):
                assert (n <= bound) == (n <= value), (base, exp, n - value)
                assert (bound <= n) == (value <= n), (base, exp, n - value)
                assert (bound == n) == (value == n), (base, exp, n - value)

    def test_int_refuses_only_long_bounds(self):
        assert int(Bound.power(3, 2, INT_BITS - 2)) == 3 << INT_BITS - 2
        with pytest.raises(OverflowError):
            int(Bound.power(1, 2, INT_BITS))

    def test_digit_rule_is_the_float_rule(self):
        # Printed magnitudes keep their strings only if the integer rule
        # agrees with ``int(bits * 0.30103) + 1`` wherever a bound can
        # be built (here: every bit count up to 4·10^8 that can differ).
        edges = range(100_000, 400_000_001, 100_000)
        for bits in [*range(1, 200_001), *edges, *(b - 1 for b in edges)]:
            assert _digits_estimate(bits) == int(bits * 0.30103) + 1, bits

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


class TestMagnitude:
    def test_magnitude_small_and_large(self):
        assert magnitude(12345) == "12345"
        assert magnitude(10 ** 100).startswith("~10^")
