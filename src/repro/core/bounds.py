"""The paper's depth and size bounds (Sections 5–8), as :class:`Bound` values.

* ``d_C(Σ)`` bounds ``maxdepth(D, Σ)`` for ``Σ ∈ C ∩ CT_D``:

  - ``d_SL(Σ) = |sch(Σ)| · ar(Σ)``
  - ``d_L(Σ)  = |sch(Σ)| · ar(Σ)^(ar(Σ)+1)``
  - ``d_G(Σ)  = |sch(Σ)| · ar(Σ)^(2·ar(Σ)+1) · 2^(|sch(Σ)| · ar(Σ)^ar(Σ))``

* ``f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1))`` bounds
  ``|chase(D, Σ)| / |D|`` (Theorems 6.4, 7.5, 8.3).

* the generic bound of Proposition 5.2 bounds ``|chase(D, Σ)|`` by
  ``|D| · (d+1) · ‖Σ‖^(2·ar(Σ)·(d+1))`` for guarded Σ, where ``d`` is
  the (measured) maximal depth.

Every bound is a :class:`Bound`.  For guarded sets the values are
astronomically large (``|D| · f_G`` of a two-rule ontology has ~1.9·10^8
bits), which is precisely the paper's point about the naive decision
procedure; a :class:`Bound` is compared, and printed, without building it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

from repro.model.tgd import TGDSet
from repro.core.classify import TGDClass, classify

#: Bounds of at most this many bits are held as exact integers.
EXACT_BITS = 4096

#: ``int(bound)`` refuses bounds longer than this: building ``|D| · f_G``
#: of a two-rule ontology takes about 90 s, and no caller needs its digits.
INT_BITS = 1 << 20


@total_ordering
class Bound:
    """A non-negative bound: exact while small, else ``coeff · base^exp + offset``.

    ``coeff`` and ``exp`` are ints or bounds (``f_G``'s exponent contains
    ``d_G``).  An exact bound has ``base == 1`` and its value in ``coeff``;
    a symbolic one has ``coeff ≥ 1``, ``base ≥ 2`` and ``exp ≥ 1``, so it
    is at least ``2^(exp · ⌊log2 base⌋)``.  That settles ``n <= bound``
    at once when ``exp`` reaches ``n.bit_length()``; otherwise ``exp`` is
    small and the bound is built exactly, so comparisons with ints are
    always exact.  ``int(bound)`` refuses bounds over :data:`INT_BITS` bits.
    """

    __slots__ = ("coeff", "base", "exp", "offset")

    def __init__(self, value: int) -> None:
        self.coeff, self.base, self.exp, self.offset = value, 1, 0, 0

    @classmethod
    def power(cls, coeff: int | Bound, base: int, exp: int | Bound, offset: int = 0) -> Bound:
        """``coeff · base^exp + offset``, exact when that fits :data:`EXACT_BITS`."""
        coeff, exp = _unwrap(coeff), _unwrap(exp)
        if coeff == 0:
            return cls(offset)
        if base == 1 or exp == 0:
            return coeff + offset if isinstance(coeff, Bound) else cls(coeff + offset)
        if isinstance(coeff, int) and isinstance(exp, int):
            if coeff.bit_length() + exp * base.bit_length() <= EXACT_BITS:
                return cls(coeff * base**exp + offset)
        bound = cls.__new__(cls)
        bound.coeff, bound.base, bound.exp, bound.offset = coeff, base, exp, offset
        return bound

    def __add__(self, other: int) -> Bound:
        return Bound.power(self.coeff, self.base, self.exp, self.offset + other)

    def __mul__(self, other: int) -> Bound:
        return Bound.power(self.coeff * other, self.base, self.exp, self.offset * other)

    __rmul__ = __mul__

    def _cmp(self, other: object):
        """-1, 0 or 1 as ``self`` is below, equal to or above ``other``."""
        if isinstance(other, Bound):
            if other.base != 1:
                return -other._cmp(int(self))
            other = other.coeff
        elif not isinstance(other, int):
            return NotImplemented
        if self.base == 1:
            value = self.coeff
        elif _at_least(self, other.bit_length()):
            return 1
        else:
            value = _build(self)
        return (value > other) - (value < other)

    def __eq__(self, other: object):
        order = self._cmp(other)
        return order if order is NotImplemented else order == 0

    def __lt__(self, other: object):
        order = self._cmp(other)
        return order if order is NotImplemented else order < 0

    def __hash__(self) -> int:
        # hash(int) for an exact bound; a symbolic one is far beyond any
        # integer a caller keys a table by.
        return hash(self.coeff if self.base == 1 else (self.coeff, self.base, self.exp))

    def __int__(self) -> int:
        value = _value_within(self, INT_BITS)
        if value is None:
            raise OverflowError(
                f"bound {self.magnitude()} has over {INT_BITS} bits: compare it "
                "or print its magnitude() instead"
            )
        return value

    def magnitude(self) -> str:
        """:func:`magnitude` of the value, read off the exponent."""
        if self.base == 1:
            return magnitude(self.coeff)
        if isinstance(self.exp, int):
            return f"~10^{magnitude(_digits_estimate(_bit_length(self)) - 1)}"
        # About exp·log2(base) bits: the decimal exponent is itself
        # astronomical, and its own bit length comes off log2(exp).
        bits = math.floor(_log2(self.exp) + math.log2(math.log2(self.base) * 0.30103)) + 1
        return f"~10^~10^{_digits_estimate(bits) - 1}"

    def to_json(self) -> Union[int, str]:
        """The one JSON/print form: the int when it fits in 64 bits, else the magnitude."""
        value = _value_within(self, 64)
        return self.magnitude() if value is None else value

    def __str__(self) -> str:
        return str(self.to_json())

    __repr__ = __str__


def _unwrap(value: int | Bound) -> int | Bound:
    """The int of an exact bound; anything else unchanged."""
    return value.coeff if isinstance(value, Bound) and value.base == 1 else value


def _build(value: int | Bound) -> int:
    """The exact value; callers first make sure it is small."""
    if isinstance(value, int):
        return value
    if value.base == 1:
        return value.coeff
    coeff, exp = _build(value.coeff), _build(value.exp)
    if value.base & (value.base - 1) == 0:
        return (coeff << exp * (value.base.bit_length() - 1)) + value.offset
    return coeff * value.base**exp + value.offset


def _at_least(value: int | Bound, k: int) -> bool:
    """A sufficient test for ``value ≥ 2^k`` that builds no int above ``k``."""
    if isinstance(value, int):
        return value.bit_length() > k
    if value.base == 1:
        return value.coeff.bit_length() > k
    step = value.base.bit_length() - 1  # base ≥ 2^step
    if value.exp >= -(-k // step):
        return True  # value ≥ coeff · 2^(exp·step), coeff ≥ 1
    return _at_least(value.coeff, k - _build(value.exp) * step)


def _value_within(value: Bound, bits: int) -> Optional[int]:
    """The exact value when it has at most ``bits`` bits, else ``None``."""
    if not _at_least(value, bits):
        exact = _build(value)
        if exact.bit_length() <= bits:
            return exact
    return None


def _log2(value: int | Bound) -> float:
    """``log2(value)`` as a float, for bounds with an int exponent."""
    if isinstance(value, int) or value.base == 1:
        return math.log2(_unwrap(value))
    return _log2(value.coeff) + value.exp * math.log2(value.base)


def _bit_length(value: Bound) -> int:
    """``⌊log2 value⌋ + 1`` for a symbolic bound with an int exponent.

    Exact for a power-of-two base; else the float logarithms are summed
    as fractions, so a huge exponent cannot overflow.
    """
    if isinstance(value.coeff, int) and value.base & (value.base - 1) == 0:
        return value.coeff.bit_length() + value.exp * (value.base.bit_length() - 1)
    log_coeff, log_base = Fraction(_log2(value.coeff)), Fraction(math.log2(value.base))
    return math.floor(log_coeff + value.exp * log_base) + 1


def depth_bound(tgds: TGDSet, tgd_class: TGDClass | None = None) -> Bound:
    """``d_C(Σ)`` for the given (or inferred) class ``C ∈ {SL, L, G}``."""
    tgd_class = tgd_class or classify(tgds)
    schema_size = len(tgds.schema())
    arity = max(tgds.arity(), 1)
    if tgd_class is TGDClass.SIMPLE_LINEAR:
        return Bound(schema_size * arity)
    if tgd_class is TGDClass.LINEAR:
        return Bound.power(schema_size, arity, arity + 1)
    if tgd_class is TGDClass.GUARDED:
        return Bound.power(
            schema_size * arity ** (2 * arity + 1), 2, schema_size * arity**arity
        )
    raise ValueError(
        "the paper provides depth bounds for SL, L and G only; "
        f"got class {tgd_class}"
    )


def size_bound_factor(tgds: TGDSet, tgd_class: TGDClass | None = None) -> Bound:
    """``f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1))``."""
    depth = depth_bound(tgds, tgd_class) + 1
    return Bound.power(depth, max(tgds.norm(), 1), 2 * max(tgds.arity(), 1) * depth)


def size_bound(database_size: int, tgds: TGDSet, tgd_class: TGDClass | None = None) -> Bound:
    """``|D| · f_C(Σ)``: the paper's bound on ``|chase(D, Σ)|``."""
    return database_size * size_bound_factor(tgds, tgd_class)


# perfbench's materialize check imports these two; new code compares
# the Bound itself.
def depth_bound_within(
    tgds: TGDSet, cap: int, tgd_class: TGDClass | None = None
) -> Optional[int]:
    """``d_C(Σ)`` as an int when it is at most ``cap``, else ``None``."""
    bound = depth_bound(tgds, tgd_class)
    return int(bound) if bound <= cap else None


def size_bound_within(
    database_size: int, tgds: TGDSet, cap: int, tgd_class: TGDClass | None = None
) -> Optional[int]:
    """``|D| · f_C(Σ)`` as an int when it is at most ``cap``, else ``None``."""
    bound = size_bound(database_size, tgds, tgd_class)
    return int(bound) if bound <= cap else None


def generic_size_bound(database_size: int, tgds: TGDSet, max_depth: int) -> Bound:
    """Proposition 5.2: ``|D| · (d+1) · ‖Σ‖^(2·ar(Σ)·(d+1))``."""
    return Bound.power(
        database_size * (max_depth + 1),
        max(tgds.norm(), 1),
        2 * max(tgds.arity(), 1) * (max_depth + 1),
    )


def per_tree_depth_slice_bound(tgds: TGDSet, depth: int) -> int:
    """Lemma 5.1: ``|gtree_i(δ, α)| ≤ ‖Σ‖^(2·ar(Σ)·(i+1))``."""
    norm = max(tgds.norm(), 1)
    arity = max(tgds.arity(), 1)
    return norm ** (2 * arity * (depth + 1))


def magnitude(value: int, threshold_digits: int = 30) -> str:
    """A printable form of a possibly astronomically large bound.

    Values with at most ``threshold_digits`` digits are rendered
    exactly; larger ones as ``~10^k``.  (Python refuses to stringify
    integers beyond a few thousand digits, and the guarded bounds
    easily exceed that.)
    """
    digits_estimate = _digits_estimate(value.bit_length())
    if digits_estimate <= threshold_digits:
        return str(value)
    return f"~10^{digits_estimate - 1}"


def _digits_estimate(bits: int) -> int:
    """``⌊bits · 0.30103⌋ + 1``, in integers so that no bit count overflows."""
    return bits * 30103 // 100_000 + 1


def sl_lower_bound_value(database_size: int, predicates: int, arity: int) -> int:
    """Theorem 6.5: ``|chase(D_ℓ, Σ_{n,m})| ≥ ℓ · m^(n·m)``.

    ``predicates`` is the paper's ``n`` (one less than ``|sch(Σ)|``) and
    ``arity`` its ``m``.
    """
    return database_size * arity ** (predicates * arity)


def linear_lower_bound_value(database_size: int, predicates: int, arity: int) -> int:
    """Theorem 7.6: ``|chase(D_ℓ, Σ_{n,m})| ≥ ℓ · 2^(n·(2^m − 1))``."""
    return database_size * 2 ** (predicates * (2**arity - 1))


def guarded_lower_bound_value(database_size: int, predicates: int, arity: int) -> int:
    """Theorem 8.4: ``|chase(D_ℓ, Σ_{n,m})| ≥ ℓ · 2^(2^n · (2^(2^m) − 1))``."""
    return database_size * 2 ** (2**predicates * (2 ** (2**arity) - 1))
