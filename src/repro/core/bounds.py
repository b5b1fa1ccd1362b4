"""The paper's depth and size bounds (Sections 5–8).

* ``d_C(Σ)`` bounds ``maxdepth(D, Σ)`` for ``Σ ∈ C ∩ CT_D``:

  - ``d_SL(Σ) = |sch(Σ)| · ar(Σ)``
  - ``d_L(Σ)  = |sch(Σ)| · ar(Σ)^(ar(Σ)+1)``
  - ``d_G(Σ)  = |sch(Σ)| · ar(Σ)^(2·ar(Σ)+1) · 2^(|sch(Σ)| · ar(Σ)^ar(Σ))``

* ``f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1))`` bounds
  ``|chase(D, Σ)| / |D|`` (Theorems 6.4, 7.5, 8.3).

* the generic bound of Proposition 5.2 bounds ``|chase(D, Σ)|`` by
  ``|D| · (d+1) · ‖Σ‖^(2·ar(Σ)·(d+1))`` for guarded Σ, where ``d`` is
  the (measured) maximal depth.

The values are exact Python integers; for guarded sets they become
astronomically large, which is precisely the paper's point about the
naive decision procedure.
"""

from __future__ import annotations

from typing import Optional

from repro.model.tgd import TGDSet
from repro.core.classify import TGDClass, classify


def depth_bound(tgds: TGDSet, tgd_class: TGDClass | None = None) -> int:
    """``d_C(Σ)`` for the given (or inferred) class ``C ∈ {SL, L, G}``."""
    tgd_class = tgd_class or classify(tgds)
    schema_size = len(tgds.schema())
    arity = max(tgds.arity(), 1)
    if tgd_class is TGDClass.SIMPLE_LINEAR:
        return schema_size * arity
    if tgd_class is TGDClass.LINEAR:
        return schema_size * arity ** (arity + 1)
    if tgd_class is TGDClass.GUARDED:
        # ``2^e`` as a shift: ``2 ** e`` squares its way up to an
        # integer of e bits (milliseconds once e is in the millions).
        return (schema_size * arity ** (2 * arity + 1)) << (schema_size * arity**arity)
    raise ValueError(
        "the paper provides depth bounds for SL, L and G only; "
        f"got class {tgd_class}"
    )


def depth_bound_within(
    tgds: TGDSet,
    cap: int,
    tgd_class: TGDClass | None = None,
) -> Optional[int]:
    """``d_C(Σ)`` when it is at most ``cap``, else ``None``.

    The guarded depth bound contains ``2^(|sch|·ar^ar)``, which can be
    astronomically large; like :func:`size_bound_within` this rejects
    hopeless cases from the exponent alone (``2^e > cap`` whenever
    ``e ≥ bitlen(cap)``) before materialising any big power, so the
    conformance monitor can call it on every job.
    """
    tgd_class = tgd_class or classify(tgds)
    if tgd_class is TGDClass.GUARDED:
        schema_size = len(tgds.schema())
        arity = max(tgds.arity(), 1)
        exponent = schema_size * arity**arity
        if exponent >= max(cap, 1).bit_length():
            return None
    value = depth_bound(tgds, tgd_class)
    return value if value <= cap else None


def size_bound_factor(tgds: TGDSet, tgd_class: TGDClass | None = None) -> int:
    """``f_C(Σ) = (d_C(Σ)+1) · ‖Σ‖^(2·ar(Σ)·(d_C(Σ)+1))``."""
    tgd_class = tgd_class or classify(tgds)
    depth = depth_bound(tgds, tgd_class)
    norm = max(tgds.norm(), 1)
    arity = max(tgds.arity(), 1)
    return (depth + 1) * norm ** (2 * arity * (depth + 1))


def size_bound(database_size: int, tgds: TGDSet, tgd_class: TGDClass | None = None) -> int:
    """``|D| · f_C(Σ)``: the paper's bound on ``|chase(D, Σ)|``.

    Beware: for guarded sets the value is astronomically large and this
    computes it exactly; callers that only need to know whether the
    bound is *practically usable* should use :func:`size_bound_within`,
    which refuses to materialise over-cap powers.
    """
    return database_size * size_bound_factor(tgds, tgd_class)


def size_bound_within(
    database_size: int,
    tgds: TGDSet,
    cap: int,
    tgd_class: TGDClass | None = None,
) -> Optional[int]:
    """``|D| · f_C(Σ)`` when it is at most ``cap``, else ``None``.

    The guarded bounds involve powers whose exponents are themselves
    astronomically large; naively exponentiating would exhaust memory.
    A bit-length estimate (``norm^e ≥ 2^(e·(bitlen(norm)−1))``) rejects
    hopeless cases before any big power is materialised, so this is
    safe to call on every job the budget policy sees.
    """
    tgd_class = tgd_class or classify(tgds)
    depth = depth_bound(tgds, tgd_class)
    norm = max(tgds.norm(), 1)
    arity = max(tgds.arity(), 1)
    exponent = 2 * arity * (depth + 1)
    if norm > 1 and exponent * (norm.bit_length() - 1) >= max(cap, 1).bit_length():
        return None
    value = database_size * (depth + 1) * norm**exponent
    return value if value <= cap else None


def generic_size_bound(database_size: int, tgds: TGDSet, max_depth: int) -> int:
    """Proposition 5.2: ``|D| · (d+1) · ‖Σ‖^(2·ar(Σ)·(d+1))``."""
    norm = max(tgds.norm(), 1)
    arity = max(tgds.arity(), 1)
    return database_size * (max_depth + 1) * norm ** (2 * arity * (max_depth + 1))


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
    bits = value.bit_length()
    digits_estimate = int(bits * 0.30103) + 1
    if digits_estimate <= threshold_digits:
        return str(value)
    return f"~10^{digits_estimate - 1}"


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
