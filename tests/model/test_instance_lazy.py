"""Lazy secondary indexes of :class:`Instance` agree with a rescan.

The position index and the domain counts (with the maximum depth) are
built on first use and maintained on add/discard afterwards.  These
tests run random interleavings of mutations and queries against a
naive reference — a plain set of atoms rescanned on every query — so
an index that is built from stale state, or maintained wrongly once
built, shows up as a disagreement.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database, Instance
from repro.model.terms import Constant, Null, make_null

R = Predicate("R", 2)
S = Predicate("S", 1)
A, B, C = Constant("a"), Constant("b"), Constant("c")
N1 = make_null("r", "z", {"x": A})
N2 = make_null("r", "z", {"x": N1})
N3 = make_null("r", "z", {"x": N2})
TERMS = (A, B, C, N1, N2, N3)
ATOMS = tuple(Atom(R, (s, t)) for s in TERMS for t in TERMS) + tuple(
    Atom(S, (t,)) for t in TERMS
)


class Reference:
    """The specification: every query rescans the atom set."""

    def __init__(self) -> None:
        self.atoms = set()

    def candidates(self, predicate, bound):
        return {
            a
            for a in self.atoms
            if a.predicate == predicate and all(a.args[i] == t for i, t in bound.items())
        }

    def domain(self):
        return {t for a in self.atoms for t in a.args}

    def max_depth(self):
        return max((t.depth for t in self.domain()), default=0)


atom_indices = st.integers(min_value=0, max_value=len(ATOMS) - 1)
bounds = st.dictionaries(
    st.integers(min_value=0, max_value=1),
    st.sampled_from(TERMS),
    max_size=2,
)
operations = st.one_of(
    st.tuples(st.just("add"), atom_indices),
    st.tuples(st.just("discard"), atom_indices),
    st.tuples(st.just("extend"), st.lists(atom_indices, max_size=8)),
    st.tuples(st.just("candidates"), st.sampled_from((R, S)), bounds),
    st.tuples(st.just("view"), st.sampled_from((R, S)), bounds),
    st.tuples(st.just("domain")),
    st.tuples(st.just("max_depth")),
    st.tuples(st.just("count"), st.sampled_from((R, S))),
)


def _apply(instance: Instance, reference: Reference, op) -> None:
    kind = op[0]
    if kind == "add":
        a = ATOMS[op[1]]
        assert instance.add(a) == (a not in reference.atoms)
        reference.atoms.add(a)
    elif kind == "discard":
        a = ATOMS[op[1]]
        assert instance.discard(a) == (a in reference.atoms)
        reference.atoms.discard(a)
    elif kind == "extend":
        # The bulk path's contract: ground, distinct and all new.
        fresh = list(dict.fromkeys(ATOMS[i] for i in op[1] if ATOMS[i] not in reference.atoms))
        fresh.sort(key=lambda a: a.predicate.name)
        instance.extend_unique_ground(fresh)
        reference.atoms.update(fresh)
    elif kind in ("candidates", "view"):
        predicate = op[1]
        bound = {i: t for i, t in op[2].items() if i < predicate.arity}
        probe = instance.candidates if kind == "candidates" else instance.candidates_view
        assert set(probe(predicate, bound)) == reference.candidates(predicate, bound)
    elif kind == "domain":
        domain = reference.domain()
        assert instance.active_domain() == domain
        assert instance.constants() == {t for t in domain if isinstance(t, Constant)}
        assert instance.nulls() == {t for t in domain if isinstance(t, Null)}
    elif kind == "max_depth":
        assert instance.max_depth() == reference.max_depth()
    else:
        predicate = op[1]
        assert instance.count(predicate) == len(reference.candidates(predicate, {}))


@settings(max_examples=300, deadline=None)
@given(st.lists(operations, max_size=40))
def test_lazy_indexes_match_a_rescan(ops):
    instance, reference = Instance(), Reference()
    for op in ops:
        _apply(instance, reference, op)
    # Every query once more at the end, so each run ends with all
    # indexes built and checked against the final state.
    for op in (
        ("domain",),
        ("max_depth",),
        ("candidates", R, {0: A}),
        ("candidates", R, {0: N1, 1: N2}),
        ("count", S),
    ):
        _apply(instance, reference, op)
    assert set(instance) == reference.atoms
    assert len(instance) == len(reference.atoms)


@settings(max_examples=100, deadline=None)
@given(st.lists(operations, max_size=30), st.lists(operations, max_size=30))
def test_copies_start_unbuilt_and_agree(before, after):
    instance, reference = Instance(), Reference()
    for op in before:
        _apply(instance, reference, op)
    clone = instance.copy()
    assert clone._by_position is None and clone._domain is None
    clone_reference = Reference()
    clone_reference.atoms = set(reference.atoms)
    for op in after:
        _apply(clone, clone_reference, op)
    # The source is untouched by mutations of its copy.
    assert set(instance) == reference.atoms


def test_deepest_term_discarded_before_domain_is_built():
    instance = Instance([Atom(R, (A, N1)), Atom(S, (N3,))])
    assert instance._domain is None
    instance.discard(Atom(S, (N3,)))
    assert instance.max_depth() == 1
    assert instance.nulls() == {N1}


def test_deepest_term_discarded_after_domain_is_built():
    instance = Instance([Atom(R, (A, N1)), Atom(S, (N3,))])
    assert instance.max_depth() == 3
    instance.discard(Atom(S, (N3,)))
    assert instance.max_depth() == 1
    instance.add(Atom(S, (N2,)))
    assert instance.max_depth() == 2


def test_queries_build_only_the_index_they_need():
    instance = Instance([Atom(R, (A, B)), Atom(R, (B, N1))])
    assert instance.count(R) == 2
    assert instance.candidates_view(R, {}) == {Atom(R, (A, B)), Atom(R, (B, N1))}
    assert instance._by_position is None and instance._domain is None
    assert instance.candidates(R, {0: A}) == {Atom(R, (A, B))}
    assert instance._by_position is not None and instance._domain is None
    assert instance.max_depth() == 1
    assert instance._domain is not None


def test_trusted_copies_keep_class_and_predicates():
    database = Database([Atom(R, (A, B)), Atom(S, (C,))])
    copy = database.copy()
    assert isinstance(copy, Database) and copy == database
    plain = database.as_instance()
    assert type(plain) is Instance and plain == database
    restricted = database.restrict_to_predicates([S])
    assert type(restricted) is Instance
    assert set(restricted) == {Atom(S, (C,))}
    assert restricted.predicates() == {S}
    assert restricted.count(R) == 0


def test_concurrent_first_readers_never_see_a_partial_index():
    # Readers racing to build the same lazy index each publish a full
    # one; none may observe an index that is still being filled.
    atoms = [Atom(R, (Constant(f"c{i}"), Constant(f"c{i % 7}"))) for i in range(3000)]
    expected = {a for a in atoms if a.args[1] == Constant("c3")}
    domain = {t for a in atoms for t in a.args}
    failures = []

    def read(instance, barrier):
        barrier.wait(timeout=10)
        try:
            assert instance.candidates(R, {1: Constant("c3")}) == expected
            assert instance.active_domain() == domain
            assert instance.max_depth() == 0
        except AssertionError as exc:  # pragma: no cover - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            instance = Instance(atoms)
            barrier = threading.Barrier(6)
            threads = [
                threading.Thread(target=read, args=(instance, barrier)) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
