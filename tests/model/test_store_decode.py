"""The fact store's decode boundary.

:meth:`FactStore.to_instance` materialises every invented null in one
forward pass in id order, passing the depth the store tracked for the
id instead of recomputing it, and hands back an instance whose lazy
indexes are still unbuilt.  :meth:`FactStore.term_of_id` decodes one
term at a time the same way.  These tests pin all three properties.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import uuid

import pytest

from repro.chase import oblivious_chase, restricted_chase, semi_oblivious_chase
from repro.generators.families import (
    guarded_lower_bound,
    linear_lower_bound,
    sl_lower_bound,
)
from repro.generators.scenarios import university_ontology_scenario
from repro.generators.workloads import restricted_heavy
from repro.model.atoms import Atom, Predicate
from repro.model.instance import Instance
from repro.model.parser import parse_program
from repro.model.store import FactStore
from repro.model.terms import _NULL_INTERN, Constant, Null, make_null, term_label
from repro.model.tgd import TGDSet


def _university():
    scenario = university_ontology_scenario(students=40, courses=4, professors=2, seed=3)
    return scenario.database, scenario.tgds


INPUTS = {
    "sl": (semi_oblivious_chase, lambda: sl_lower_bound(2, 2, 2)),
    "linear": (semi_oblivious_chase, lambda: linear_lower_bound(2, 2, 2)),
    "guarded": (semi_oblivious_chase, lambda: guarded_lower_bound(1, 1, 2)),
    "university": (semi_oblivious_chase, _university),
    "oblivious-sl": (oblivious_chase, lambda: sl_lower_bound(2, 2, 1)),
    "restricted-heavy": (restricted_chase, lambda: restricted_heavy(12, 4)),
}


def _definition_depth(null: Null) -> int:
    """Definition 4.3: ``1 + max(depth of binding terms, 0)``."""
    return 1 + max((term.depth for _, term in null.binding), default=0)


def _assert_trusted_depths(nulls) -> None:
    for null in nulls:
        assert null.depth == _definition_depth(null), null


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_decoded_null_depths_match_definition(name):
    runner, make = INPUTS[name]
    database, tgds = make()
    result = runner(database, tgds, record_derivation=False)
    blob = result.store_snapshot()
    instance = result.instance
    nulls = instance.nulls()
    assert nulls, "every input invents nulls"
    _assert_trusted_depths(nulls)
    assert instance.max_depth() == result.max_depth

    # The single-term path, on a fresh copy where nothing is decoded
    # yet: ids in *descending* order, so each decode walks its whole
    # dependency chain through the stack.
    single = FactStore.restore(blob)
    decoded = [single.term_of_id(tid) for tid in reversed(range(len(single._term_of_id)))]
    single_nulls = {t for t in decoded if isinstance(t, Null)}
    _assert_trusted_depths(single_nulls)
    assert nulls <= single_nulls
    assert {(n.uid, n.depth) for n in nulls} <= {(n.uid, n.depth) for n in single_nulls}
    # And the restored store's bulk decode agrees with the original.
    assert FactStore.restore(blob).to_instance() == instance


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_decode_leaves_lazy_indexes_unbuilt(name):
    runner, make = INPUTS[name]
    database, tgds = make()
    result = runner(database, tgds, record_derivation=False)
    store_instance = FactStore.restore(result.store_snapshot()).to_instance()
    for instance in (store_instance, result.instance):
        assert instance._by_position is None
        assert instance._domain is None
    assert len(result.instance) == result.size


def test_derivation_steps_decode_with_trusted_depths():
    database, tgds = sl_lower_bound(2, 2, 1)
    result = semi_oblivious_chase(database, tgds, record_derivation=True)
    nulls = {
        term
        for step in result.derivation
        for atom in step.new_atoms
        for term in atom.args
        if isinstance(term, Null)
    }
    assert nulls
    _assert_trusted_depths(nulls)


def _foreign_chain(depth: int):
    """Nulls ``n_1 … n_depth`` with ``n_{i+1}`` built over ``n_i``."""
    chain = [make_null("foreign", "z", {"x": Constant("a")})]
    while len(chain) < depth:
        chain.append(make_null("foreign", "z", {"x": chain[-1]}))
    return chain


def test_resume_over_deep_foreign_nulls():
    # The input instance is itself a chase result: nulls nested four
    # deep.  Snapshotting recipe-encodes them with their binding terms
    # interned *after* them, so the restored store breaks the id-order
    # the bulk decode relies on; the resumed run then invents nulls on
    # top of the restored ones.
    E, K = Predicate("E", 2), Predicate("K", 1)
    chain = _foreign_chain(4)
    base_atoms = [Atom(E, (chain[3], chain[2])), Atom(E, (chain[2], chain[1]))]
    delta_atoms = [Atom(E, (chain[1], chain[0])), Atom(K, (chain[3],))]
    tgds = parse_program(
        "E(x, y) -> exists w . F(y, w)\n"
        "F(x, y), K(z) -> exists v . G(y, v)\n"
    )
    base = semi_oblivious_chase(Instance(base_atoms), tgds, record_derivation=False)
    snapshot = base.store_snapshot()
    restored = FactStore.restore(snapshot)
    # The id-order assumption does not hold for this store.
    out_of_order = [
        tid
        for tid, (_, _, _, ids) in restored._null_recipe.items()
        if any(i > tid for i in ids)
    ]
    assert out_of_order

    full = Instance(base_atoms + delta_atoms)
    resumed = semi_oblivious_chase(
        Instance(delta_atoms), tgds, record_derivation=False,
        resume_from=snapshot, database_size=len(full),
    )
    cold = semi_oblivious_chase(full, tgds, record_derivation=False)
    assert resumed.instance == cold.instance
    assert resumed.instance._by_position is None and resumed.instance._domain is None
    nulls = resumed.instance.nulls()
    assert set(chain) <= nulls
    invented = {n for n in nulls if n.rule_id != "foreign"}
    assert {n.variable for n in invented} == {"w", "v"}
    # v over w over n_3, the deepest E target: 3 + 1 + 1.
    assert max(n.depth for n in invented) == 5
    _assert_trusted_depths(nulls)
    # Decoding the restored base store on its own hits the fallback.
    assert restored.to_instance() == base.instance


def _label_key(null: Null):
    return (
        null.rule_id,
        null.variable,
        tuple((name, term_label(term)) for name, term in null.binding),
    )


def test_bulk_intern_under_thread_contention():
    # Stores whose labels no earlier decode interned (fresh rule ids).
    # Two threads decode every one of them, in opposite orders so that
    # they intern different new labels at once, switching as often as
    # the interpreter allows: a uid handed out from a stale table size
    # would give two labels one uid.
    database, tgds = sl_lower_bound(2, 2, 1)
    tag = uuid.uuid4().hex
    stores = 100
    blobs = []
    for i in range(stores):
        fresh = TGDSet(
            [dataclasses.replace(t, rule_id=f"{t.rule_id}-{tag}-{i}") for t in tgds]
        )
        blobs.append(
            semi_oblivious_chase(database, fresh, record_derivation=False).store_snapshot()
        )
    decoded = {}
    errors = []

    def decode(order) -> None:
        try:
            for i in order:
                decoded.setdefault(i, []).append(FactStore.restore(blobs[i]).to_instance())
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    forward = list(range(len(blobs)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=decode, args=(order,))
            for order in (forward, forward[::-1])
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    uid_of_label = {}
    for first, second in decoded.values():
        assert first == second
        for null in first.nulls():
            assert uid_of_label.setdefault(_label_key(null), null.uid) == null.uid
    assert len(uid_of_label) == stores * len(decoded[0][0].nulls())
    # Every label has exactly one uid, and no uid names two labels.
    assert len(set(uid_of_label.values())) == len(uid_of_label)
    assert all(_NULL_INTERN[label] == uid for label, uid in uid_of_label.items())
