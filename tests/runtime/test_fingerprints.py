"""Fingerprint canonicalization: isomorphic inputs hash equal,
non-isomorphic inputs don't.

The property-based parts generate random programs/instances, apply a
random isomorphism (rule shuffling, variable renaming, fact shuffling,
labelled-null relabelling) and check the fingerprint is unchanged.
"""

import random

import pytest

from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database, Instance
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import (
    canonical_instance_text,
    canonical_program_text,
    canonical_tgd_text,
)
from repro.model.terms import Constant, Variable, make_null
from repro.model.tgd import TGD, TGDSet
from repro.generators.random_programs import (
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.runtime import database_fingerprint, program_fingerprint
from repro.chase.semi_oblivious import semi_oblivious_chase


def rename_variables(tgd: TGD, mapping, rule_id=None) -> TGD:
    return TGD(
        body=tuple(a.substitute(mapping) for a in tgd.body),
        head=tuple(a.substitute(mapping) for a in tgd.head),
        rule_id=rule_id or tgd.rule_id,
    )


def shuffled_renamed_copy(program: TGDSet, rng: random.Random) -> TGDSet:
    """A random isomorphic copy: shuffle rules and atoms, rename
    variables per rule, change every rule identifier."""
    rules = []
    for i, tgd in enumerate(program):
        variables = sorted(tgd.body_variables() | tgd.head_variables(), key=lambda v: v.name)
        fresh = [Variable(f"w{rng.randrange(10**9)}_{j}") for j in range(len(variables))]
        mapping = dict(zip(variables, fresh))
        body = list(tgd.body)
        head = list(tgd.head)
        rng.shuffle(body)
        rng.shuffle(head)
        renamed = TGD(
            body=tuple(a.substitute(mapping) for a in body),
            head=tuple(a.substitute(mapping) for a in head),
            rule_id=f"copy_{rng.randrange(10**9)}_{i}",
        )
        rules.append(renamed)
    rng.shuffle(rules)
    return TGDSet(rules, name="copy")


class TestProgramFingerprints:
    def test_rule_order_and_renaming_invariant(self):
        p1 = parse_program("R(x, y) -> exists z . S(y, z)\nS(x, y) -> T(x)")
        p2 = parse_program("S(a, b) -> T(a)\nR(u, v) -> exists w . S(v, w)")
        assert program_fingerprint(p1) == program_fingerprint(p2)

    def test_shared_variable_chain_invariant(self):
        chain1 = parse_program("R(x, y), R(y, z) -> S(x, z)")
        chain2 = parse_program("R(y, z), R(x, y) -> S(x, z)")
        chain3 = parse_program("R(a, b), R(b, c) -> S(a, c)")
        assert (
            program_fingerprint(chain1)
            == program_fingerprint(chain2)
            == program_fingerprint(chain3)
        )

    def test_fan_out_differs_from_fan_in(self):
        fan_out = parse_program("R(x, y), R(x, z) -> S(y, z)")
        fan_in = parse_program("R(y, x), R(z, x) -> S(y, z)")
        assert program_fingerprint(fan_out) != program_fingerprint(fan_in)

    def test_different_predicates_differ(self):
        assert program_fingerprint(parse_program("R(x) -> S(x)")) != program_fingerprint(
            parse_program("R(x) -> T(x)")
        )

    def test_repeated_variable_differs_from_simple(self):
        linear = parse_program("R(x, x) -> S(x)")
        simple = parse_program("R(x, y) -> S(x)")
        assert program_fingerprint(linear) != program_fingerprint(simple)

    def test_existential_position_matters(self):
        p1 = parse_program("R(x, y) -> exists z . S(x, z)")
        p2 = parse_program("R(x, y) -> exists z . S(z, x)")
        assert program_fingerprint(p1) != program_fingerprint(p2)

    @pytest.mark.parametrize("maker", [
        random_simple_linear_program,
        random_linear_program,
        random_guarded_program,
    ])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_isomorphic_copies_hash_equal(self, maker, seed):
        rng = random.Random(seed * 31 + 1)
        program = maker(seed)
        copy = shuffled_renamed_copy(program, rng)
        assert program_fingerprint(program) == program_fingerprint(copy)

    def test_canonical_tgd_text_drops_rule_id(self):
        a = parse_program("R(x, y) -> S(y)", name="first")[0]
        b = parse_program("R(q, r) -> S(r)", name="second")[0]
        assert a.rule_id != b.rule_id
        assert canonical_tgd_text(a) == canonical_tgd_text(b)


class TestDatabaseFingerprints:
    def test_fact_order_invariant(self):
        d1 = parse_database("R(a, b).\nR(b, c).\nS(a).")
        d2 = parse_database("S(a).\nR(b, c).\nR(a, b).")
        assert database_fingerprint(d1) == database_fingerprint(d2)

    def test_different_facts_differ(self):
        d1 = parse_database("R(a, b).")
        d2 = parse_database("R(b, a).")
        assert database_fingerprint(d1) != database_fingerprint(d2)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_fact_shuffles_hash_equal(self, seed):
        rng = random.Random(seed)
        relation = Predicate("R", 2)
        constants = [Constant(f"c{i}") for i in range(6)]
        facts = [
            Atom(relation, (rng.choice(constants), rng.choice(constants)))
            for _ in range(12)
        ]
        shuffled = list(facts)
        rng.shuffle(shuffled)
        assert database_fingerprint(Database(facts)) == database_fingerprint(
            Database(shuffled)
        )


class TestNullRenamingInvariance:
    def _chain_instance(self, labels):
        """``R(a, n1), R(n1, n2)`` with nulls labelled per ``labels``."""
        relation = Predicate("R", 2)
        a = Constant("a")
        n1 = make_null(labels[0], "z", {"x": a})
        n2 = make_null(labels[1], "z", {"x": n1})
        return Instance([Atom(relation, (a, n1)), Atom(relation, (n1, n2))])

    def test_null_relabelling_invariant(self):
        i1 = self._chain_instance(("ruleA", "ruleA"))
        i2 = self._chain_instance(("completely_other", "completely_other"))
        assert canonical_instance_text(i1) == canonical_instance_text(i2)
        assert database_fingerprint(i1) == database_fingerprint(i2)

    def test_non_isomorphic_null_structure_differs(self):
        relation = Predicate("R", 2)
        a = Constant("a")
        n1 = make_null("r", "z", {"x": a})
        n2 = make_null("r", "w", {"x": a})
        fork = Instance([Atom(relation, (a, n1)), Atom(relation, (a, n2))])
        loop = Instance([Atom(relation, (a, n1)), Atom(relation, (n1, n1))])
        assert canonical_instance_text(fork) != canonical_instance_text(loop)

    def test_chase_results_from_isomorphic_inputs_hash_equal(self):
        """Nulls invented by different rule ids still canonicalise away."""
        from repro.generators.random_programs import random_database

        rng = random.Random(5)
        program = random_simple_linear_program(3)
        copy = shuffled_renamed_copy(program, rng)
        database = random_database(program, 17, fact_count=5)
        r1 = semi_oblivious_chase(database, program, record_derivation=False)
        r2 = semi_oblivious_chase(database, copy, record_derivation=False)
        assert r1.terminated and r2.terminated
        assert canonical_instance_text(r1.instance) == canonical_instance_text(r2.instance)


class TestFingerprintsCannotDrift:
    """Canonical labels are memoised by rule shape and predicate-name
    order (``serialization._LABELS``); the text must not move."""

    #: sha256 over the sorted program fingerprints of the 1,320 distinct
    #: programs in ``mixed_workload_jobs(4500, 11)``, computed with the
    #: direct (unmemoised) labelling.
    POOL_DIGEST = "73428c6a35844a828deb304c167b4ed3c469ead13da979ec346046a1bb1a7d41"

    def test_mixed_pool_digest(self):
        from hashlib import sha256

        from repro.generators.workloads import mixed_workload_jobs

        jobs = mixed_workload_jobs(4500, 11)
        fingerprints = sorted({program_fingerprint(job.program) for job in jobs})
        assert len(fingerprints) == 1320
        assert sha256("\n".join(fingerprints).encode()).hexdigest() == self.POOL_DIGEST

    SYMMETRIC = [
        "R(x, y), R(y, x) -> S(x, y)",
        "R(x, y), R(y, z), R(z, x) -> T(x)",
        "R(x), R(y) -> S(x, y)",
        "E(x, y), E(y, x) -> exists z . E(x, z), E(y, z)",
        "R(x, y), R(x, z) -> exists u, w . S(y, u), S(z, w)",
        "R(x, x, y), R(y, y, x) -> R(x, y)",
        "R(x, y), R(x, y, z) -> R(z)",
    ]

    @staticmethod
    def _random_rule(rng: random.Random, index: int) -> TGD:
        """Few names, so predicates share names across arities, and
        few variables, so atoms repeat them and bodies have ties."""
        def atom(variables):
            arity = rng.randint(1, 3)
            name = rng.choice("RST")
            return Atom(Predicate(name, arity), tuple(rng.choice(variables) for _ in range(arity)))

        pool = [Variable(f"x{i}") for i in range(rng.randint(1, 4))]
        body = tuple(atom(pool) for _ in range(rng.randint(1, 4)))
        used = sorted({v for a in body for v in a.args}, key=lambda v: v.name)
        head_pool = used + [Variable(f"z{i}") for i in range(rng.randint(0, 2))]
        head = tuple(atom(head_pool) for _ in range(rng.randint(1, 2)))
        return TGD(body=body, head=head, rule_id=f"rand{index}")

    @staticmethod
    def _renamed(tgd: TGD, rng: random.Random) -> TGD:
        """Variables renamed in a random order, predicate names permuted."""
        variables = sorted(tgd.body_variables() | tgd.head_variables(), key=lambda v: v.name)
        fresh = [Variable(f"q{i}") for i in range(len(variables))]
        rng.shuffle(fresh)
        names = sorted({a.predicate.name for a in tgd.atoms()})
        permuted = list(names)
        rng.shuffle(permuted)
        rename = dict(zip(names, permuted))
        mapping = dict(zip(variables, fresh))

        def move(a: Atom) -> Atom:
            return Atom(
                Predicate(rename[a.predicate.name], a.predicate.arity),
                tuple(mapping[v] for v in a.args),
            )

        return TGD(tuple(move(a) for a in tgd.body), tuple(move(a) for a in tgd.head), tgd.rule_id)

    @pytest.mark.parametrize("seed", range(4))
    def test_memoised_labels_equal_direct_labels(self, seed, monkeypatch):
        from repro.model import serialization

        memo = {}
        monkeypatch.setattr(serialization, "_LABELS", memo)
        rng = random.Random(seed)
        rules = [parse_program(text)[0] for text in self.SYMMETRIC]
        rules += [self._random_rule(rng, i) for i in range(150)]
        checked = 0
        for tgd in rules:
            for rule in (tgd, self._renamed(tgd, rng), self._renamed(tgd, rng)):
                direct = serialization._render_tgd(rule, serialization._direct_labels(rule))
                assert canonical_tgd_text(rule) == direct, rule
                checked += 1
        assert 0 < len(memo) < checked
