"""Mixed batch workloads for the runtime executor and its benchmark.

:func:`mixed_workload_jobs` produces a manifest-sized list of
:class:`~repro.runtime.jobs.ChaseJob` drawn from the paper's families
(SL / L / G lower bounds, Proposition 4.5), the realistic OBDA and
data-exchange scenarios, the non-terminating intro example, and seeded
random programs — the mixture a multi-tenant chase service would see.

Classified families run under ``budget_mode="auto"`` so the paper's
``d_C``/``f_C`` bounds drive their budgets; random guarded and
arbitrary sets (where the bounds are astronomically large or absent)
carry explicit budgets, exercising the policy's fallback path.  Jobs
are tagged with their family and, where known, ``terminating`` /
``nonterminating``, which the benchmark uses to check that
auto-budgeted SL/L jobs never trip the atom budget on terminating
inputs.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.chase.engine import ChaseBudget
from repro.model.atoms import Atom, Predicate
from repro.model.instance import Database
from repro.model.terms import Constant, Variable
from repro.model.tgd import TGD, TGDSet
from repro.generators.families import (
    guarded_lower_bound,
    intro_nonterminating_example,
    linear_lower_bound,
    prop45_family,
    sl_lower_bound,
)
from repro.generators.random_programs import (
    random_database,
    random_guarded_program,
    random_linear_program,
    random_simple_linear_program,
)
from repro.generators.scenarios import data_exchange_scenario, university_ontology_scenario
from repro.runtime.jobs import ChaseJob

#: Explicit fallback budget for random guarded programs, whose paper
#: bounds are far over any practical cap.
_RANDOM_GUARDED_BUDGET = ChaseBudget(max_atoms=4_000, max_rounds=10_000)


def restricted_heavy(chain_length: int, payloads: int) -> Tuple[Database, TGDSet]:
    """A workload dominated by restricted-chase head-satisfaction checks.

    ``payloads`` tagged tokens are propagated down a ``chain_length``
    constant chain by an existential rule, and two echo rules keep
    re-deriving triggers whose heads are *already* satisfied — so a
    restricted-chase engine spends its time answering "does some
    ``P(y, _, u)`` exist?", the check this family is built to stress:

    * ``E(x,y), P(x,v,u) → ∃w P(y,w,u)`` — fires once per (position,
      payload) frontier key, ``chain_length · payloads`` head joins;
    * ``P(y,w,u) → Q(y,u)`` — full rule, containment only;
    * ``E(x,y), Q(y,u) → ∃w P(y,w,u)`` and
      ``E(x,y), P(x,v,u), Q(x,u) → ∃w P(y,w,u)`` — by the time their
      bodies match, the head is always satisfied: pure check load.

    Every trigger's activeness is decided by facts created in *earlier*
    rounds, never by another trigger of the same round with a different
    frontier key, so the fired-key set — and with it the result — does
    not depend on within-round application order.
    The chase terminates for all three variants.
    """
    if chain_length < 2 or payloads < 1:
        raise ValueError("chain_length must be > 1 and payloads positive")
    edge = Predicate("E", 2)
    payload = Predicate("P", 3)
    echo = Predicate("Q", 2)
    chain = [Constant(f"a{i}") for i in range(1, chain_length + 1)]
    tags = [Constant(f"t{j}") for j in range(1, payloads + 1)]
    facts = [Atom(edge, (chain[i], chain[i + 1])) for i in range(chain_length - 1)]
    facts.extend(Atom(payload, (chain[0], tag, tag)) for tag in tags)
    database = Database(facts)

    x, y, u, v, w = (Variable(name) for name in "xyuvw")
    tgds = TGDSet(
        [
            TGD(
                body=(Atom(edge, (x, y)), Atom(payload, (x, v, u))),
                head=(Atom(payload, (y, w, u)),),
                rule_id="rh_propagate",
            ),
            TGD(
                body=(Atom(payload, (y, w, u)),),
                head=(Atom(echo, (y, u)),),
                rule_id="rh_echo",
            ),
            TGD(
                body=(Atom(edge, (x, y)), Atom(echo, (y, u))),
                head=(Atom(payload, (y, w, u)),),
                rule_id="rh_recheck",
            ),
            TGD(
                body=(Atom(edge, (x, y)), Atom(payload, (x, v, u)), Atom(echo, (x, u))),
                head=(Atom(payload, (y, w, u)),),
                rule_id="rh_recheck_join",
            ),
        ],
        name=f"restricted_heavy(n={chain_length},m={payloads})",
    )
    return database, tgds


def _family_makers(rng: random.Random) -> List[Callable[[int], ChaseJob]]:
    """One constructor per workload family; ``index`` varies parameters."""

    def sl_family(index: int) -> ChaseJob:
        ell = 1 + index % 3
        database, tgds = sl_lower_bound(2, 2, ell)
        return ChaseJob(
            program=tgds, database=database, job_id=f"sl-family-{index}",
            tags=("family:sl", "terminating"),
        )

    def linear_family(index: int) -> ChaseJob:
        ell = 1 + index % 3
        database, tgds = linear_lower_bound(2, 2, ell)
        return ChaseJob(
            program=tgds, database=database, job_id=f"linear-family-{index}",
            tags=("family:linear", "terminating"),
        )

    def guarded_family(index: int) -> ChaseJob:
        database, tgds = guarded_lower_bound(1, 1, 1)
        return ChaseJob(
            program=tgds, database=database, job_id=f"guarded-family-{index}",
            tags=("family:guarded", "terminating"),
        )

    def prop45(index: int) -> ChaseJob:
        database, tgds = prop45_family(3 + index % 5)
        return ChaseJob(
            program=tgds, database=database, job_id=f"prop45-{index}",
            tags=("family:prop45", "terminating"),
        )

    def intro(index: int) -> ChaseJob:
        database, tgds = intro_nonterminating_example()
        return ChaseJob(
            program=tgds, database=database, job_id=f"intro-{index}",
            tags=("family:intro", "nonterminating"),
        )

    def university(index: int) -> ChaseJob:
        scenario = university_ontology_scenario(
            students=5 + index % 10, courses=3 + index % 3, professors=2, seed=index
        )
        return ChaseJob(
            program=scenario.tgds, database=scenario.database,
            job_id=f"university-{index}", tags=("family:university", "terminating"),
        )

    def data_exchange(index: int) -> ChaseJob:
        cyclic = index % 2 == 1
        scenario = data_exchange_scenario(
            employees=4 + index % 6, departments=2, seed=index, weakly_acyclic=not cyclic
        )
        return ChaseJob(
            program=scenario.tgds, database=scenario.database,
            job_id=f"data-exchange-{index}",
            tags=("family:data-exchange", "nonterminating" if cyclic else "terminating"),
        )

    def random_sl(index: int) -> ChaseJob:
        seed = rng.randint(0, 10_000)
        program = random_simple_linear_program(seed)
        return ChaseJob(
            program=program, database=random_database(program, seed + 1, fact_count=6),
            job_id=f"random-sl-{index}", tags=("family:random-sl",), timeout_seconds=2.0,
        )

    def random_l(index: int) -> ChaseJob:
        seed = rng.randint(0, 10_000)
        program = random_linear_program(seed)
        return ChaseJob(
            program=program, database=random_database(program, seed + 1, fact_count=6),
            job_id=f"random-linear-{index}", tags=("family:random-linear",),
            timeout_seconds=2.0,
        )

    def random_g(index: int) -> ChaseJob:
        seed = rng.randint(0, 10_000)
        program = random_guarded_program(seed)
        return ChaseJob(
            program=program, database=random_database(program, seed + 1, fact_count=6),
            job_id=f"random-guarded-{index}", tags=("family:random-guarded",),
            budget_mode="explicit", budget=_RANDOM_GUARDED_BUDGET, timeout_seconds=2.0,
        )

    return [
        sl_family, linear_family, guarded_family, prop45, intro,
        university, data_exchange, random_sl, random_l, random_g,
    ]


def mixed_workload_jobs(job_count: int = 200, seed: int = 7) -> List[ChaseJob]:
    """A deterministic mixed manifest of ``job_count`` jobs.

    Families are interleaved round-robin so any prefix is still mixed;
    the random-program seeds derive from ``seed``.
    """
    rng = random.Random(seed)
    makers = _family_makers(rng)
    jobs: List[ChaseJob] = []
    for index in range(job_count):
        maker = makers[index % len(makers)]
        jobs.append(maker(index // len(makers)))
    return jobs
