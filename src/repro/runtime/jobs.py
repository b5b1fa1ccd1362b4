"""Declarative chase jobs and canonical content fingerprints.

A :class:`ChaseJob` is the runtime's unit of work: a program, a
database, a chase variant, and a budget policy hint.  Jobs are what the
batch executor schedules, what the result cache keys on, and what the
``python -m repro batch`` manifest format describes.

Fingerprints are SHA-256 hashes of the canonical serialisations from
:mod:`repro.model.serialization`, so they are invariant under rule and
fact reordering, rule-identifier changes, per-rule variable renamings
and labelled-null relabellings.  Two users submitting the same ontology
written in a different order therefore share cache entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chase import VARIANT_RUNNERS
from repro.chase.engine import ChaseBudget
from repro.model.instance import Database, Instance
from repro.model.parser import parse_database, parse_program
from repro.model.serialization import (
    atom_to_text,
    canonical_instance_text,
    canonical_program_text,
    database_fact_lines,
    database_to_text,
    program_to_text,
)
from repro.model.store import FactStore
from repro.model.tgd import TGDSet

#: Chase variants a job may request (CLI spelling), derived from the
#: single runner registry in :mod:`repro.chase`.
VARIANTS: Tuple[str, ...] = tuple(VARIANT_RUNNERS)

#: Budget modes: derive from the paper's bounds, use the job's explicit
#: budget, or fall back to the engine default.
BUDGET_MODES: Tuple[str, ...] = ("auto", "explicit", "default")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def program_fingerprint(program: TGDSet) -> str:
    """Content fingerprint of a program (order- and renaming-invariant)."""
    return _sha256(canonical_program_text(program))


def database_fingerprint(database: Instance) -> str:
    """Content fingerprint of a database or instance (order- and
    null-renaming-invariant)."""
    return _sha256(canonical_instance_text(database))


def seed_database_store(database: Instance) -> FactStore:
    """A fresh fact store holding ``database``, the start of one chase.

    Facts are interned in the sorted order of :func:`database_to_text`,
    which :func:`parse_database` yields back in file order, so a run
    seeded here assigns the same dense ids (and considers triggers in
    the same order) as a text one.  This is the batch executor's
    in-process seed, and :func:`encode_database_snapshot` packs exactly
    this store, so pooled and in-process runs agree too.
    """
    store = FactStore()
    for atom in sorted(database, key=atom_to_text):
        store.add_atom(atom)
    # Input nulls get the recipes a snapshot would give them, so the
    # store reads exactly like its restored snapshot.
    store.register_foreign_nulls()
    return store


def encode_database_snapshot(database: Instance) -> bytes:
    """Pack a database into fact-store snapshot bytes.

    This is what the batch executor ships to worker processes instead
    of database text: the worker restores the store and starts chasing
    without parsing or re-interning anything.
    """
    return seed_database_store(database).snapshot()


@dataclass
class ChaseJob:
    """One unit of batch work: chase ``database`` with ``program``.

    Attributes
    ----------
    program / database:
        The input pair.
    variant:
        One of :data:`VARIANTS`.
    budget_mode:
        ``"auto"`` lets the budget policy derive limits from the
        paper's bounds, ``"explicit"`` uses :attr:`budget` verbatim,
        ``"default"`` takes the policy's default budget.
    budget:
        The explicit budget (required when ``budget_mode="explicit"``).
    timeout_seconds:
        Per-job wall-clock limit, merged into the resolved budget's
        ``max_seconds`` by the executor.
    tags:
        Free-form labels (workload family, expected behaviour) carried
        into results for reporting.
    """

    program: TGDSet
    database: Database
    job_id: str = ""
    variant: str = "semi-oblivious"
    budget_mode: str = "auto"
    budget: Optional[ChaseBudget] = None
    timeout_seconds: Optional[float] = None
    tags: Tuple[str, ...] = ()
    _fingerprint: Optional[Tuple[str, str]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _database_snapshot: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )
    _database_lines: Optional[Tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.budget_mode not in BUDGET_MODES:
            raise ValueError(
                f"unknown budget mode {self.budget_mode!r}, expected one of {BUDGET_MODES}"
            )
        if self.budget_mode == "explicit" and self.budget is None:
            raise ValueError("budget_mode='explicit' requires a budget")
        if not self.job_id:
            pfp, dfp = self.fingerprint
            self.job_id = f"job-{pfp[:8]}-{dfp[:8]}"

    @property
    def fingerprint(self) -> Tuple[str, str]:
        """``(program fingerprint, database fingerprint)``, computed once."""
        if self._fingerprint is None:
            self._fingerprint = (
                program_fingerprint(self.program),
                database_fingerprint(self.database),
            )
        return self._fingerprint

    @property
    def database_snapshot(self) -> bytes:
        """The database as snapshot bytes, encoded once per job.

        Only a process pool ships it (in-process runs seed a store from
        :attr:`database` directly); the cache makes a pooled job encode
        once however often its payload is rebuilt.
        """
        if self._database_snapshot is None:
            self._database_snapshot = encode_database_snapshot(self.database)
        return self._database_snapshot

    @property
    def database_lines(self) -> Tuple[str, ...]:
        """The database's sorted fact lines, rendered once per job.

        The incremental executor needs them twice per cache-missed job
        (the superset check against a cached base, and the cache store
        of the run's own snapshot); rendering is O(n log n) text work,
        so it is cached like :attr:`database_snapshot`.
        """
        if self._database_lines is None:
            self._database_lines = database_fact_lines(self.database)
        return self._database_lines


# --------------------------------------------------------------------------
# JSONL manifests
# --------------------------------------------------------------------------
#
# One job per line.  Programs and databases are given either inline
# (``"program"`` / ``"database"`` keys holding the rule/fact text) or
# as paths (``"rules"`` / ``"facts"``) resolved relative to the
# manifest file.  ``"budget"`` is ``"auto"``, ``"default"``, or an
# object of :class:`ChaseBudget` fields (implying ``explicit``).


def job_from_manifest_entry(entry: Dict[str, object], base_dir: Path = Path(".")) -> ChaseJob:
    """Build a :class:`ChaseJob` from one decoded manifest line."""
    if "program" in entry:
        program = parse_program(str(entry["program"]), name=str(entry.get("id", "Sigma")))
    elif "rules" in entry:
        path = base_dir / str(entry["rules"])
        program = parse_program(path.read_text(), name=path.stem)
    else:
        raise ValueError(f"manifest entry needs 'program' or 'rules': {entry!r}")
    if "database" in entry:
        database = parse_database(str(entry["database"]))
    elif "facts" in entry:
        database = parse_database((base_dir / str(entry["facts"])).read_text())
    else:
        raise ValueError(f"manifest entry needs 'database' or 'facts': {entry!r}")
    budget_spec = entry.get("budget", "auto")
    budget: Optional[ChaseBudget] = None
    if isinstance(budget_spec, dict):
        budget_mode = "explicit"
        budget = ChaseBudget(**budget_spec)
    elif budget_spec in ("auto", "default"):
        budget_mode = str(budget_spec)
    else:
        raise ValueError(f"unsupported budget spec {budget_spec!r}")
    timeout = entry.get("timeout_seconds")
    return ChaseJob(
        program=program,
        database=database,
        job_id=str(entry.get("id", "")),
        variant=str(entry.get("variant", "semi-oblivious")),
        budget_mode=budget_mode,
        budget=budget,
        timeout_seconds=float(timeout) if timeout is not None else None,
        tags=tuple(entry.get("tags", ())),
    )


def manifest_entry(job: ChaseJob) -> Dict[str, object]:
    """The inline-text manifest line describing ``job`` (round-trips
    through :func:`job_from_manifest_entry` up to rule identifiers)."""
    entry: Dict[str, object] = {
        "id": job.job_id,
        "program": program_to_text(job.program),
        "database": database_to_text(job.database),
        "variant": job.variant,
    }
    if job.budget_mode == "explicit" and job.budget is not None:
        entry["budget"] = job.budget.as_dict()
    else:
        entry["budget"] = job.budget_mode
    if job.timeout_seconds is not None:
        entry["timeout_seconds"] = job.timeout_seconds
    if job.tags:
        entry["tags"] = list(job.tags)
    return entry


@dataclass(frozen=True)
class ManifestError:
    """A manifest line that could not be turned into a job."""

    job_id: str
    line_number: int
    error: str


def read_manifest(path: str | Path) -> List[ChaseJob]:
    """Read a JSONL manifest, raising on the first bad line; relative
    rule/fact paths resolve against the manifest's directory."""
    jobs: List[ChaseJob] = []
    for item in read_manifest_lenient(path):
        if isinstance(item, ManifestError):
            raise ValueError(f"{path}:{item.line_number}: {item.error}")
        jobs.append(item)
    return jobs


def parse_manifest_text(
    text: str,
    base_dir: Path = Path("."),
    entry_parser: Optional[Callable[[Dict[str, object]], ChaseJob]] = None,
) -> List[object]:
    """Parse JSONL manifest text, turning bad lines into :class:`ManifestError`.

    One malformed job must not sink the rest of the batch.  The shared
    line loop behind both :func:`read_manifest_lenient` (the CLI) and
    the service daemon's ``POST /batches`` handler, which passes an
    ``entry_parser`` restricting entries to inline text.
    """
    if entry_parser is None:
        def entry_parser(entry: Dict[str, object]) -> ChaseJob:
            return job_from_manifest_entry(entry, base_dir=base_dir)

    items: List[object] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        job_id = f"line-{line_number}"
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            items.append(ManifestError(job_id, line_number, f"invalid JSON: {exc}"))
            continue
        if isinstance(entry, dict) and entry.get("id"):
            job_id = str(entry["id"])
        try:
            items.append(entry_parser(entry))
        except Exception as exc:  # noqa: BLE001 - any bad entry becomes an error row
            items.append(
                ManifestError(job_id, line_number, f"{type(exc).__name__}: {exc}")
            )
    return items


def read_manifest_lenient(path: str | Path) -> List[object]:
    """Read a JSONL manifest file leniently; relative rule/fact paths
    resolve against the manifest's directory."""
    path = Path(path)
    return parse_manifest_text(path.read_text(), base_dir=path.parent)


def write_manifest(jobs: Iterable[ChaseJob], path: str | Path) -> None:
    """Write jobs as an inline-text JSONL manifest."""
    lines = [json.dumps(manifest_entry(job), sort_keys=True) for job in jobs]
    Path(path).write_text("\n".join(lines) + "\n")
