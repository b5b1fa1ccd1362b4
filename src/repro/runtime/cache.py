"""Result cache for chase jobs: in-memory, with optional JSONL spill.

Entries are keyed by ``(program fingerprint, database fingerprint,
variant, deterministic budget fields)`` — see :func:`result_cache_key`.
Because fingerprints are canonical (order- and renaming-invariant,
:mod:`repro.runtime.jobs`), isomorphic submissions share entries.

A hit replays the stored :meth:`ChaseResult.summary` verbatim, so a
cached result is byte-identical to the cold run that produced it once
serialised with ``json.dumps(..., sort_keys=True)``.  Only
deterministic outcomes are stored: the executor refuses to cache
``TIME_BUDGET_EXCEEDED`` runs (wall-clock budgets are an execution
detail, which is also why ``max_seconds`` is not part of the key).

The cache is built to be held open by a long-running process (the
chase service daemon, :mod:`repro.service`):

* every persisted entry carries a ``schema_version`` stamp; loading a
  JSONL written by a different summary schema skips those lines with a
  warning instead of replaying stale summaries,
* an optional ``max_entries`` cap turns the in-memory store into an
  LRU (both hits and stores refresh recency), so the daemon's memory
  stays bounded across arbitrarily many runs, and
* all operations take an internal lock, so the daemon's worker threads
  can share one instance.

Eviction is an in-memory affair: the JSONL spill stays append-only in
normal operation, so a crash mid-append costs at most the line being
written.  :meth:`compact` is the one in-place rewrite; it saves the
merged content to a ``.compacting`` sidecar first, so even a kill
between its truncate and write leaves a full copy to restore from.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
import warnings
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

try:  # POSIX advisory locks guard the shared spill across processes
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


@contextmanager
def _flocked(handle):
    """Exclusive advisory lock on an open file (no-op without fcntl).

    Flushes the handle before unlocking: Python buffers writes in the
    TextIOWrapper, and releasing the lock with the mutation still in
    the buffer would let another locker observe the file mid-rewrite.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        handle.flush()
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        handle.flush()
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

from repro.chase.engine import ChaseBudget
from repro.model.serialization import tgd_to_text
from repro.runtime.faults import FaultError, get_injector
from repro.runtime.jobs import ChaseJob

#: Separator between a spill line's JSON payload and its checksum.
#: Chosen so it can never appear inside the JSON (tabs are escaped).
_CRC_TOKEN = "\tcrc32="


def _encode_spill_line(entry: "CacheEntry") -> str:
    """One spill line: canonical JSON plus a CRC32 of those bytes.

    The checksum detects *partial* corruption — a line that is valid
    JSON but was bit-flipped or truncated-and-rejoined on disk would
    otherwise replay a wrong summary as if it were authoritative.
    """
    text = json.dumps(entry.as_dict(), sort_keys=True)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{text}{_CRC_TOKEN}{crc:08x}\n"


def _decode_spill_line(line: str) -> Tuple[Optional[Dict[str, object]], str]:
    """Decode one spill line; returns ``(record, status)``.

    ``status`` is ``"ok"``, ``"crc_mismatch"`` (checksum present but
    wrong — the payload is *not* returned), or ``"corrupt"`` (not
    parseable at all).  Lines without a checksum (written by older
    builds) decode normally: the CRC is an integrity upgrade, not a
    format break.
    """
    payload = line
    if _CRC_TOKEN in line:
        payload, _, stamp = line.rpartition(_CRC_TOKEN)
        try:
            expected = int(stamp, 16)
        except ValueError:
            return None, "corrupt"
        if (zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF) != expected:
            return None, "crc_mismatch"
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None, "corrupt"
    if not isinstance(record, dict):
        return None, "corrupt"
    return record, "ok"

#: Version stamp of the persisted entry format *and* of the summary
#: payload inside it.  Bump whenever ``ChaseResult.summary()`` (or the
#: cache key composition) changes shape, so a daemon never replays
#: summaries produced by an incompatible build.  Version 2 introduced
#: the stamp itself: files from before it carry no version and are
#: treated as stale.  Version 3 added the optional store-snapshot
#: payload (``snapshot``/``database``/``lineage``) behind incremental
#: re-chase.
SCHEMA_VERSION = 3


def result_cache_key(job: ChaseJob, budget: ChaseBudget) -> str:
    """The cache key for ``job`` run under the resolved ``budget``.

    ``max_seconds`` is deliberately excluded: it cannot change a
    *stored* (deterministic) result, it only decides whether a result
    gets produced at all.
    """
    pfp, dfp = job.fingerprint
    depth = "-" if budget.max_depth is None else str(budget.max_depth)
    return (
        f"{pfp}:{dfp}:{job.variant}"
        f":a{budget.max_atoms}:r{budget.max_rounds}:d{depth}"
        f":t{int(budget.truncate_at_depth)}"
    )


def lineage_cache_key(job: ChaseJob) -> str:
    """The *lineage* key: everything of the cache key except the data.

    Two jobs share a lineage when they run the same program under the
    same variant and the same budget *policy* — i.e. when one could be
    "the previous job plus a database delta" of the other.  The
    database fingerprint is deliberately absent (the data is what the
    delta changes), and so are resolved budget numbers for ``auto`` /
    ``default`` modes, because paper-derived budgets scale with the
    database size and must be re-resolved for the grown job.  Explicit
    budgets stay part of the identity verbatim.

    Unlike the fingerprint, the lineage also keys on how the program
    *labels* its nulls: the rule-id vector and each rule's text with its
    variable names.  A resumed run names the nulls it invents by its own
    rule ids and variables, so resuming from a base labelled otherwise
    would re-fire, under new labels, triggers the base already applied.
    """
    pfp, _ = job.fingerprint
    labelling = hashlib.sha256(
        "\n".join(f"{t.rule_id}\t{tgd_to_text(t)}" for t in job.program).encode("utf-8")
    ).hexdigest()[:16]
    if job.budget_mode == "explicit" and job.budget is not None:
        budget = job.budget
        depth = "-" if budget.max_depth is None else str(budget.max_depth)
        budget_part = (
            f"explicit:a{budget.max_atoms}:r{budget.max_rounds}:d{depth}"
            f":t{int(budget.truncate_at_depth)}"
        )
    else:
        budget_part = job.budget_mode
    return f"{pfp}:{labelling}:{job.variant}:{budget_part}"


@dataclass
class CacheEntry:
    """One stored result: the summary and (optionally) the instance.

    ``snapshot``/``database_lines``/``lineage`` travel together: an
    incremental-capable entry additionally holds the terminated run's
    fact-store snapshot, the fact lines of the database it was chased
    from (the subset check of "previous job + delta"), and its lineage
    key (how the executor finds it without knowing the old database).
    The snapshot is raw bytes in memory and base64 in the JSONL spill.
    """

    key: str
    summary: Dict[str, object]
    instance_text: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    snapshot: Optional[bytes] = None
    database_lines: Optional[List[str]] = None
    lineage: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "key": self.key,
            "summary": self.summary,
            "instance": self.instance_text,
            "schema_version": self.schema_version,
        }
        if self.snapshot is not None:
            record["snapshot"] = base64.b64encode(self.snapshot).decode("ascii")
            record["database"] = self.database_lines
            record["lineage"] = self.lineage
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CacheEntry":
        """Build an entry from a decoded JSONL record (current schema)."""
        snapshot_b64 = record.get("snapshot")
        return cls(
            key=record["key"],  # type: ignore[arg-type]
            summary=record["summary"],  # type: ignore[arg-type]
            instance_text=record.get("instance"),  # type: ignore[arg-type]
            schema_version=record.get("schema_version", SCHEMA_VERSION),  # type: ignore[arg-type]
            snapshot=(
                base64.b64decode(snapshot_b64) if isinstance(snapshot_b64, str) else None
            ),
            database_lines=record.get("database"),  # type: ignore[arg-type]
            lineage=record.get("lineage"),  # type: ignore[arg-type]
        )


class ResultCache:
    """Thread-safe LRU cache with an optional append-only JSONL behind it.

    With a ``path`` the cache loads existing entries on construction
    and appends every store, so separate processes (or separate batch
    invocations) can share results through the file.  With
    ``max_entries`` the in-memory store evicts its least-recently-used
    entry once full — the bound a long-running daemon needs.
    """

    def __init__(
        self,
        path: Optional[str | Path] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        # lineage key -> cache key of the freshest snapshot-bearing
        # entry of that lineage (the incremental re-chase base).
        self._lineage: Dict[str, str] = {}
        self._lock = threading.RLock()
        # Optional TraceRecorder (set by the owning service/executor):
        # put()/compact() emit "cache.write"/"cache.compact" spans.
        self.tracer = None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.version_skipped = 0
        #: Corrupt final spill line seen at load (a crash mid-append).
        self.torn_lines = 0
        #: Spill lines whose CRC32 did not match their payload.
        self.crc_mismatches = 0
        #: True once a spill write failed: the cache keeps serving (and
        #: storing) from memory but stops touching the file.
        self.degraded = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        stale_versions: set = set()
        # Read under the same advisory lock compact() holds while
        # truncate-rewriting in place, so a reader can never observe a
        # half-rewritten file.
        sidecar = self.path.with_suffix(self.path.suffix + ".compacting")
        with self.path.open("a+") as handle, _flocked(handle):
            handle.seek(0)
            text = handle.read()
            if sidecar.exists():
                # compact() removes its sidecar inside the locked
                # region on success, so one existing here means a
                # crash interrupted the rewrite: the sidecar holds the
                # complete pre-crash merged content.  The main file
                # may additionally hold lines another process appended
                # *after* the crash (the kernel released the dead
                # holder's flock); keep both, sidecar first so the
                # newer appends win on key conflicts at parse time.
                text = sidecar.read_text() + text
                handle.seek(0)
                handle.truncate()
                handle.write(text)
                handle.flush()
                sidecar.unlink()
        lines = [stripped for stripped in (l.strip() for l in text.splitlines()) if stripped]
        for index, line in enumerate(lines):
            record, verdict = _decode_spill_line(line)
            if verdict == "crc_mismatch":
                self.crc_mismatches += 1
                warnings.warn(
                    f"{self.path}: spill line {index + 1} failed its CRC32 check; "
                    "dropping the entry (it will be re-run, not replayed)",
                    stacklevel=2,
                )
                continue
            if record is None:
                if index == len(lines) - 1:
                    # A torn *trailing* line is the signature of a crash
                    # mid-append — say so instead of dropping it silently.
                    self.torn_lines += 1
                    warnings.warn(
                        f"{self.path}: dropped a torn trailing spill line "
                        "(likely a crash mid-append); run "
                        "`python -m repro cache verify --repair` to clean the file",
                        stacklevel=2,
                    )
                continue
            try:
                version = record.get("schema_version")
                if version != SCHEMA_VERSION:
                    # A file written by an older (or newer) build: its
                    # summaries may not match what today's runs produce,
                    # and replaying them would silently break the
                    # byte-identity guarantee.  Skip, don't crash.
                    self.version_skipped += 1
                    stale_versions.add(version)
                    continue
                entry = CacheEntry.from_record(record)
            except (
                KeyError,
                TypeError,
                AttributeError,
                ValueError,
                # base64 failures raise binascii.Error, a ValueError.
            ):
                # A structurally broken record costs one entry, not the
                # whole cache.
                continue
            # Later lines are more recent appends: inserting in file
            # order leaves the newest entries at the LRU's fresh end.
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            if entry.lineage is not None and entry.snapshot is not None:
                self._lineage[entry.lineage] = entry.key
            self._evict_over_cap()
        if self.version_skipped:
            warnings.warn(
                f"{self.path}: skipped {self.version_skipped} cache entr"
                f"{'y' if self.version_skipped == 1 else 'ies'} with schema version(s) "
                f"{sorted(stale_versions, key=repr)!r} (current is {SCHEMA_VERSION}); "
                "stale summaries are re-run, not replayed",
                stacklevel=2,
            )

    def _evict_over_cap(self) -> None:
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            key, entry = self._entries.popitem(last=False)
            if entry.lineage is not None and self._lineage.get(entry.lineage) == key:
                del self._lineage[entry.lineage]
            self.evictions += 1

    # -- mapping protocol -------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[CacheEntry]:
        with self._lock:
            return iter(list(self._entries.values()))

    # -- cache operations -------------------------------------------------

    def get(self, key: str, require_instance: bool = False) -> Optional[CacheEntry]:
        """Look up a key, counting the hit or miss and refreshing recency.

        With ``require_instance`` an entry stored without a
        materialised instance (by a non-materialising run) counts as a
        miss, so the caller re-runs and re-stores it with the instance.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (require_instance and entry.instance_text is None):
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self,
        key: str,
        summary: Dict[str, object],
        instance_text: Optional[str] = None,
        snapshot: Optional[bytes] = None,
        database_lines: Optional[Sequence[str]] = None,
        lineage: Optional[str] = None,
    ) -> CacheEntry:
        """Store a result, appending to the JSONL file when configured.

        ``snapshot``/``database_lines``/``lineage`` (all or none) make
        the entry an incremental re-chase base: :meth:`snapshot_for`
        serves the freshest such entry per lineage key.
        """
        tracer = self.tracer
        mark = tracer.now() if tracer is not None else 0.0
        entry = CacheEntry(
            key=key,
            summary=summary,
            instance_text=instance_text,
            snapshot=snapshot,
            database_lines=list(database_lines) if database_lines is not None else None,
            lineage=lineage,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if lineage is not None and snapshot is not None:
                self._lineage[lineage] = key
            self.stores += 1
            self._evict_over_cap()
        # Append outside the cache lock: blocking on another process's
        # flock (a long compact()) must stall only this store, not
        # every concurrent lookup.  O_APPEND + the flock keep lines
        # whole; duplicate keys from racing appends dedup on load.
        if self.path is not None and not self.degraded:
            try:
                get_injector().fire("cache.spill_write", key=key)
                with self.path.open("a") as handle, _flocked(handle):
                    handle.write(_encode_spill_line(entry))
            except (OSError, FaultError) as exc:
                # A failing spill (ENOSPC, permission loss, injected
                # fault) must not take job execution down with it: the
                # cache degrades to memory-only and stops touching the
                # file, keeping every in-memory guarantee intact.
                self.degraded = True
                warnings.warn(
                    f"{self.path}: spill write failed ({exc}); cache degraded to "
                    "memory-only for the rest of this process",
                    stacklevel=2,
                )
        if tracer is not None:
            tracer.add_span(
                "cache.write", mark, tracer.now(),
                args={"key": key, "spilled": self.path is not None},
            )
        return entry

    def compact(self) -> int:
        """Deduplicate the JSONL spill in place; returns the entry count.

        An append-only file accumulates superseded and stale-version
        lines; a long-running daemon calls this on drain so the next
        start loads only what is current.  The file is re-read and
        *merged* under an exclusive advisory lock (the same lock every
        ``put`` append takes): current-version entries appended by
        other processes sharing the file (and entries this process
        evicted from memory) are kept, with this process's in-memory
        state winning on key conflicts — compaction never deletes
        another writer's committed results.  The rewrite happens in
        place (same inode) so concurrent writers holding the path keep
        appending to the compacted file, not to a replaced orphan;
        before truncating, the merged content is written to a
        ``<path>.compacting`` sidecar, so a crash mid-rewrite leaves a
        complete copy to restore from (the sidecar is removed on
        success).
        """
        tracer = self.tracer
        mark = tracer.now() if tracer is not None else 0.0
        with self._lock:
            if self.path is None or self.degraded:
                # A degraded cache no longer owns its file: another
                # process may still be appending healthily, and a
                # rewrite from our (possibly stale) view could lose
                # its entries.
                return len(self._entries)
            with self.path.open("a+") as handle, _flocked(handle):
                handle.seek(0)
                merged: "OrderedDict[str, CacheEntry]" = OrderedDict()
                for line in handle.read().splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    record, verdict = _decode_spill_line(line)
                    if record is None:
                        continue
                    try:
                        if record.get("schema_version") != SCHEMA_VERSION:
                            continue
                        entry = CacheEntry.from_record(record)
                    except (
                        KeyError,
                        TypeError,
                        AttributeError,
                        ValueError,
                    ):
                        continue
                    merged[entry.key] = entry
                # Append the in-memory entries in LRU order (coldest
                # first) so a bounded reload keeps the hottest keys —
                # _load treats later lines as fresher.  pop-then-set
                # moves each key to the end.
                for key, entry in self._entries.items():
                    merged.pop(key, None)
                    merged[key] = entry
                content = "".join(
                    _encode_spill_line(entry) for entry in merged.values()
                )
                sidecar = self.path.with_suffix(self.path.suffix + ".compacting")
                sidecar.write_text(content)
                handle.seek(0)
                handle.truncate()
                handle.write(content)
                handle.flush()
                # Removed inside the locked region: a sidecar observed
                # by a lock holder therefore always means a crash, and
                # _load restores from it.
                sidecar.unlink(missing_ok=True)
            if tracer is not None:
                tracer.add_span(
                    "cache.compact", mark, tracer.now(),
                    args={"entries": len(merged)},
                )
            return len(merged)

    def snapshot_for(self, lineage: str) -> Optional[CacheEntry]:
        """The freshest snapshot-bearing entry of ``lineage``, if any.

        Counts as neither a hit nor a miss (it is a *base* lookup, not
        a result lookup), but refreshes the entry's LRU recency — a
        lineage in active incremental use should not be the first thing
        evicted.
        """
        with self._lock:
            key = self._lineage.get(lineage)
            if key is None:
                return None
            entry = self._entries.get(key)
            if entry is None or entry.snapshot is None:
                del self._lineage[lineage]
                return None
            self._entries.move_to_end(key)
            return entry

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "version_skipped": self.version_skipped,
                "torn_lines": self.torn_lines,
                "crc_mismatches": self.crc_mismatches,
                "degraded": int(self.degraded),
            }


def verify_spill(path: str | Path, repair: bool = False) -> Dict[str, int]:
    """Audit (and optionally repair) a spill file's line integrity.

    Classifies every line as ``ok`` (parseable, checksum valid when
    present), ``unchecksummed`` (healthy line from a build predating
    the CRC stamp), ``crc_mismatch``, ``torn`` (unparseable final
    line), or ``corrupt`` (unparseable elsewhere).  Schema-stale lines
    count as ``stale_version`` but are kept: an older build may still
    be using the file.

    With ``repair=True`` the file is rewritten in place under the same
    advisory lock every ``put`` takes, keeping only the healthy lines
    and re-stamping all of them with checksums.  The rewrite reuses the
    ``.compacting`` sidecar protocol, so a crash mid-repair is restored
    by the next :class:`ResultCache` load.
    """
    target = Path(path)
    report = {
        "lines": 0, "ok": 0, "unchecksummed": 0, "crc_mismatch": 0,
        "torn": 0, "corrupt": 0, "stale_version": 0, "repaired": 0,
    }
    if not target.exists():
        return report
    with target.open("a+") as handle, _flocked(handle):
        handle.seek(0)
        lines = [s for s in (l.strip() for l in handle.read().splitlines()) if s]
        report["lines"] = len(lines)
        kept: List[str] = []
        restamped = 0
        for index, line in enumerate(lines):
            record, verdict = _decode_spill_line(line)
            if record is None:
                if verdict == "crc_mismatch":
                    report["crc_mismatch"] += 1
                elif index == len(lines) - 1:
                    report["torn"] += 1
                else:
                    report["corrupt"] += 1
                continue
            stale = record.get("schema_version") != SCHEMA_VERSION
            if stale:
                report["stale_version"] += 1
            elif _CRC_TOKEN in line:
                report["ok"] += 1
            else:
                report["unchecksummed"] += 1
            if _CRC_TOKEN in line:
                kept.append(line)
            else:
                restamped += 1
                kept.append(_restamp(line))
        damaged = report["crc_mismatch"] + report["torn"] + report["corrupt"]
        needs_rewrite = bool(damaged or restamped)
        if repair and needs_rewrite:
            content = "".join(line + "\n" for line in kept)
            sidecar = target.with_suffix(target.suffix + ".compacting")
            sidecar.write_text(content)
            handle.seek(0)
            handle.truncate()
            handle.write(content)
            handle.flush()
            sidecar.unlink(missing_ok=True)
            report["repaired"] = 1
    return report


def _restamp(payload: str) -> str:
    """Stamp a checksum onto a legacy (unchecksummed) spill line."""
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{payload}{_CRC_TOKEN}{crc:08x}"
