"""Mid-run chase checkpoints: crash-safe snapshots a retry resumes from.

A long budget-bounded chase that dies at round 40 of 50 should not
restart cold.  ``checkpoint_every_rounds=N`` attaches a
:class:`RoundCheckpointer` observer that acts at every Nth completed
round boundary; the
checkpointer persists the fact store (via ``FactStore.snapshot``)
together with the loop state the snapshot alone cannot carry — the
per-predicate row marks that delimit the current frontier, and the
cumulative statistics so a resumed run's final summary is
byte-identical to a cold run's.

A checkpoint is *not* the PR 5 incremental-resume snapshot: that path
re-interns the database and chases the difference, which over a
mid-run prefix plus the original database yields an empty delta and a
silently truncated result.  A checkpoint instead freezes the exact
semi-naive loop state: restore the store, seed ``marks`` from the
header, and the next iteration's ``delta_pending_rows(store, marks)``
re-derives precisely the frontier the dead run was about to expand.
That is sound although the checkpoint carries no trigger memo.  A
summary run of the semi-oblivious or oblivious chase keeps none: a
trigger whose key already fired finds its result facts stored and adds
nothing.  A restricted run's applied memo restarts empty, and a trigger
first enumerable after round k has at least one body fact in round k's
delta — it was never enumerable before the checkpoint, so no cross-
checkpoint duplicate application is possible (within-round duplicates
prune against the new memo).

The on-disk format is ``MAGIC + <8-byte LE header length> + header
JSON + store snapshot``; writes go to a temp file then ``os.replace``
so a crash tears at most an invisible temp file.  Torn or truncated
blobs (including injected ``checkpoint.write`` truncation faults) fail
decoding loudly and the caller falls back to a cold start — a corrupt
checkpoint costs time, never correctness.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs.observer import RunObserver

MAGIC = b"RPCKPT1\n"
_LEN = struct.Struct("<Q")


class CheckpointError(ValueError):
    """The checkpoint blob is torn, truncated, or not a checkpoint."""


def encode_checkpoint(
    store_blob: bytes,
    *,
    marks: List[int],
    rounds: int,
    considered: int,
    applied: int,
    created: int,
    database_size: int,
) -> bytes:
    header = json.dumps(
        {
            "marks": list(marks),
            "rounds": int(rounds),
            "considered": int(considered),
            "applied": int(applied),
            "created": int(created),
            "database_size": int(database_size),
            "store_bytes": len(store_blob),
        },
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + _LEN.pack(len(header)) + header + store_blob


def decode_checkpoint(data: bytes) -> Tuple[dict, bytes]:
    """``(header, store_blob)`` — raises :class:`CheckpointError` on damage."""
    if not data.startswith(MAGIC):
        raise CheckpointError("not a chase checkpoint (bad magic)")
    offset = len(MAGIC)
    if len(data) < offset + _LEN.size:
        raise CheckpointError("checkpoint truncated inside the header length")
    (header_len,) = _LEN.unpack_from(data, offset)
    offset += _LEN.size
    if len(data) < offset + header_len:
        raise CheckpointError("checkpoint truncated inside the header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is corrupt: {exc}") from exc
    blob = data[offset + header_len :]
    expected = header.get("store_bytes")
    if not isinstance(expected, int) or len(blob) != expected:
        raise CheckpointError(
            f"checkpoint store blob truncated: {len(blob)} bytes, expected {expected}"
        )
    for field in ("marks", "rounds", "considered", "applied", "created", "database_size"):
        if field not in header:
            raise CheckpointError(f"checkpoint header missing {field!r}")
    return header, blob


def load_checkpoint(path: str) -> Optional[Tuple[dict, bytes]]:
    """Decode the checkpoint at ``path``; ``None`` if absent or damaged.

    Damage is survivable by design (the retry starts cold), so this
    never raises on corrupt data.
    """
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    try:
        return decode_checkpoint(data)
    except CheckpointError:
        return None


class RoundCheckpointer(RunObserver):
    """A run observer that persists every Nth completed round boundary.

    It reacts to ``round_end(..., complete=True)`` only: a round a
    budget stopped mid-way is no resumable state, and the legacy
    engine (``marks`` None) has no store to freeze.  Nor does it write
    the round that created nothing: that round is the fixpoint, and a
    run resumed from it would replay one more (empty) round and report
    a different round count than the uninterrupted run.  Writes are atomic
    (temp + ``os.replace``) and honour the ``checkpoint.write`` fault
    point: a ``truncate`` effect writes half the blob — exactly the
    torn write a crash mid-``write`` would leave — which
    ``decode_checkpoint`` later rejects.
    """

    def __init__(self, path: str, every_rounds: int, *, database_size: int = 0, injector=None):
        if every_rounds < 1:
            raise ValueError(f"checkpoint_every_rounds must be >= 1, got {every_rounds}")
        self.path = path
        self.every_rounds = every_rounds
        self.database_size = database_size
        self.injector = injector
        self.writes = 0
        self._created_before = -1

    def round_start(self, store, delta_size, totals) -> None:
        self._created_before = totals[2]

    def round_end(self, rounds, store, marks, totals, complete) -> None:
        if (
            not complete
            or marks is None
            or rounds <= 0
            or rounds % self.every_rounds
            or totals[2] == self._created_before
        ):
            return
        considered, applied, created, _ = totals
        blob = store.snapshot(complete=False, rounds=rounds)
        data = encode_checkpoint(
            blob,
            marks=marks,
            rounds=rounds,
            considered=considered,
            applied=applied,
            created=created,
            database_size=self.database_size,
        )
        if self.injector is not None:
            effect = self.injector.fire("checkpoint.write", key=self.path, round=rounds)
            if effect == "truncate":
                data = data[: len(data) // 2]
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, self.path)
            self.writes += 1
        except OSError:
            # Checkpoints are an optimisation; never fail the run over one.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def discard(self) -> None:
        """Remove the checkpoint file (the job finished; nothing to resume)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
