"""Unit tests for mid-run chase checkpoints (encode/decode, torn blobs)."""

from __future__ import annotations

import pytest

from repro.runtime.checkpoint import (
    CheckpointError,
    RoundCheckpointer,
    decode_checkpoint,
    encode_checkpoint,
    load_checkpoint,
)
from repro.runtime.faults import FaultInjector, FaultPlan, FaultSpec


def blob(store_bytes: bytes = b"store-payload") -> bytes:
    return encode_checkpoint(
        store_bytes,
        marks=[3, 1, 4],
        rounds=7,
        considered=100,
        applied=42,
        created=17,
        database_size=9,
    )


class FakeStore:
    """Just enough of FactStore for the checkpointer's snapshot call."""

    def __init__(self, payload: bytes = b"fake-snapshot"):
        self.payload = payload

    def snapshot(self, complete: bool = True, rounds: int = 0) -> bytes:
        return self.payload


class TestEncodeDecode:
    def test_roundtrip(self):
        header, store = decode_checkpoint(blob())
        assert store == b"store-payload"
        assert header["marks"] == [3, 1, 4]
        assert header["rounds"] == 7
        assert header["considered"] == 100
        assert header["applied"] == 42
        assert header["created"] == 17
        assert header["database_size"] == 9

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            decode_checkpoint(b"NOTACKPT" + blob())

    @pytest.mark.parametrize("keep", [4, 12, 30, -1])
    def test_truncation_anywhere_is_detected(self, keep):
        data = blob()
        with pytest.raises(CheckpointError):
            decode_checkpoint(data[:keep])

    def test_corrupt_header_rejected(self):
        data = bytearray(blob())
        data[20] ^= 0xFF  # flip a byte inside the header JSON
        with pytest.raises(CheckpointError):
            decode_checkpoint(bytes(data))


class TestLoadCheckpoint:
    def test_absent_file_is_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "missing.ckpt")) is None

    def test_valid_file_roundtrips(self, tmp_path):
        path = tmp_path / "ok.ckpt"
        path.write_bytes(blob())
        loaded = load_checkpoint(str(path))
        assert loaded is not None
        header, store = loaded
        assert header["rounds"] == 7 and store == b"store-payload"

    def test_damaged_file_is_none_not_raise(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(blob()[: len(blob()) // 2])
        assert load_checkpoint(str(path)) is None


class TestRoundCheckpointer:
    def test_writes_only_on_every_nth_round(self, tmp_path):
        path = tmp_path / "job.ckpt"
        checkpointer = RoundCheckpointer(str(path), every_rounds=3, database_size=5)
        store = FakeStore()
        for rounds in range(1, 7):
            checkpointer.round_end(rounds, store, [rounds], (rounds * 10, rounds, rounds, 0), True)
        assert checkpointer.writes == 2  # rounds 3 and 6
        header, payload = load_checkpoint(str(path))
        assert header["rounds"] == 6 and header["marks"] == [6]
        assert header["database_size"] == 5
        assert payload == b"fake-snapshot"

    def test_skips_when_marks_unavailable(self, tmp_path):
        path = tmp_path / "job.ckpt"
        checkpointer = RoundCheckpointer(str(path), every_rounds=1)
        checkpointer.round_end(4, FakeStore(), None, (0, 0, 0, 0), True)
        assert checkpointer.writes == 0 and not path.exists()

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RoundCheckpointer(str(tmp_path / "x.ckpt"), every_rounds=0)

    def test_injected_truncation_tears_the_write(self, tmp_path):
        path = tmp_path / "job.ckpt"
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(point="checkpoint.write", action="truncate"),))
        )
        checkpointer = RoundCheckpointer(str(path), every_rounds=1, injector=injector)
        checkpointer.round_end(1, FakeStore(), [1], (1, 1, 1, 0), True)
        assert path.exists()
        # The torn blob is written — and rejected on load: the retry
        # that would have resumed from it starts cold instead.
        assert load_checkpoint(str(path)) is None
        # The next boundary (fault exhausted) overwrites it with a good one.
        checkpointer.round_end(2, FakeStore(), [2], (2, 2, 2, 0), True)
        assert load_checkpoint(str(path)) is not None

    def test_discard_removes_the_file(self, tmp_path):
        path = tmp_path / "job.ckpt"
        checkpointer = RoundCheckpointer(str(path), every_rounds=1)
        checkpointer.round_end(1, FakeStore(), [1], (1, 1, 1, 0), True)
        assert path.exists()
        checkpointer.discard()
        assert not path.exists()
        checkpointer.discard()  # idempotent
