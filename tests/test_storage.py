"""Contract of the crash-consistent storage layer (:mod:`repro.storage`).

Four clauses, each pinned here: atomic replace (readers see old bytes
or new bytes, never a tear), checksummed framing and sealed JSONL
records (corruption is *detected*, with legacy unframed/unsealed
artifacts still accepted), bounded retry of transient errors, and
deterministic fault injection (every decision a pure keyed hash of the
plan seed and operation coordinates, replayable across processes —
including the kill-point, exercised in a real subprocess).
"""

import errno
import json
import os
import subprocess
import sys

import pytest

from repro import storage
from repro.errors import ChecksumError, FaultError, StorageError
from repro.storage import (
    KILL_EXIT_CODE,
    DiskFaultPlan,
    DurableAppender,
    atomic_write_bytes,
    atomic_write_text,
    canonical_json,
    check_record,
    frame_bytes,
    read_bytes,
    read_text,
    reset_storage_stats,
    seal_record,
    storage_stats,
    unframe_bytes,
    use_disk_faults,
)


@pytest.fixture(autouse=True)
def clean_stats(monkeypatch):
    monkeypatch.delenv(storage.ENV_PLAN, raising=False)
    monkeypatch.delenv(storage.ENV_STATS, raising=False)
    reset_storage_stats()
    yield
    reset_storage_stats()


# ----------------------------------------------------------------------
# Framing and sealed records
# ----------------------------------------------------------------------

def test_frame_roundtrip_and_legacy_passthrough():
    payload = b"\x80\x04arbitrary pickle-ish bytes"
    assert unframe_bytes(frame_bytes(payload)) == payload
    # Bytes that predate framing (no magic) pass through untouched.
    assert unframe_bytes(payload) == payload
    assert unframe_bytes(b"") == b""
    assert unframe_bytes(b'{"json": 1}') == b'{"json": 1}'


def test_corrupt_frame_is_detected():
    blob = bytearray(frame_bytes(b"the payload"))
    blob[-1] ^= 0x01  # flip a payload bit
    with pytest.raises(ChecksumError, match="checksum"):
        unframe_bytes(bytes(blob))
    # Truncation inside the fixed-size header is equally loud.
    with pytest.raises(ChecksumError, match="truncated"):
        unframe_bytes(frame_bytes(b"x")[:10])


def test_sealed_record_roundtrip_strips_checksum():
    record = {"kind": "cell", "index": 3, "payload": "YWJj"}
    sealed = seal_record(record)
    assert "cs" in sealed and "cs" not in record
    assert check_record(sealed) == record
    # Legacy records without a checksum are accepted as-is.
    assert check_record(record) == record
    # Re-sealing a sealed record reproduces the same digest.
    assert seal_record(sealed) == sealed


def test_tampered_sealed_record_is_detected():
    sealed = seal_record({"kind": "cell", "index": 3})
    sealed["index"] = 4
    with pytest.raises(ChecksumError):
        check_record(sealed)


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# Plan validation and determinism
# ----------------------------------------------------------------------

def test_plan_rejects_invalid_rates():
    with pytest.raises(FaultError):
        DiskFaultPlan(torn_write=1.5)
    with pytest.raises(FaultError):
        DiskFaultPlan(bit_flip=-0.1)
    with pytest.raises(FaultError):
        DiskFaultPlan(slow_seconds=-1.0)
    with pytest.raises(FaultError):
        DiskFaultPlan(kill_at=0)
    with pytest.raises(FaultError):
        DiskFaultPlan.from_dict({"seed": 1, "torn_wrlte": 0.5})
    with pytest.raises(FaultError):
        DiskFaultPlan.from_json("not json")
    with pytest.raises(FaultError):
        DiskFaultPlan.from_json("[1, 2]")


def test_plan_json_roundtrip_and_noop():
    plan = DiskFaultPlan(seed=9, torn_write=0.25, kill_at=7)
    assert DiskFaultPlan.from_json(plan.to_json()) == plan
    assert not plan.is_noop()
    assert DiskFaultPlan().is_noop()
    assert DiskFaultPlan(seed=42).is_noop()  # seed alone injects nothing


def test_injector_decisions_replay_identically():
    plan = DiskFaultPlan(seed=5, torn_write=0.4, bit_flip=0.4)
    ops = [("wal.jsonl", 64), ("wal.jsonl", 64), ("entry.bin", 128)] * 4
    def trace(injector):
        out = []
        for name, size in ops:
            out.append(injector.torn_length(name, size))
            out.append(injector.flip_bit(name, b"\x00" * size))
        return out
    assert trace(plan.compile()) == trace(plan.compile())
    # A different seed draws a different schedule.
    other = trace(DiskFaultPlan(seed=6, torn_write=0.4, bit_flip=0.4).compile())
    assert other != trace(plan.compile())


# ----------------------------------------------------------------------
# Atomic writes and reads under injected faults
# ----------------------------------------------------------------------

def test_atomic_write_replaces_and_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "artifact.bin")
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert read_bytes(path) == b"second"
    assert os.listdir(tmp_path) == ["artifact.bin"]
    assert storage_stats().writes == 2 and storage_stats().reads == 1


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_honours_the_umask(tmp_path, umask, mode):
    path = str(tmp_path / "artifact.bin")
    previous = os.umask(umask)
    try:
        atomic_write_bytes(path, b"data")
    finally:
        os.umask(previous)
    assert os.stat(path).st_mode & 0o777 == mode


def test_torn_write_is_caught_by_the_frame(tmp_path):
    path = str(tmp_path / "entry.bin")
    framed = frame_bytes(b"payload bytes that tear")
    # Seed chosen so the tear lands past the 20-byte frame header: a
    # shorter prefix no longer starts with the magic and is handled as
    # a legacy blob by the consumer's deserializer instead.
    with use_disk_faults(DiskFaultPlan(seed=0, torn_write=1.0)):
        atomic_write_bytes(path, framed)
    torn = read_bytes(path)
    assert len(torn) < len(framed)  # a strict prefix reached the disk
    assert storage_stats().torn_writes == 1
    with pytest.raises(ChecksumError):
        unframe_bytes(torn)


def test_dropped_fsync_keeps_the_previous_content(tmp_path):
    path = str(tmp_path / "entry.bin")
    atomic_write_bytes(path, b"old")
    with use_disk_faults(DiskFaultPlan(seed=1, drop_fsync=1.0)):
        atomic_write_bytes(path, b"new")
    assert read_bytes(path) == b"old"  # the replace never landed
    assert storage_stats().dropped_fsyncs == 1
    assert os.listdir(tmp_path) == ["entry.bin"]  # temp cleaned up


def test_bit_flip_on_read_is_caught_by_the_frame(tmp_path):
    path = str(tmp_path / "entry.bin")
    atomic_write_bytes(path, frame_bytes(b"precious payload"))
    with use_disk_faults(DiskFaultPlan(seed=3, bit_flip=1.0)):
        flipped = read_bytes(path)
    assert storage_stats().bit_flips == 1
    with pytest.raises(ChecksumError):
        unframe_bytes(flipped)


def test_verified_write_rewrites_a_torn_artifact(tmp_path):
    """Final artifacts (tables, stats JSON) have no checksummed reader,
    so a lying disk would corrupt them silently; ``verify=True`` reads
    the rename target back and rewrites on mismatch.  Seed 16 tears
    the first attempt only."""
    path = str(tmp_path / "table.txt")
    with use_disk_faults(DiskFaultPlan(seed=16, torn_write=0.6)):
        atomic_write_bytes(path, b"the full rendered result table\n",
                           verify=True)
    assert read_bytes(path) == b"the full rendered result table\n"
    assert storage_stats().torn_writes == 1
    assert storage_stats().retries == 1


def test_verified_write_rewrites_a_dropped_write(tmp_path):
    path = str(tmp_path / "table.txt")  # seed 12: first fsync dropped
    with use_disk_faults(DiskFaultPlan(seed=12, drop_fsync=0.6)):
        atomic_write_bytes(path, b"stats payload", verify=True)
    assert read_bytes(path) == b"stats payload"
    assert storage_stats().dropped_fsyncs == 1


def test_verified_write_goes_loud_when_the_disk_keeps_lying(tmp_path):
    path = str(tmp_path / "table.txt")
    with use_disk_faults(DiskFaultPlan(seed=0, torn_write=1.0)):
        with pytest.raises(StorageError, match="verification"):
            atomic_write_bytes(path, b"0123456789", verify=True)


def test_persistent_enospc_surfaces_as_storage_error(tmp_path):
    path = str(tmp_path / "entry.bin")
    with use_disk_faults(DiskFaultPlan(seed=2, enospc=1.0)):
        with pytest.raises(StorageError, match="no space"):
            atomic_write_bytes(path, b"data")
    assert not os.path.exists(path)
    assert storage_stats().retries == storage._MAX_RETRIES
    assert storage_stats().enospc == storage._MAX_RETRIES + 1


def test_transient_error_is_retried_then_succeeds():
    attempts = []
    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError(errno.ENOSPC, "full")
        return "ok"
    assert storage._retry_transient("write", "x", flaky) == "ok"
    assert len(attempts) == 3
    assert storage_stats().retries == 2


def test_permanent_oserror_is_not_retried():
    def denied():
        raise OSError(errno.EACCES, "denied")
    with pytest.raises(StorageError, match="denied"):
        storage._retry_transient("write", "x", denied)
    assert storage_stats().retries == 0


def test_read_missing_file_raises_plain_file_not_found(tmp_path):
    # Consumers keep their miss handling: no StorageError wrapping.
    with pytest.raises(FileNotFoundError):
        read_bytes(str(tmp_path / "absent.bin"))


def test_use_disk_faults_scopes_and_nests(tmp_path):
    assert storage.active_injector() is None
    with use_disk_faults(DiskFaultPlan(seed=1, slow=1.0, slow_seconds=0.0)):
        outer = storage.active_injector()
        assert outer is not None
        with use_disk_faults(None):
            assert storage.active_injector() is None
        assert storage.active_injector() is outer
    assert storage.active_injector() is None


# ----------------------------------------------------------------------
# Durable appends and verified replay
# ----------------------------------------------------------------------

def _replay(path):
    """(verified records, count of bad lines) of a sealed JSONL file."""
    records, skipped = [], 0
    for line in read_text(path).splitlines():
        try:
            records.append(check_record(json.loads(line)))
        except (ValueError, ChecksumError):
            skipped += 1
    return records, skipped


def test_appender_writes_sealed_lines_that_verify(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with DurableAppender(path, "w") as appender:
        appender.append_record({"kind": "header", "schema": 1})
        appender.append_record({"kind": "cell", "index": 0})
        appender.append("not json at all")  # raw line, like a torn tail
    assert appender.closed
    with pytest.raises(StorageError, match="closed"):
        appender.append("late")

    records, skipped = _replay(path)
    assert records == [
        {"kind": "header", "schema": 1},
        {"kind": "cell", "index": 0},
    ]
    assert skipped == 1
    assert storage_stats().appends == 3


def test_torn_append_is_skipped_on_replay(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with DurableAppender(path, "w") as appender:
        appender.append_record({"index": 0})
    with use_disk_faults(DiskFaultPlan(seed=4, torn_write=1.0)):
        with DurableAppender(path, "a") as appender:
            appender.append_record({"index": 1})
    assert _replay(path) == ([{"index": 0}], 1)


def test_dropped_append_never_reaches_the_file(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with use_disk_faults(DiskFaultPlan(seed=4, drop_fsync=1.0)):
        with DurableAppender(path, "w") as appender:
            appender.append_record({"index": 0})
    assert read_text(path) == ""
    assert storage_stats().dropped_fsyncs == 1


# ----------------------------------------------------------------------
# Environment mirror and the kill-point (real subprocesses)
# ----------------------------------------------------------------------

def _storage_subprocess(tmp_path, plan, script_body):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env[storage.ENV_PLAN] = plan.to_json()
    env[storage.ENV_STATS] = str(tmp_path / "stats.json")
    return subprocess.run(
        [sys.executable, "-c", script_body],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=60,
    )


def test_env_plan_governs_subprocess_and_dumps_stats(tmp_path):
    plan = DiskFaultPlan(seed=8, torn_write=1.0)
    proc = _storage_subprocess(
        tmp_path, plan,
        "from repro import storage\n"
        "storage.atomic_write_bytes('out.bin', b'0123456789')\n",
    )
    assert proc.returncode == 0, proc.stderr
    torn = (tmp_path / "out.bin").read_bytes()
    assert len(torn) < 10
    # The atexit hook dumped the subprocess's injection evidence.
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["torn_writes"] == 1 and stats["injected"] == 1
    # The tear is the same one an in-process injector would draw.
    assert plan.compile().torn_length("out.bin", 10) == len(torn)


def test_kill_point_terminates_with_the_reserved_exit_code(tmp_path):
    plan = DiskFaultPlan(seed=8, kill_at=2)
    proc = _storage_subprocess(
        tmp_path, plan,
        "from repro import storage\n"
        "storage.atomic_write_bytes('a.bin', b'a')\n"   # op 1: survives
        "storage.atomic_write_bytes('b.bin', b'b')\n"   # op 2: killed
        "print('unreachable')\n",
    )
    assert proc.returncode == KILL_EXIT_CODE
    assert "unreachable" not in proc.stdout
    assert (tmp_path / "a.bin").read_bytes() == b"a"
    assert not (tmp_path / "b.bin").exists()
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["kills"] == 1
