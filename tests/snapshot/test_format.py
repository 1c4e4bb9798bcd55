"""The snapshot file format: self-describing, versioned, verified."""

import json

import pytest

from repro.core.errors import SnapshotError
from repro.snapshot import (FORMAT_VERSION, MAGIC, read_header, read_snapshot,
                            write_snapshot)

PAYLOAD = {"now": 42, "nodes": [1, 2, 3], "nested": {"a": (1, 2)}}


def _write(tmp_path, payload=None, **kwargs):
    path = str(tmp_path / "snap.ckpt")
    header = write_snapshot(path, "cycle", payload or PAYLOAD, **kwargs)
    return path, header


class TestRoundTrip:
    def test_payload_survives(self, tmp_path):
        path, _ = _write(tmp_path)
        header, payload = read_snapshot(path)
        assert payload == PAYLOAD
        assert header["kind"] == "cycle"
        assert header["version"] == FORMAT_VERSION

    def test_header_is_self_describing(self, tmp_path):
        path, written = _write(tmp_path, meta={"now": 42, "scenario": "x"})
        header = read_header(path)
        assert header == written
        assert header["format"] == "repro-snapshot"
        assert header["meta"]["scenario"] == "x"
        assert header["payload_bytes"] > 0
        assert len(header["sha256"]) == 64

    def test_object_sharing_preserved(self, tmp_path):
        """One pickle for the whole payload: aliased objects stay aliased."""
        shared = [1, 2]
        path, _ = _write(tmp_path, payload={"a": shared, "b": shared})
        _, payload = read_snapshot(path)
        assert payload["a"] is payload["b"]

    def test_overwrite_in_place(self, tmp_path):
        path, _ = _write(tmp_path)
        write_snapshot(path, "cycle", {"now": 99})
        _, payload = read_snapshot(path)
        assert payload == {"now": 99}


class TestValidation:
    def test_unknown_kind_rejected_at_write(self, tmp_path):
        with pytest.raises(SnapshotError):
            write_snapshot(str(tmp_path / "x.ckpt"), "nano", PAYLOAD)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"#something-else 1\n" + b"{}\n")
        with pytest.raises(SnapshotError):
            read_header(path)

    def test_future_version_rejected(self, tmp_path):
        path, _ = _write(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        needle = b'"version": %d' % FORMAT_VERSION
        assert needle in data
        data = data.replace(needle, b'"version": %d' % (FORMAT_VERSION + 1))
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(SnapshotError) as info:
            read_snapshot(path)
        assert "version" in str(info.value)

    def test_older_version_refused_everywhere(self, tmp_path, capsys):
        """A build reads only its own version: a file one version older
        is refused by the reader, by ``JMachine.restore`` and by
        ``snapshot resume``, each naming both versions."""
        from repro.machine.jmachine import JMachine
        from repro.snapshot import __main__ as cli

        path = _older_capture(tmp_path)
        for load in (read_snapshot, JMachine.restore):
            with pytest.raises(SnapshotError) as info:
                load(path)
            message = str(info.value)
            assert f"version {FORMAT_VERSION - 1}" in message
            assert f"version {FORMAT_VERSION};" in message
            assert "capture it again" in message
        assert cli.main(["resume", path]) != 0
        assert "capture it again" in capsys.readouterr().err

    def test_older_version_header_still_prints(self, tmp_path, capsys):
        from repro.snapshot import __main__ as cli

        path = _older_capture(tmp_path)
        assert cli.main(["info", path]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["version"] == FORMAT_VERSION - 1
        assert header["kind"] == "cycle"
        assert header["meta"]["n_nodes"] == 8

    def test_corrupt_payload_detected_before_unpickling(self, tmp_path):
        path, header = _write(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        flip = len(data) - 5
        data = data[:flip] + bytes([data[flip] ^ 0xFF]) + data[flip + 1:]
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(SnapshotError) as info:
            read_snapshot(path)
        assert "sha256" in str(info.value) or "corrupt" in str(info.value)

    def test_truncated_payload_detected(self, tmp_path):
        path, _ = _write(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-10])
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_header(str(tmp_path / "absent.ckpt"))

    def test_corruption_is_typed_not_pickle(self, tmp_path):
        """Every torn-file mode raises SnapshotError, never a bare
        pickle/EOF exception a caller would have to guess at."""
        path, _ = _write(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        for mutilated in (data[:-10],                      # truncated
                          data[:-5] + b"\x00" * 5,         # bit rot
                          data + b"trailing-garbage"):      # grown
            with open(path, "wb") as fh:
                fh.write(mutilated)
            with pytest.raises(SnapshotError):
                read_snapshot(path)


def _older_capture(tmp_path):
    """A real cycle-level capture, relabelled as the previous format
    version wrote it."""
    from repro.machine.jmachine import JMachine
    from tests.util import relabel_snapshot

    path = str(tmp_path / "old.ckpt")
    JMachine.build(8).save(path)
    relabel_snapshot(path, FORMAT_VERSION - 1)
    return path


class TestTmpHygiene:
    """Orphaned ``*.tmp.<pid>`` siblings: never left by a failed write,
    swept when a new writer takes ownership of the path."""

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("nope")

        path = str(tmp_path / "snap.ckpt")
        with pytest.raises(Exception):
            write_snapshot(path, "cycle", {"bad": Unpicklable()})
        # pickling fails before the tmp file opens; also exercise an
        # open-time failure (unwritable directory path component)
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_sweep_removes_orphans_for_plain_path(self, tmp_path):
        from repro.snapshot import sweep_stale_tmp

        path = str(tmp_path / "snap.ckpt")
        orphan = tmp_path / "snap.ckpt.tmp.12345"
        orphan.write_bytes(b"half-written")
        other = tmp_path / "other.ckpt.tmp.12345"
        other.write_bytes(b"someone else's")
        removed = sweep_stale_tmp(path)
        assert [str(orphan)] == removed
        assert not orphan.exists()
        assert other.exists()  # only the given path family is swept

    def test_sweep_matches_cycle_template(self, tmp_path):
        from repro.snapshot import sweep_stale_tmp

        path = str(tmp_path / "snap-{cycle}.ckpt")
        for cycle in (100, 200):
            orphan = tmp_path / f"snap-{cycle}.ckpt.tmp.999"
            orphan.write_bytes(b"x")
        removed = sweep_stale_tmp(path)
        assert len(removed) == 2
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_policy_arming_sweeps(self, tmp_path):
        from repro.snapshot import CheckpointPolicy

        path = str(tmp_path / "snap.ckpt")
        orphan = tmp_path / "snap.ckpt.tmp.42"
        orphan.write_bytes(b"left by a killed writer")
        policy = CheckpointPolicy(path, every=10)
        assert policy.due(0) is False  # first call arms...
        assert not orphan.exists()  # ...and sweeps

    def test_sweep_missing_directory_is_quiet(self, tmp_path):
        from repro.snapshot import sweep_stale_tmp

        assert sweep_stale_tmp(str(tmp_path / "absent" / "x.ckpt")) == []
