"""The on-disk checkpoint format: a self-describing two-part file.

A snapshot file is::

    #repro-snapshot 2\n          <- ASCII magic + format version
    {...json header...}\n        <- one line of JSON metadata
    <pickle payload>             <- the state itself, one pickle

The header is readable without touching the payload (``repro.snapshot
info`` does exactly that): it carries the format version, the simulation
level (``"cycle"`` or ``"macro"``), the payload length and its sha256,
and free-form ``meta`` (capture cycle, node count, the run limit a
resume should honour, scenario hints for the CLI).

The payload is a *single* pickle of the whole state tree.  One pickle —
rather than one per node — matters for correctness, not just speed:
pickle memoization preserves object sharing, so route tuples shared
between worms, messages referenced from both a staged heap and a node
queue, and chaos plans referenced from several places come back as the
same graph shape they had when captured.

Compatibility rule: a build reads only the files its own
:data:`FORMAT_VERSION` wrote.  Any other version, older or newer, raises
:class:`SnapshotError` (capture again); :func:`read_header` still reads
the header of any version, so such a file can be identified.  A change
to what a capture holds bumps the version: the live classes carry no
conversion for older captures.
"""

from __future__ import annotations

import fnmatch
import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import SnapshotError

__all__ = ["FORMAT_VERSION", "MAGIC", "SnapshotError", "write_snapshot",
           "read_header", "read_snapshot", "sweep_stale_tmp"]

#: Version of the file format and of the capture's shape this build
#: reads and writes; tests/snapshot/test_shape.py pins the shape to it.
FORMAT_VERSION = 3

#: First line of every snapshot file (includes the version).
MAGIC = b"#repro-snapshot %d\n" % FORMAT_VERSION

#: Fixed pickle protocol: snapshots written on any supported Python
#: must load on any other, so the protocol is pinned, not "highest".
_PICKLE_PROTOCOL = 4


def write_snapshot(path: str, kind: str, payload: Any,
                   meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Serialize ``payload`` to ``path``; returns the written header.

    The file is written to a temporary sibling and renamed into place so
    a crash mid-checkpoint (the very failure checkpoints exist to
    survive) never leaves a truncated file under the final name.
    """
    if kind not in ("cycle", "macro"):
        raise SnapshotError(f"unknown snapshot kind {kind!r}")
    blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    header = {
        "format": "repro-snapshot",
        "version": FORMAT_VERSION,
        "kind": kind,
        "payload_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "meta": dict(meta) if meta else {},
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        # A failed write must not leave its half-written sibling behind
        # (a writer killed outright still can — sweep_stale_tmp covers
        # that when the next checkpoint policy arms on the same path).
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def sweep_stale_tmp(path: str) -> List[str]:
    """Remove orphaned ``*.tmp.<pid>`` siblings of checkpoint ``path``.

    A writer that dies between ``open`` and ``os.replace`` (the very
    crash checkpoints exist to survive) leaves a ``<path>.tmp.<pid>``
    file behind.  This sweeps every such leftover for the given
    checkpoint path — ``{cycle}``-templated paths match any cycle —
    and returns the paths removed.  Called when a
    :class:`~repro.snapshot.policy.CheckpointPolicy` arms, i.e. exactly
    when a new writer takes ownership of the path family, so a sweep
    can never race a live writer of the same checkpoint.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    base = os.path.basename(path)
    try:
        base = base.format(cycle="*")
    except (IndexError, KeyError, ValueError):
        pass  # not a {cycle} template; match the literal name
    pattern = base + ".tmp.*"
    removed: List[str] = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return removed
    for name in entries:
        if fnmatch.fnmatch(name, pattern):
            stale = os.path.join(directory, name)
            try:
                os.unlink(stale)
            except OSError:
                continue
            removed.append(stale)
    return removed


def _read_magic_and_header(fh: io.BufferedReader,
                           path: str) -> Dict[str, Any]:
    magic = fh.readline(len(MAGIC) + 1)
    if not magic.startswith(b"#repro-snapshot "):
        raise SnapshotError(f"{path}: not a repro snapshot file")
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt snapshot header: {exc}")
    version = header.get("version")
    if not isinstance(version, int) or version < 1:
        raise SnapshotError(f"{path}: malformed snapshot version {version!r}")
    return header


def read_header(path: str) -> Dict[str, Any]:
    """The JSON header alone, of any format version — cheap, never
    unpickles the payload."""
    with open(path, "rb") as fh:
        return _read_magic_and_header(fh, path)


def read_snapshot(path: str) -> Tuple[Dict[str, Any], Any]:
    """Load and verify a snapshot; returns ``(header, payload)``.

    Only a file of this build's :data:`FORMAT_VERSION` loads.  The
    payload's sha256 is checked against the header before unpickling,
    so a truncated or bit-flipped file fails with a clear error instead
    of a confusing unpickling exception (or, worse, a silently wrong
    machine state).
    """
    with open(path, "rb") as fh:
        header = _read_magic_and_header(fh, path)
        if header["version"] != FORMAT_VERSION:
            raise SnapshotError(
                f"{path}: snapshot format version {header['version']}, but "
                f"this build reads only version {FORMAT_VERSION}; capture "
                f"it again with this build")
        blob = fh.read()
    if len(blob) != header.get("payload_bytes"):
        raise SnapshotError(
            f"{path}: payload is {len(blob)} bytes, header says "
            f"{header.get('payload_bytes')} (truncated file?)")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("sha256"):
        raise SnapshotError(f"{path}: payload sha256 mismatch (corrupt file)")
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"{path}: cannot unpickle payload: {exc}")
    return header, payload
