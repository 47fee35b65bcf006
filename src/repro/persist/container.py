"""On-disk checkpoint container: one snapshot payload + one manifest.

Format
------
A checkpoint is a pair of files written as a unit:

* ``<path>`` — one :mod:`~repro.persist.snapshot` tree: the run-level
  state, with every client's snapshot blob a ``bytes`` leaf of it. Arrays
  keep their dtype and shape bit-for-bit and dicts their insertion order,
  so a restored history re-serialises byte-identically.
* ``<path>.manifest.json`` — sidecar with the container version, payload
  byte size and SHA-256 digest. :func:`read_payload` checks the version,
  then both, before it decodes anything, so a truncated or bit-flipped
  payload raises :class:`~repro.persist.errors.CheckpointCorruptError`
  instead of producing a partial restore.

Atomicity
---------
:func:`write_payload` streams the encoder's parts into one temporary name
in the target directory — hashing them on the way, never holding the whole
payload — and writes the manifest to another, ``fsync``\\ s both, then
``os.replace``\\ s them into place (payload first, manifest last) and
fsyncs the directory. A crash mid-save
can therefore leave at most an orphaned temp file or a payload without a
manifest — never a manifest that blesses a half-written payload. Callers
that keep multiple checkpoints (``round-NNNNNN.ckpt`` per save) treat a
payload/manifest pair as complete only when both files exist.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from .errors import CheckpointCorruptError, CheckpointFormatError, CheckpointNotFoundError
from .snapshot import decode, encode_to

__all__ = [
    "CHECKPOINT_VERSION",
    "MANIFEST_SUFFIX",
    "write_payload",
    "read_payload",
]

#: Bump on any incompatible change to the container layout or the
#: checkpoint tree schema. Readers reject other versions outright: a
#: checkpoint is a crash-recovery artefact of one run, so there are no
#: compatibility loaders. (2: no per-client strategy section — scheme and
#: codec state ride in each client's snapshot. 3: client snapshots are
#: :mod:`~repro.persist.snapshot` blobs in three members, not two per client.
#: 4: the payload is one snapshot tree, not an ``.npz`` archive.)
CHECKPOINT_VERSION = 4

MANIFEST_SUFFIX = ".manifest.json"


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def manifest_path(path: str) -> str:
    return path + MANIFEST_SUFFIX


def write_payload(path: str, tree: Any) -> None:
    """Atomically persist ``tree`` (see module docstring for the protocol)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_payload = path + ".tmp"
    tmp_manifest = manifest_path(path) + ".tmp"

    digest = hashlib.sha256()
    with open(tmp_payload, "wb") as fh:

        def put(part: bytes) -> None:
            fh.write(part)
            digest.update(part)

        encode_to(tree, put)
        fh.flush()
        os.fsync(fh.fileno())
        size = fh.tell()

    manifest = {
        "format": "repro-run-checkpoint",
        "version": CHECKPOINT_VERSION,
        "payload": os.path.basename(path),
        "sha256": digest.hexdigest(),
        "size": size,
    }
    with open(tmp_manifest, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())

    # Payload first, manifest last: a manifest only ever describes a
    # payload that is already fully in place.
    os.replace(tmp_payload, path)
    os.replace(tmp_manifest, manifest_path(path))
    _fsync_dir(directory)


def read_payload(path: str) -> Any:
    """Load and verify a checkpoint payload, returning the original tree.

    Raises :class:`CheckpointNotFoundError` if the payload is absent,
    :class:`CheckpointFormatError` for a missing/garbled manifest or a
    version mismatch, and :class:`CheckpointCorruptError` when the payload
    bytes do not match the manifest digest or do not decode.
    """
    if not os.path.exists(path):
        raise CheckpointNotFoundError(f"no checkpoint payload at {path}")
    mpath = manifest_path(path)
    if not os.path.exists(mpath):
        raise CheckpointFormatError(
            f"checkpoint {path} has no manifest ({os.path.basename(mpath)}); "
            "it was not written by this tool or the save was interrupted"
        )
    try:
        with open(mpath) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"unreadable checkpoint manifest {mpath}: {exc}")
    if manifest.get("format") != "repro-run-checkpoint":
        raise CheckpointFormatError(
            f"{mpath} is not a repro run-checkpoint manifest"
        )
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint {path} has container version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION} only"
        )

    with open(path, "rb") as fh:
        data = fh.read()
    sha = hashlib.sha256(data).hexdigest()
    if len(data) != manifest.get("size") or sha != manifest.get("sha256"):
        raise CheckpointCorruptError(
            f"checkpoint {path} failed integrity verification "
            f"(size {len(data)} vs manifest {manifest.get('size')}, "
            f"sha256 {sha[:12]}… vs manifest "
            f"{str(manifest.get('sha256'))[:12]}…); refusing partial restore"
        )
    return decode(data)
