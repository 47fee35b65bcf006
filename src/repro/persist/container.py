"""On-disk checkpoint container: one ``.npz`` payload + one manifest.

Format
------
A checkpoint is a pair of files written as a unit:

* ``<path>`` — a NumPy ``.npz`` archive. One member, ``__meta__``, is a
  ``uint8`` array holding the UTF-8 bytes of a canonical JSON document (the
  *tree*); every ndarray in the tree is replaced by an ``{"__array__":
  "aN"}`` placeholder and stored as archive member ``aN`` at full fidelity
  (dtype and shape preserved bit-for-bit). The tree is the run-level
  state — a few dozen arrays. Per-client snapshots are *not* subtrees of
  it: :class:`~repro.persist.checkpoint.RunCheckpoint` hands them over as
  three arrays (ids, end offsets, and every client's
  :mod:`~repro.persist.snapshot` blob back to back), so the member count
  does not grow with the number of clients.
* ``<path>.manifest.json`` — sidecar with the container version, payload
  byte size and SHA-256 digest. :func:`read_payload` verifies both before
  deserialising anything, so a truncated or bit-flipped payload raises
  :class:`~repro.persist.errors.CheckpointCorruptError` instead of
  producing a partial restore.

Atomicity
---------
:func:`write_payload` streams the archive into one temporary name in the
target directory and writes the manifest to another, ``fsync``\\ s both,
then ``os.replace``\\ s them into place (payload first, manifest last) and
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
import zipfile
from typing import Any

import numpy as np

from .errors import CheckpointCorruptError, CheckpointFormatError, CheckpointNotFoundError

__all__ = [
    "CHECKPOINT_VERSION",
    "MANIFEST_SUFFIX",
    "pack_tree",
    "unpack_tree",
    "write_payload",
    "read_payload",
]

#: Bump on any incompatible change to the container layout or the
#: checkpoint tree schema. Readers reject other versions outright: a
#: checkpoint is a crash-recovery artefact of one run, so there are no
#: compatibility loaders. (2: no per-client strategy section — scheme and
#: codec state ride in each client's snapshot. 3: client snapshots are
#: :mod:`~repro.persist.snapshot` blobs in three members, not two per client.)
CHECKPOINT_VERSION = 3

MANIFEST_SUFFIX = ".manifest.json"


# ----------------------------------------------------------------------
# Tree <-> (JSON document, array table)
# ----------------------------------------------------------------------
def pack_tree(tree: Any) -> tuple[Any, dict[str, np.ndarray]]:
    """Split a nested dict/list tree into a JSON-safe skeleton plus an
    array table. ndarrays become ``{"__array__": "aN"}`` placeholders;
    numpy scalars become native Python scalars; dict keys are stringified
    (JSON objects only have string keys — readers re-int them knowingly).
    """
    arrays: dict[str, np.ndarray] = {}

    def walk(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            ref = f"a{len(arrays)}"
            arrays[ref] = node
            return {"__array__": ref}
        if isinstance(node, np.generic):
            return node.item()
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                key = str(key)
                if key == "__array__":
                    raise ValueError("'__array__' is a reserved checkpoint key")
                out[key] = walk(value)
            return out
        if isinstance(node, (list, tuple)):
            return [walk(item) for item in node]
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        raise TypeError(f"cannot checkpoint object of type {type(node).__name__}")

    return walk(tree), arrays


def unpack_tree(skeleton: Any, arrays: dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`pack_tree`: resolve array placeholders in place."""

    def walk(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {"__array__"}:
                ref = node["__array__"]
                if ref not in arrays:
                    raise CheckpointCorruptError(
                        f"checkpoint references missing array member {ref!r}"
                    )
                return arrays[ref]
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(skeleton)


# ----------------------------------------------------------------------
# Payload I/O
# ----------------------------------------------------------------------
def _sha256(path: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


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
    skeleton, arrays = pack_tree(tree)
    # Insertion order is preserved (no sort_keys): restored dicts iterate
    # exactly like the originals, so re-serialised histories stay
    # byte-identical to an uninterrupted run's.
    meta_bytes = json.dumps(skeleton).encode("utf-8")
    members = dict(arrays)
    members["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_payload = path + ".tmp"
    tmp_manifest = manifest_path(path) + ".tmp"

    with open(tmp_payload, "wb") as fh:
        np.savez(fh, **members)
        fh.flush()
        os.fsync(fh.fileno())

    sha, size = _sha256(tmp_payload)
    manifest = {
        "format": "repro-run-checkpoint",
        "version": CHECKPOINT_VERSION,
        "payload": os.path.basename(path),
        "sha256": sha,
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
    bytes do not match the manifest digest or the archive is unreadable.
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

    sha, size = _sha256(path)
    if size != manifest.get("size") or sha != manifest.get("sha256"):
        raise CheckpointCorruptError(
            f"checkpoint {path} failed integrity verification "
            f"(size {size} vs manifest {manifest.get('size')}, "
            f"sha256 {sha[:12]}… vs manifest "
            f"{str(manifest.get('sha256'))[:12]}…); refusing partial restore"
        )

    try:
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointCorruptError(f"unreadable checkpoint archive {path}: {exc}")
    if "__meta__" not in members:
        raise CheckpointCorruptError(f"checkpoint {path} is missing its __meta__ member")
    meta_bytes = members.pop("__meta__").tobytes()
    try:
        skeleton = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError(f"garbled checkpoint metadata in {path}: {exc}")
    return unpack_tree(skeleton, members)
