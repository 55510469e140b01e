"""Versioned, checksummed, memory-mapped embedding/membership store.

Layout (one directory per store)::

    <dir>/versions/<version>/embeddings.npy    float shards (.npy)
    <dir>/versions/<version>/memberships.npy
    <dir>/versions/<version>/manifest.json     BLAKE2b-checksummed manifest
    <dir>/CURRENT.json                         atomic pointer + history

Every file is written atomically — payload to a
``.tmp`` sibling, flushed, fsynced, renamed over the final path — so a
crash mid-publish can never leave a half-written shard under a live
name, and the ``CURRENT.json`` pointer flips to a new version only
after all of its shards and its manifest are durable.

The manifest records dtype, shape, byte size and a streaming BLAKE2b
digest per shard plus a digest of its own canonical payload;
:meth:`EmbeddingStore.load` verifies all of it (shards are hashed in
1 MiB chunks so verification never materialises a large matrix) before
handing back a :class:`ServingStore` whose arrays are **memory-mapped**
(``np.load(mmap_mode="r")``).  A corrupt or truncated manifest/shard is
rejected with a warning + ``serve_store_corrupt`` event and the loader
falls back to the previous version in the pointer history.

Versions are keyed by the caller — models use the content-derived run
key from :func:`repro.core.config.run_key`, so re-exporting the same
(graph, config) fit overwrites its own version while a changed fit
publishes a fresh one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import time
import warnings

import numpy as np

from ..obs import events, metrics
from ..resilience import faultinject

__all__ = ["StoreError", "EmbeddingStore", "ServingStore", "export_store"]

MANIFEST_NAME = "manifest.json"
POINTER_NAME = "CURRENT.json"
FORMAT_VERSION = 1
_HASH_CHUNK = 1 << 20  # shard verification reads 1 MiB at a time

#: Row-block size for the streaming reductions (norms, argmax) so a
#: memory-mapped 1M-node matrix is reduced without a dense copy.
BLOCK_ROWS = 16384


class StoreError(RuntimeError):
    """A store version is missing, truncated, corrupt or mismatched."""


def _fsync_write(path: str, payload: bytes) -> str:
    """Atomic durable write: tmp sibling + flush + fsync + rename."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _npy_bytes(array: np.ndarray) -> bytes:
    """The exact ``.npy`` serialisation of ``array`` (header included)."""
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array))
    return buffer.getvalue()


def _digest_bytes(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _digest_file(path: str) -> str:
    """Streaming BLAKE2b of a file — constant memory at any shard size."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_HASH_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_digest(manifest: dict) -> str:
    payload = {k: v for k, v in manifest.items() if k != "digest"}
    return _digest_bytes(json.dumps(payload, sort_keys=True).encode())


class EmbeddingStore:
    """Publish and load versioned embedding/membership snapshots.

    Parameters
    ----------
    directory:
        Store root; created on first publish.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)

    # -- paths ---------------------------------------------------------- #
    def version_dir(self, version: str) -> str:
        return os.path.join(self.directory, "versions", str(version))

    def pointer_path(self) -> str:
        return os.path.join(self.directory, POINTER_NAME)

    # -- publishing ----------------------------------------------------- #
    def publish(self, embeddings: np.ndarray, memberships: np.ndarray,
                version: str, meta: dict | None = None) -> str:
        """Durably write one version and flip the current pointer to it.

        ``embeddings`` is the ``N × d`` matrix (any float dtype — stored
        byte-identically), ``memberships`` the ``N × |C|`` softmax
        matrix.  Shards and manifest land under ``versions/<version>/``
        first; only once everything is fsynced does ``CURRENT.json``
        move, so readers either see the complete new version or the old
        one — never a torn mix.
        """
        embeddings = np.ascontiguousarray(embeddings)
        memberships = np.ascontiguousarray(memberships)
        if embeddings.ndim != 2 or memberships.ndim != 2:
            raise ValueError("embeddings and memberships must be 2-D")
        if embeddings.shape[0] != memberships.shape[0]:
            raise ValueError(
                f"row mismatch: {embeddings.shape[0]} embeddings vs "
                f"{memberships.shape[0]} membership rows")
        vdir = self.version_dir(version)
        os.makedirs(vdir, exist_ok=True)
        manifest: dict = {
            "format": FORMAT_VERSION,
            "version": str(version),
            "created": round(time.time(), 6),
            "nodes": int(embeddings.shape[0]),
            "dim": int(embeddings.shape[1]),
            "communities": int(memberships.shape[1]),
            "meta": dict(meta or {}),
            "arrays": {},
        }
        for name, array in (("embeddings", embeddings),
                            ("memberships", memberships)):
            payload = _npy_bytes(array)
            filename = f"{name}.npy"
            _fsync_write(os.path.join(vdir, filename), payload)
            manifest["arrays"][name] = {
                "file": filename,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "bytes": len(payload),
                "blake2b": _digest_bytes(payload),
            }
        manifest["digest"] = _manifest_digest(manifest)
        _fsync_write(os.path.join(vdir, MANIFEST_NAME),
                     json.dumps(manifest, indent=2, sort_keys=True).encode())
        self._update_pointer(str(version))
        metrics.registry().counter("serve.store.publishes").inc()
        events.emit("serve_publish", store=self.directory,
                    version=str(version), nodes=manifest["nodes"],
                    dim=manifest["dim"])
        return str(version)

    def _update_pointer(self, version: str) -> None:
        history = [v for v in self.history() if v != version]
        pointer = {"current": version, "history": [version, *history]}
        _fsync_write(self.pointer_path(),
                     json.dumps(pointer, indent=2).encode())

    # -- version discovery ---------------------------------------------- #
    def current_version(self) -> str | None:
        """The pointer's current version, or ``None`` on a fresh store."""
        pointer = self._read_pointer()
        return pointer.get("current") if pointer else None

    def history(self) -> list[str]:
        """Pointer history, newest first (current version included)."""
        pointer = self._read_pointer()
        return list(pointer.get("history", [])) if pointer else []

    def versions(self) -> list[str]:
        """Every version directory on disk (publish order not implied)."""
        try:
            return sorted(os.listdir(os.path.join(self.directory,
                                                  "versions")))
        except OSError:
            return []

    def _read_pointer(self) -> dict | None:
        try:
            with open(self.pointer_path(), "rb") as fh:
                return json.loads(fh.read().decode())
        except (OSError, ValueError):
            return None

    # -- loading -------------------------------------------------------- #
    def load(self, version: str | None = None,
             verify: bool = True) -> "ServingStore":
        """Open the newest *valid* version memory-mapped.

        ``version`` pins one version explicitly (no fallback — an
        explicitly requested corrupt version raises).  Without it the
        loader walks the pointer history, newest first, skipping any
        version whose manifest or shards fail validation — each skip
        warns, emits a ``serve_store_corrupt`` event and bumps the
        ``serve.store.corrupt`` counter — and raises :class:`StoreError`
        only when nothing validates.
        """
        if version is not None:
            return self._load_version(str(version), verify)
        candidates = self.history() or self.versions()[::-1]
        if not candidates:
            raise StoreError(f"no versions published under {self.directory}")
        for candidate in candidates:
            try:
                return self._load_version(candidate, verify)
            except StoreError as exc:
                metrics.registry().counter("serve.store.corrupt").inc()
                events.emit("serve_store_corrupt", store=self.directory,
                            version=candidate, error=str(exc))
                warnings.warn(
                    f"skipping corrupt store version {candidate!r} ({exc}); "
                    f"falling back to the previous version",
                    RuntimeWarning, stacklevel=2)
        raise StoreError(
            f"no usable version under {self.directory} "
            f"(tried {', '.join(candidates)})")

    def _load_version(self, version: str, verify: bool) -> "ServingStore":
        vdir = self.version_dir(version)
        manifest_path = os.path.join(vdir, MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as fh:
                manifest = json.loads(fh.read().decode())
        except OSError as exc:
            raise StoreError(f"cannot read manifest of version "
                             f"{version!r}: {exc}")
        except ValueError as exc:
            raise StoreError(f"manifest of version {version!r} is not "
                             f"valid JSON (truncated?): {exc}")
        if manifest.get("format") != FORMAT_VERSION:
            raise StoreError(f"version {version!r} has unsupported format "
                             f"{manifest.get('format')!r}")
        if manifest.get("digest") != _manifest_digest(manifest):
            raise StoreError(f"manifest of version {version!r} failed "
                             f"checksum validation")
        arrays: dict[str, np.ndarray] = {}
        for name in ("embeddings", "memberships"):
            spec = manifest["arrays"].get(name)
            if spec is None:
                raise StoreError(f"version {version!r} is missing the "
                                 f"{name} shard entry")
            path = os.path.join(vdir, spec["file"])
            try:
                size = os.path.getsize(path)
            except OSError as exc:
                raise StoreError(f"cannot stat shard {spec['file']} of "
                                 f"version {version!r}: {exc}")
            if size != int(spec["bytes"]):
                raise StoreError(
                    f"shard {spec['file']} of version {version!r} is "
                    f"{size} bytes, manifest says {spec['bytes']} "
                    f"(truncated or overwritten)")
            if verify and _digest_file(path) != spec["blake2b"]:
                raise StoreError(f"shard {spec['file']} of version "
                                 f"{version!r} failed checksum validation")
            try:
                array = np.load(path, mmap_mode="r")
            except Exception as exc:
                raise StoreError(f"cannot mmap shard {spec['file']} of "
                                 f"version {version!r}: {exc}")
            if (list(array.shape) != list(spec["shape"])
                    or array.dtype.str != spec["dtype"]):
                raise StoreError(
                    f"shard {spec['file']} of version {version!r} decodes "
                    f"as {array.dtype.str}{array.shape}, manifest says "
                    f"{spec['dtype']}{tuple(spec['shape'])}")
            arrays[name] = array
        metrics.registry().counter("serve.store.loads").inc()
        return ServingStore(version=str(version), manifest=manifest,
                            embeddings=arrays["embeddings"],
                            memberships=arrays["memberships"],
                            directory=self.directory)


class ServingStore:
    """One loaded (memory-mapped) store version plus derived caches.

    ``embeddings`` and ``memberships`` are read-only memmaps — slicing
    materialises only the touched rows.  The derived per-node arrays
    every query path needs — L2 row norms and the **argmax community of
    the membership matrix** — are computed once, in row blocks, and
    cached; ``same_community`` style queries reuse the cached argmax
    instead of recomputing it per query (see :meth:`communities`).
    """

    def __init__(self, version: str, manifest: dict,
                 embeddings: np.ndarray, memberships: np.ndarray,
                 directory: str | None = None):
        self.version = version
        self.manifest = manifest
        self.embeddings = embeddings
        self.memberships = memberships
        self.directory = directory
        self._norms: np.ndarray | None = None
        self._communities: np.ndarray | None = None
        self._members: list[np.ndarray] | None = None
        self._read_calls = 0

    # -- shapes --------------------------------------------------------- #
    @property
    def num_nodes(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @property
    def num_communities(self) -> int:
        return int(self.memberships.shape[1])

    # -- derived caches -------------------------------------------------- #
    def norms(self) -> np.ndarray:
        """L2 norm per embedding row (blocked; zero rows clamp to 1).

        Uses quarter-size blocks: the float64 cast plus the squared
        temporary inside ``np.linalg.norm`` each occupy a full block,
        and this pass sets the peak-memory high-water mark of serving a
        store that was never materialised in RAM.
        """
        if self._norms is None:
            norms = np.empty(self.num_nodes, dtype=np.float64)
            for start, stop, block in self.iter_blocks(BLOCK_ROWS // 4):
                norms[start:stop] = np.linalg.norm(
                    np.asarray(block, dtype=np.float64), axis=1)
            norms[norms == 0.0] = 1.0
            self._norms = norms
        return self._norms

    def communities(self) -> np.ndarray:
        """Cached hard community per node: ``memberships.argmax(1)``.

        Computed once per loaded version in row blocks; every
        ``same_community`` query indexes this array instead of paying an
        ``N × |C|`` argmax per request.
        """
        if self._communities is None:
            out = np.empty(self.num_nodes, dtype=np.int64)
            for start in range(0, self.num_nodes, BLOCK_ROWS):
                stop = min(start + BLOCK_ROWS, self.num_nodes)
                out[start:stop] = np.asarray(
                    self.memberships[start:stop]).argmax(axis=1)
            self._communities = out
        return self._communities

    def community_members(self, community: int) -> np.ndarray:
        """Node ids of one community (index built lazily from the cached
        argmax, shared by every subsequent query)."""
        if self._members is None:
            communities = self.communities()
            order = np.argsort(communities, kind="stable")
            sorted_comms = communities[order]
            bounds = np.searchsorted(sorted_comms,
                                     np.arange(self.num_communities + 1))
            self._members = [order[bounds[c]:bounds[c + 1]]
                             for c in range(self.num_communities)]
        return self._members[int(community)]

    def iter_blocks(self, block_rows: int | None = None):
        """Yield ``(start, stop, embeddings[start:stop])`` row blocks."""
        step = int(block_rows or BLOCK_ROWS)
        for start in range(0, self.num_nodes, step):
            stop = min(start + step, self.num_nodes)
            yield start, stop, self.embeddings[start:stop]

    def _fire_read_fault(self) -> None:
        """``shard_corrupt_read`` injection point for every query-path
        mmap materialisation, keyed by a per-store ``call`` counter.

        A firing raises :class:`StoreError` exactly like a real
        bit-flipped page would surface, so chaos tests exercise the
        same ``503``-and-degrade path production corruption takes.
        """
        call = self._read_calls
        self._read_calls += 1
        if faultinject.fire("shard_corrupt_read", call=call) is not None:
            raise StoreError(
                f"injected shard corruption on read {call} of version "
                f"{self.version!r}")

    def read_block(self, start: int, stop: int) -> np.ndarray:
        """Materialise ``embeddings[start:stop]`` as a float64 block.

        The single mmap-read choke point the index scan goes through —
        and therefore the ``shard_corrupt_read`` injection site for
        block reads.
        """
        self._fire_read_fault()
        return np.asarray(self.embeddings[start:stop], dtype=np.float64)

    def normalized_rows(self, ids: np.ndarray) -> np.ndarray:
        """L2-normalised embedding rows for ``ids`` (materialises only
        those rows)."""
        self._fire_read_fault()
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.asarray(self.embeddings[ids], dtype=np.float64)
        return rows / self.norms()[ids][:, None]

    def membership_row(self, node: int) -> np.ndarray:
        """Soft membership of one node as a plain float array."""
        return np.asarray(self.memberships[int(node)], dtype=np.float64)


def export_store(directory: str, embeddings: np.ndarray,
                 memberships: np.ndarray, version: str,
                 meta: dict | None = None) -> str:
    """Module-level convenience wrapper over
    :meth:`EmbeddingStore.publish`."""
    return EmbeddingStore(directory).publish(embeddings, memberships,
                                             version, meta=meta)
