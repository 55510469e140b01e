"""Crash-safe, checksummed training checkpoints.

File format (one file per snapshot)::

    8 bytes   magic  b"RPCKPT1\\n"
    16 bytes  BLAKE2b digest of the payload
    N bytes   payload: an ``.npz`` archive of the state arrays plus a
              ``__meta__`` JSON blob (epoch, restart, RNG state, history,
              flags ...)

Writes are atomic — the payload goes to a ``.tmp`` sibling, is fsynced,
and then renamed over the final path — so a crash mid-write can never
leave a half-written file under the checkpoint's name.  Reads verify
the digest before touching the payload, so truncation or bit-flips
raise :class:`CheckpointError` instead of resuming from garbage;
:meth:`CheckpointManager.load_latest` then falls back to the previous
snapshot.

:class:`CheckpointManager` namespaces snapshots under a **run key** — a
digest of the graph content plus every trajectory-relevant config field
— so a single ``--checkpoint-dir`` can be shared by sweeps, restarts and
both AnECI+ stages without collisions, and ``resume_from`` finds the
right run automatically.  Arrays round-trip in their native dtype, so a
float32 fit resumes at float32 exactly.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import warnings

import numpy as np

from ..obs import events, metrics
from . import faultinject

__all__ = ["CheckpointError", "CheckpointManager", "write_checkpoint",
           "read_checkpoint", "config_key", "config_fingerprint",
           "graph_fingerprint", "run_key",
           "default_checkpoint_every", "default_checkpoint_keep"]

MAGIC = b"RPCKPT1\n"
_DIGEST_SIZE = 16
_EPOCH_NAME = re.compile(r"^ckpt-r(\d+)-e(\d+)\.ckpt$")
FINAL_NAME = "final.ckpt"

#: Config fields that change where snapshots go, not *what* the run
#: computes — excluded from the run key so re-pointing the checkpoint
#: dir still resumes the same run.
_NON_TRAJECTORY_FIELDS = {"checkpoint_dir", "checkpoint_every"}


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, corrupt or mismatched."""


def default_checkpoint_every() -> int:
    """Epoch interval between snapshots (``REPRO_CHECKPOINT_EVERY``)."""
    return int(os.environ.get("REPRO_CHECKPOINT_EVERY", "25"))


def default_checkpoint_keep() -> int:
    """Epoch snapshots retained per restart (``REPRO_CHECKPOINT_KEEP``).
    At least 2, so a corrupt newest file always has a fallback."""
    return max(int(os.environ.get("REPRO_CHECKPOINT_KEEP", "3")), 2)


# --------------------------------------------------------------------- #
# File format                                                            #
# --------------------------------------------------------------------- #
def write_checkpoint(path: str, arrays: dict[str, np.ndarray],
                     meta: dict) -> str:
    """Atomically write ``arrays`` + ``meta`` to ``path`` with a checksum."""
    buffer = io.BytesIO()
    meta_blob = np.frombuffer(
        json.dumps(meta, default=_meta_jsonify).encode(), dtype=np.uint8)
    np.savez(buffer, __meta__=meta_blob, **arrays)
    payload = buffer.getvalue()
    digest = _digest(payload)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(digest)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load and verify a checkpoint; raises :class:`CheckpointError` on
    any corruption (bad magic, checksum mismatch, undecodable payload)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    header = len(MAGIC) + _DIGEST_SIZE
    if len(blob) < header or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint "
                              f"(bad magic or truncated header)")
    digest = blob[len(MAGIC):header]
    payload = blob[header:]
    if _digest(payload) != digest:
        raise CheckpointError(f"{path} failed checksum validation "
                              f"(truncated or corrupted payload)")
    try:
        with np.load(io.BytesIO(payload)) as data:
            arrays = {key: data[key] for key in data.files
                      if key != "__meta__"}
            meta = json.loads(data["__meta__"].tobytes().decode())
    except Exception as exc:  # a passing checksum should make this rare
        raise CheckpointError(f"cannot decode checkpoint {path}: {exc}")
    return arrays, meta


def _digest(payload: bytes) -> bytes:
    import hashlib
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def _meta_jsonify(value):
    """JSON fallback for numpy scalars/arrays inside checkpoint meta."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)} into checkpoint meta")


# --------------------------------------------------------------------- #
# Run identity                                                           #
# --------------------------------------------------------------------- #
def config_key(config) -> str:
    """Canonical string of every trajectory-relevant config field."""
    fields = dataclasses.asdict(config)
    items = sorted((k, repr(v)) for k, v in fields.items()
                   if k not in _NON_TRAJECTORY_FIELDS)
    return repr(items)


def config_fingerprint(config) -> str:
    """Short digest of :func:`config_key` — the config half of the run
    identity, recorded on its own in run-ledger entries so two runs can
    be told apart as "same graph, different config" at a glance."""
    import hashlib
    return hashlib.blake2b(config_key(config).encode(),
                           digest_size=8).hexdigest()


def graph_fingerprint(graph) -> str:
    """Digest of the graph content (adjacency CSR arrays + features)."""
    import hashlib
    adjacency = graph.adjacency
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    digest.update(repr(adjacency.shape).encode())
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    digest.update(np.ascontiguousarray(graph.features).tobytes())
    return digest.hexdigest()


def run_key(graph, config) -> str:
    """Content-derived identity of one (graph, config) fit."""
    import hashlib
    digest = hashlib.blake2b(digest_size=8)
    digest.update(config_key(config).encode())
    digest.update(graph_fingerprint(graph).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------- #
# Manager                                                                #
# --------------------------------------------------------------------- #
class CheckpointManager:
    """Snapshot lifecycle for one fit under ``directory/<run key>/``.

    Parameters
    ----------
    directory:
        Base checkpoint directory (shared across runs).
    key:
        Run key subdirectory; use :meth:`for_fit` to derive it from a
        (graph, config) pair.
    every:
        Epoch interval between snapshots (default:
        ``REPRO_CHECKPOINT_EVERY``, else 25).
    keep:
        Epoch snapshots retained per restart (default:
        ``REPRO_CHECKPOINT_KEEP``, else 3; never below 2 so corruption
        of the newest file leaves a fallback).
    """

    def __init__(self, directory: str, key: str = "",
                 every: int | None = None, keep: int | None = None):
        self.directory = os.path.join(str(directory), key) if key \
            else str(directory)
        self.key = key
        self.every = default_checkpoint_every() if every is None \
            else int(every)
        if self.every < 1:
            raise ValueError("checkpoint interval must be >= 1 epoch")
        self.keep = default_checkpoint_keep() if keep is None \
            else max(int(keep), 2)
        self._saves = 0

    @classmethod
    def for_fit(cls, directory: str, graph, config) -> "CheckpointManager":
        """Manager namespaced by the (graph, config) run key."""
        return cls(directory, key=run_key(graph, config),
                   every=getattr(config, "checkpoint_every", None))

    # -- writing -------------------------------------------------------- #
    def due(self, epoch: int) -> bool:
        """Snapshot after ``epoch``? (counted in completed epochs)"""
        return (epoch + 1) % self.every == 0

    def save_epoch(self, arrays: dict[str, np.ndarray], meta: dict,
                   restart: int, epoch: int) -> str:
        path = os.path.join(self.directory,
                            f"ckpt-r{restart:04d}-e{epoch:07d}.ckpt")
        self._save(path, arrays, meta)
        self._prune(restart)
        return path

    def save_final(self, arrays: dict[str, np.ndarray], meta: dict) -> str:
        path = os.path.join(self.directory, FINAL_NAME)
        return self._save(path, arrays, meta)

    def _save(self, path: str, arrays: dict, meta: dict) -> str:
        os.makedirs(self.directory, exist_ok=True)
        write_checkpoint(path, arrays, meta)
        spec = faultinject.fire("checkpoint_corrupt", save=self._saves)
        if spec is not None:
            _corrupt_file(path)
        self._saves += 1
        metrics.registry().counter("checkpoint.saves").inc()
        events.emit("checkpoint", path=path,
                    snapshot=meta.get("kind", "epoch"),
                    restart=meta.get("restart"), epoch=meta.get("epoch"))
        return path

    def _prune(self, restart: int) -> None:
        """Drop the oldest epoch snapshots of ``restart`` beyond ``keep``."""
        mine = sorted(
            (epoch, name)
            for name, (r, epoch) in self._epoch_files()
            if r == restart)
        for _, name in mine[:-self.keep] if len(mine) > self.keep else []:
            try:
                os.remove(os.path.join(self.directory, name))
            except OSError:
                pass

    # -- reading -------------------------------------------------------- #
    def _epoch_files(self) -> list[tuple[str, tuple[int, int]]]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        out = []
        for name in names:
            match = _EPOCH_NAME.match(name)
            if match:
                out.append((name, (int(match.group(1)), int(match.group(2)))))
        return out

    def candidates(self) -> list[str]:
        """Resume candidates, best first: the final snapshot (a completed
        run), then epoch snapshots by (restart, epoch) descending."""
        paths = []
        final = os.path.join(self.directory, FINAL_NAME)
        if os.path.exists(final):
            paths.append(final)
        for name, _ in sorted(self._epoch_files(), key=lambda item: item[1],
                              reverse=True):
            paths.append(os.path.join(self.directory, name))
        return paths

    def load_latest(self) -> tuple[dict[str, np.ndarray], dict] | None:
        """Newest *valid* snapshot, falling back past corrupt files.

        Every rejected file emits a ``checkpoint_corrupt`` event, a
        ``RuntimeWarning`` and bumps the ``checkpoint.corrupt`` counter;
        ``None`` means nothing in the run's directory validated.
        """
        for path in self.candidates():
            try:
                return read_checkpoint(path)
            except CheckpointError as exc:
                metrics.registry().counter("checkpoint.corrupt").inc()
                events.emit("checkpoint_corrupt", path=path, error=str(exc))
                warnings.warn(
                    f"skipping corrupt checkpoint {path} ({exc}); "
                    f"falling back to the previous snapshot",
                    RuntimeWarning, stacklevel=2)
        return None


def _corrupt_file(path: str) -> None:
    """Deterministically damage ``path`` (fault-injection helper): the
    file is truncated to half its length, which both breaks the checksum
    and simulates a crash mid-write on a non-atomic filesystem."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)
