"""Crash-safe persistence for the controller: checkpoints and the journal.

Two durability primitives, both built on ``repro.io``'s write-temp /
fsync / rename contract:

* :class:`CheckpointStore` — versioned, content-hashed snapshots of the
  controller's full resume state, one envelope per iteration
  (``checkpoint-00000042.json``).  Any ``np.ndarray`` in the payload is
  stored in a binary sidecar next to it (``checkpoint-00000042.bin``):
  the JSON keeps a ``{"__ndarray__": {dtype, shape, offset}}`` reference
  and the envelope carries the sidecar's SHA-256.  Writes are atomic
  (sidecar first, then the envelope, whose rename is the commit point),
  loads verify both hashes, and a corrupt or torn checkpoint — envelope
  or sidecar — is *skipped* (with a warning), falling back to the
  previous durable checkpoint instead of refusing to start.  A
  checkpoint of another format version is refused outright
  (:class:`CheckpointVersionError`): skipping it would look like an
  empty directory and silently restart the run.
* :class:`DurableJournal` — a :class:`repro.telemetry.RunJournal` whose
  records are appended incrementally to a JSONL file and fsync'd at each
  iteration boundary.  On resume the file is reloaded tolerantly: a torn
  trailing line (a crash mid-append) is dropped, and records past the
  last durable checkpoint's ``journal_seq`` are truncated away — the
  interrupted iteration re-runs deterministically and re-appends them,
  so the recovered journal is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.io import atomic_write_bytes, atomic_write_text
from repro.telemetry import METRICS
from repro.telemetry.journal import RunJournal

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Bump when the checkpoint payload schema changes incompatibly.
#: Version 2 moved ndarray leaves into a binary sidecar.
CHECKPOINT_VERSION = 2
_CHECKPOINT_KIND = "painter-controller-checkpoint"
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.json$")
_SIDECAR_RE = re.compile(r"^checkpoint-(\d{8})\.bin$")
_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}
#: The payload is spliced into the envelope last, after this key, so its
#: hash covers exactly the bytes on disk.
_PAYLOAD_KEY = ',"payload":'
#: Key of the JSON object that stands in for an ndarray leaf.
_ARRAY_REF = "__ndarray__"


class CheckpointError(ValueError):
    """Raised for malformed, mismatched, or corrupted checkpoints."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint written by an incompatible format version.

    Not corruption: :meth:`CheckpointStore.latest` raises it instead of
    falling back, because treating the directory as empty would restart
    the run from iteration 0 and prune the old checkpoints.
    """


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class _SidecarWriter:
    """``json.dumps`` ``default`` hook: swaps each ndarray for a reference
    and queues its bytes for the sidecar (offsets in serialization order)."""

    def __init__(self) -> None:
        self.chunks: List[np.ndarray] = []
        self.size = 0

    def __call__(self, obj: Any) -> Dict[str, Any]:
        if not isinstance(obj, np.ndarray) or obj.dtype.hasobject:
            raise TypeError(
                f"Object of type {type(obj).__name__} is not JSON serializable"
            )
        flat = np.ascontiguousarray(obj).reshape(-1).view(np.uint8)
        ref = {
            "dtype": obj.dtype.str,
            "shape": list(obj.shape),
            "offset": self.size,
        }
        self.chunks.append(flat)
        self.size += flat.nbytes
        return {_ARRAY_REF: ref}


def _array_from(ref: Any, blob: bytes) -> np.ndarray:
    try:
        dtype = np.dtype(ref["dtype"])
        shape = [int(d) for d in ref["shape"]]
        offset = int(ref["offset"])
        count = int(np.prod(shape, dtype=np.int64))
        if dtype.hasobject or offset < 0 or min(shape, default=0) < 0:
            raise ValueError("bad array reference")
        if offset + count * dtype.itemsize > len(blob):
            raise ValueError("array reference past the end of the sidecar")
        array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed array reference {ref!r}: {exc}") from exc
    return array.reshape(shape).copy()


def _resolve_arrays(node: Any, blob: Optional[bytes]) -> Any:
    """Replace every array reference in a decoded payload by its array."""
    if isinstance(node, dict):
        if _ARRAY_REF in node and len(node) == 1:
            if blob is None:
                raise CheckpointError("array reference without a sidecar")
            return _array_from(node[_ARRAY_REF], blob)
        return {key: _resolve_arrays(value, blob) for key, value in node.items()}
    if isinstance(node, list):
        return [_resolve_arrays(value, blob) for value in node]
    return node


@dataclass(frozen=True)
class Checkpoint:
    """One verified checkpoint read back from disk."""

    seq: int
    payload: Dict[str, Any]
    path: Path


class CheckpointStore:
    """A directory of atomic, hash-verified controller checkpoints."""

    def __init__(self, directory: PathLike, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, seq: int) -> Path:
        return self.directory / f"checkpoint-{seq:08d}.json"

    @staticmethod
    def sidecar_for(path: PathLike) -> Path:
        """The binary sidecar belonging to envelope ``path``."""
        return Path(path).with_suffix(".bin")

    def save(self, seq: int, payload: Dict[str, Any]) -> Path:
        """Durably write checkpoint ``seq``; prunes beyond ``keep``.

        Returns the envelope's path.  The payload is serialized once, in
        canonical compact form; ndarray leaves go to the sidecar, which
        is written (only when there are any) before the envelope.
        """
        if seq < 0:
            raise ValueError("checkpoint seq must be non-negative")
        sidecar = _SidecarWriter()
        text = json.dumps(payload, default=sidecar, **_JSON_COMPACT)
        head: Dict[str, Any] = {
            "kind": _CHECKPOINT_KIND,
            "version": CHECKPOINT_VERSION,
            "seq": seq,
            "sha256": _sha256((text.encode("utf-8"),)),
        }
        path = self.path_for(seq)
        if sidecar.chunks:
            head["sidecar"] = {
                "bytes": sidecar.size,
                "sha256": _sha256(sidecar.chunks),
            }
            atomic_write_bytes(self.sidecar_for(path), sidecar.chunks)
        head_text = json.dumps(head, **_JSON_COMPACT)
        atomic_write_text(path, head_text[:-1] + _PAYLOAD_KEY + text + "}")
        METRICS.counter("controller.checkpoints").add()
        self._prune()
        return path

    def _prune(self) -> None:
        """Keep the newest ``keep`` envelopes with their sidecars; drop
        older pairs, orphan sidecars and temp files a crash left behind."""
        paths = self.list_paths()
        kept = {path.stem for path in paths[-self.keep:]}
        doomed = list(paths[: -self.keep])
        for path in self.directory.iterdir():
            name = path.name
            if _SIDECAR_RE.match(name) and path.stem not in kept:
                doomed.append(path)
            elif name.startswith(".checkpoint-") and name.endswith(".tmp"):
                doomed.append(path)
        for path in doomed:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                logger.debug("could not prune %s", path, exc_info=True)

    def list_paths(self) -> List[Path]:
        """All checkpoint envelopes, oldest first."""
        entries = []
        for path in self.directory.iterdir():
            match = _CHECKPOINT_RE.match(path.name)
            if match:
                entries.append((int(match.group(1)), path))
        return [path for _, path in sorted(entries)]

    def load(self, path: PathLike) -> Checkpoint:
        """Read and verify one checkpoint and its sidecar.

        Raises :class:`CheckpointVersionError` for another format version
        and :class:`CheckpointError` for any other mismatch.
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
            envelope = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("kind") != _CHECKPOINT_KIND:
            raise CheckpointError(f"{path} is not a controller checkpoint")
        version = envelope.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"{path} is a version {version!r} checkpoint; this build reads "
                f"version {CHECKPOINT_VERSION} only. Finish or resume that run "
                "with the release that wrote it, or move the checkpoint "
                "directory (journal included) aside to start a fresh run."
            )
        payload = envelope.get("payload")
        seq = envelope.get("seq")
        split = text.find(_PAYLOAD_KEY)
        if not isinstance(payload, dict) or not isinstance(seq, int) or split < 0:
            raise CheckpointError(f"{path} has a malformed envelope")
        payload_text = text[split + len(_PAYLOAD_KEY):-1]
        if _sha256((payload_text.encode("utf-8"),)) != envelope.get("sha256"):
            raise CheckpointError(f"{path} failed its content hash check")
        blob = None
        sidecar = envelope.get("sidecar")
        if sidecar is not None:
            sidecar_path = self.sidecar_for(path)
            try:
                blob = sidecar_path.read_bytes()
            except OSError as exc:
                raise CheckpointError(
                    f"unreadable sidecar {sidecar_path}: {exc}"
                ) from exc
            if (
                not isinstance(sidecar, dict)
                or len(blob) != sidecar.get("bytes")
                or _sha256((blob,)) != sidecar.get("sha256")
            ):
                raise CheckpointError(
                    f"{sidecar_path} failed its content hash check"
                )
        return Checkpoint(
            seq=seq, payload=_resolve_arrays(payload, blob), path=path
        )

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that verifies; corrupt files are skipped.

        A crash can never tear a checkpoint (writes are atomic), but a
        disk can still rot one — recovery prefers losing an iteration to
        refusing to start, so verification failures (envelope or
        sidecar) fall back to the next-newest checkpoint.  A checkpoint of
        another format version is not rot: its
        :class:`CheckpointVersionError` propagates.
        """
        for path in reversed(self.list_paths()):
            try:
                return self.load(path)
            except CheckpointVersionError:
                raise
            except CheckpointError as exc:
                METRICS.counter("controller.corrupt_checkpoints").add()
                logger.warning("skipping corrupt checkpoint: %s", exc)
        return None


class DurableJournal:
    """A run journal with incremental fsync'd appends and tail recovery.

    Use :meth:`start` for a fresh run or :meth:`resume` after a crash;
    record events through :meth:`event` and make them durable with
    :meth:`sync` (one call per controller iteration).
    """

    def __init__(
        self,
        path: PathLike,
        run_name: str = "controller",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path)
        self.journal = RunJournal(run_name, include_timings=False, meta=meta)
        self._written = 0
        self._fh = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "DurableJournal":
        """Begin a fresh journal file (header line, fsync'd)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(json.dumps(self.journal.header(), **_JSON_COMPACT) + "\n")
        self._fsync()
        return self

    @classmethod
    def resume(cls, path: PathLike, journal_seq: int) -> "DurableJournal":
        """Reload the durable prefix of an interrupted run's journal.

        ``journal_seq`` is the last record sequence the newest durable
        checkpoint vouches for.  Anything after it — a torn trailing
        line, or whole records from the iteration the crash interrupted —
        is dropped, and the truncated file is atomically rewritten before
        appending resumes.
        """
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise CheckpointError(f"unreadable journal {path}: {exc}") from exc
        if not lines:
            raise CheckpointError(f"journal {path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"journal {path} has a corrupt header") from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise CheckpointError(f"journal {path} does not start with a header")
        records: List[Dict[str, Any]] = []
        dropped = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                break  # torn tail: a crash interrupted an append here
            if not isinstance(record, dict) or not isinstance(record.get("seq"), int):
                dropped += 1
                break
            if record["seq"] > journal_seq:
                dropped += 1
                continue  # beyond the last durable checkpoint: re-run instead
            records.append(record)
        if dropped:
            logger.info(
                "journal recovery dropped %d record(s) past seq %d",
                dropped,
                journal_seq,
            )
            METRICS.counter("controller.journal_tail_dropped").add(dropped)
        instance = cls(
            path,
            run_name=header.get("run_name", "controller"),
            meta=header.get("meta") or None,
        )
        instance.journal.resume_from(records)
        instance._written = len(records)
        atomic_write_text(path, instance._render())
        instance._fh = open(path, "a", encoding="utf-8")
        return instance

    def _render(self) -> str:
        lines = [json.dumps(self.journal.header(), **_JSON_COMPACT)]
        lines.extend(
            json.dumps(record, **_JSON_COMPACT) for record in self.journal.records
        )
        return "\n".join(lines) + "\n"

    # -- recording ----------------------------------------------------------

    def event(self, event_type: str, **fields: Any) -> None:
        self.journal.record_event(event_type, **fields)

    @property
    def last_seq(self) -> int:
        """Sequence of the newest record (-1 while empty)."""
        return self.journal._seq - 1

    def sync(self) -> None:
        """Append every unwritten record, then flush and fsync."""
        if self._fh is None:
            raise RuntimeError("journal not started (call start() or resume())")
        for record in self.journal.records[self._written:]:
            self._fh.write(json.dumps(record, **_JSON_COMPACT) + "\n")
        self._written = len(self.journal.records)
        self._fsync()

    def tear(self) -> None:
        """Crash-injection helper: flush a deliberately torn half-record.

        Simulates the kernel persisting only part of an append before the
        process died; :meth:`resume` must drop the fragment.
        """
        if self._fh is None:
            raise RuntimeError("journal not started")
        pending = self.journal.records[self._written:]
        if pending:
            line = json.dumps(pending[0], **_JSON_COMPACT)
            self._fh.write(line[: max(1, len(line) // 2)])
        else:
            self._fh.write('{"kind":"event","event":"torn","half')
        self._fsync()

    def _fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None
