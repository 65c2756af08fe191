"""A durable, corruption-detecting store for stream checkpoints.

:class:`~repro.core.checkpoint.StreamCheckpoint` round-trips JSON in
memory; surviving a *process* crash needs that JSON on disk with the
classic durability discipline:

* **Atomic generations.**  Each :meth:`CheckpointStore.save` writes a new
  ``checkpoint-NNNNNNNN.json`` generation: the bytes go to a temp file in
  the same directory, are flushed and ``fsync``'d, and the temp file is
  ``os.replace``'d onto the final name (the directory is fsync'd too) —
  a crash at any instant leaves either the complete new generation or
  none of it, never a half-written file under the real name.
* **Content checksums.**  The file is a three-field envelope —
  ``schema_version``, ``sha256`` over the checkpoint payload string, and
  the payload itself — with no insignificant bytes, so *any* single
  byte-flip, truncation, or emptying is detected at load time as a typed
  :class:`CheckpointIntegrityError` (the chaos suite proves this
  property exhaustively).
* **Bounded rotation.**  Only the newest ``keep`` generations are
  retained; older ones are unlinked after a successful save, so a
  long-lived dispatcher's footprint is O(keep), not O(run length).
* **Verified fallback.**  :meth:`CheckpointStore.latest_good` walks
  generations newest-first and returns the first one that passes the
  checksum *and* parses (schema stamp included), recording every
  corrupt generation it skipped — the recovery supervisor restarts from
  the newest trustworthy state instead of dying on the newest bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from ..core.checkpoint import StreamCheckpoint
from ..core.validation import CheckpointFormatError

__all__ = [
    "STORE_SCHEMA_VERSION",
    "CheckpointIntegrityError",
    "GenerationStatus",
    "LatestGood",
    "CheckpointStore",
]

#: Version of the on-disk envelope layout.
STORE_SCHEMA_VERSION = 1

_GENERATION_RE = re.compile(r"checkpoint-(\d{8})\.json$")
_SHA256_HEX_RE = re.compile(r"[0-9a-f]{64}$")


class CheckpointIntegrityError(ValueError):
    """A stored checkpoint file whose bytes cannot be trusted.

    Raised when the envelope is unreadable (truncated/empty/flipped into
    invalid JSON), structurally wrong, stamped with an unknown store
    schema, or when the payload fails its SHA-256 checksum.  ``path``
    names the offending file and ``reason`` the failed check.
    """

    def __init__(self, path: Path, reason: str) -> None:
        super().__init__(f"corrupt checkpoint file {path.name}: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True, slots=True)
class GenerationStatus:
    """Verification outcome of one stored generation."""

    generation: int
    filename: str
    ok: bool
    error: str | None = None


@dataclass(frozen=True, slots=True)
class LatestGood:
    """The newest verifiable generation, plus what was skipped to find it."""

    generation: int
    checkpoint: StreamCheckpoint
    #: Newer generations that failed verification, newest first.
    skipped: tuple[GenerationStatus, ...] = ()


class CheckpointStore:
    """Durable generations of one streamed run's checkpoints.

    One store directory belongs to one logical run; generation numbers
    increase monotonically (monotonicity survives restarts because the
    next number is derived from the files present).

    >>> import tempfile
    >>> store = CheckpointStore(tempfile.mkdtemp(), keep=2)
    >>> store.generations()
    ()
    """

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.keep = keep

    @property
    def directory(self) -> Path:
        return self._dir

    # ------------------------------------------------------------- inventory

    def generations(self) -> tuple[int, ...]:
        """Stored generation numbers, oldest first."""
        found = []
        for name in sorted(os.listdir(self._dir)):
            match = _GENERATION_RE.fullmatch(name)
            if match:
                found.append(int(match.group(1)))
        return tuple(sorted(found))

    def path_for(self, generation: int) -> Path:
        return self._dir / f"checkpoint-{generation:08d}.json"

    # ------------------------------------------------------------------ save

    def save(self, checkpoint: StreamCheckpoint) -> int:
        """Persist a new generation atomically; returns its number.

        After the rename, generations beyond ``keep`` are rotated away
        (oldest first).  Rotation failures are deliberately not caught:
        losing the ability to delete is a real operational fault.
        """
        existing = self.generations()
        generation = (existing[-1] + 1) if existing else 0
        payload = checkpoint.to_json()
        envelope = json.dumps(
            {
                "schema_version": STORE_SCHEMA_VERSION,
                "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
                "payload": payload,
            },
            sort_keys=True,
            separators=(",", ":"),  # no insignificant bytes: flips can't hide
        )
        final = self.path_for(generation)
        temp = final.with_name(final.name + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(envelope)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, final)
        self._fsync_directory()
        for old in existing[: max(0, len(existing) + 1 - self.keep)]:
            self.path_for(old).unlink(missing_ok=True)
        return generation

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform without dir-fsync
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ load

    def load(self, generation: int) -> StreamCheckpoint:
        """Load and verify one generation.

        Raises :class:`CheckpointIntegrityError` for unreadable or
        checksum-failing bytes, and lets the typed
        :class:`~repro.core.validation.CheckpointFormatError` /
        :class:`~repro.core.validation.CheckpointSchemaError` from payload
        parsing propagate.
        """
        path = self.path_for(generation)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointIntegrityError(path, "file does not exist") from None
        if not raw:
            raise CheckpointIntegrityError(path, "file is empty")
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointIntegrityError(
                path, f"envelope is not valid JSON ({exc})"
            ) from exc
        if not isinstance(envelope, dict) or set(envelope) != {
            "schema_version",
            "sha256",
            "payload",
        }:
            raise CheckpointIntegrityError(path, "envelope fields are malformed")
        if envelope["schema_version"] != STORE_SCHEMA_VERSION:
            raise CheckpointIntegrityError(
                path,
                f"unsupported store schema {envelope['schema_version']!r} "
                f"(expected {STORE_SCHEMA_VERSION})",
            )
        digest, payload = envelope["sha256"], envelope["payload"]
        if not isinstance(digest, str) or not _SHA256_HEX_RE.fullmatch(digest):
            raise CheckpointIntegrityError(path, "checksum field is malformed")
        if not isinstance(payload, str):
            raise CheckpointIntegrityError(path, "payload field is malformed")
        actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if actual != digest:
            raise CheckpointIntegrityError(
                path, f"checksum mismatch (stored {digest[:12]}…, actual {actual[:12]}…)"
            )
        return StreamCheckpoint.from_json(payload)

    # ------------------------------------------------------------ resilience

    def verify(self) -> tuple[GenerationStatus, ...]:
        """Verify every stored generation (oldest first), without raising."""
        statuses = []
        for generation in self.generations():
            try:
                self.load(generation)
            except (CheckpointIntegrityError, CheckpointFormatError, OSError) as exc:
                statuses.append(
                    GenerationStatus(
                        generation=generation,
                        filename=self.path_for(generation).name,
                        ok=False,
                        error=str(exc),
                    )
                )
            else:
                statuses.append(
                    GenerationStatus(
                        generation=generation,
                        filename=self.path_for(generation).name,
                        ok=True,
                    )
                )
        return tuple(statuses)

    def latest_good(self, below: int | None = None) -> LatestGood | None:
        """The newest generation that verifies, or ``None`` if none does.

        Corrupt newer generations are skipped (and reported in
        ``skipped``), never silently restored — the zero-silent-restores
        invariant the chaos campaign asserts.  With ``below``, only
        generations older than ``below`` are considered (the supervisor's
        fallback past a generation that loads but cannot be restored).
        """
        skipped: list[GenerationStatus] = []
        for generation in reversed(self.generations()):
            if below is not None and generation >= below:
                continue
            try:
                checkpoint = self.load(generation)
            except (CheckpointIntegrityError, CheckpointFormatError, OSError) as exc:
                skipped.append(
                    GenerationStatus(
                        generation=generation,
                        filename=self.path_for(generation).name,
                        ok=False,
                        error=str(exc),
                    )
                )
                continue
            return LatestGood(
                generation=generation, checkpoint=checkpoint, skipped=tuple(skipped)
            )
        return None
