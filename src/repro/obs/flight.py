"""The crash flight recorder: a bounded ring of the run's recent story.

A crashed run used to leave nothing behind — the whole artifact pipeline
(:meth:`~repro.obs.session.ObservationSession.write_artifacts`) runs at
*successful* exit.  The flight recorder is the post-mortem counterpart: a
bounded in-memory ring buffer of recent lifecycle spans, checkpoint
generations, and fault events that the resilience supervisor (and the
chaos harness, and the CLI's SIGTERM handler) dumps as canonical JSONL
the moment something dies.

Two pieces:

* :class:`FlightRecorder` — the ring itself.  Records are canonical
  JSON lines (sorted keys, no whitespace) with a global sequence number;
  when the ring is full the oldest record falls off and the drop is
  counted, never silent.  :meth:`FlightRecorder.dump` writes a header
  record (schema, reason, capacity, drop count, kept-sequence window)
  followed by the kept records, oldest first.
* :class:`FlightObserver` — a :class:`~repro.obs.tracing.LifecycleTracer`
  whose sink is the ring, so the ring's span records are the tracer's own
  lines, byte-identical to the corresponding lines of a full trace.  Close
  records read ``opened_at`` from the bin, so spans recorded after a
  crash/resume continue the pre-crash story exactly with no observer
  state carried over.

Crash/resume exactness: the supervisor marks the ring at every persisted
generation (:meth:`FlightRecorder.note_checkpoint`) and, when an attempt
dies and resumes from generation ``g``, rewinds the ring
(:meth:`FlightRecorder.note_recovery`) — span records emitted after
``g``'s mark are dropped, because the resumed attempt is about to replay
and re-record them.  The surviving span sequence is therefore always a
contiguous window of the *uninterrupted* run's trace, which is what the
chaos suite asserts.
"""

from __future__ import annotations

import json
import signal
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .tracing import LifecycleTracer, _encode

if TYPE_CHECKING:  # pragma: no cover
    from ..core.streaming import StreamSummary

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "SPAN_KINDS",
    "FlightObserver",
    "FlightRecorder",
    "install_signal_dump",
    "iter_flight_records",
]

#: Bumped whenever the dump layout changes incompatibly.
FLIGHT_SCHEMA_VERSION = 1

#: Record kinds that belong to the lifecycle-span story (and therefore
#: byte-match trace lines); everything else is flight-plane metadata.
SPAN_KINDS = frozenset(
    {"open", "place", "depart", "evict", "failure", "migrate", "close"}
)


class FlightRecorder:
    """Bounded ring of canonical JSONL records with a crash-dump exit.

    Everything is deterministic: sequence numbers are a plain counter,
    records carry no wall-clock time, and dumps render sorted-key JSON —
    two identical runs produce byte-identical post-mortems (the chaos
    report relies on this across worker counts).
    """

    def __init__(
        self, capacity: int = 256, *, path: str | Path | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._records: deque[tuple[int, str, str]] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0
        self.dumps = 0
        #: checkpoint generation -> last sequence number recorded before it
        self._marks: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._records)

    # ----------------------------------------------------------- recording

    def record_line(self, kind: str, line: str) -> int:
        """Append one already-canonical record line; returns its sequence."""
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._seq += 1
        self._records.append((self._seq, kind, line))
        return self._seq

    def record(self, record: dict[str, Any]) -> int:
        """Append one record (canonically encoded); returns its sequence."""
        return self.record_line(record["kind"], _encode(record))

    # ------------------------------------------------- supervisor protocol

    def note_checkpoint(self, generation: int) -> None:
        """A checkpoint generation was durably persisted.

        Marks the current sequence so a later resume from this generation
        can rewind the span story to exactly this point.
        """
        self._marks[generation] = self._seq
        self.record({"kind": "checkpoint", "generation": generation})

    def note_fault(self, error: BaseException, *, attempt: int) -> None:
        """An attempt died; record what killed it."""
        self.record(
            {
                "kind": "fault",
                "attempt": attempt,
                "error": type(error).__name__,
                "message": str(error),
            }
        )

    def note_recovery(self, generation: int) -> None:
        """Resuming from ``generation``: rewind spans past its mark.

        The resumed attempt replays events after the checkpoint and will
        re-record their spans; dropping the doomed attempt's tail keeps
        the ring's span sequence identical to the uninterrupted run's.
        Span records whose mark is unknown (the generation predates this
        recorder) are left alone.
        """
        mark = self._marks.get(generation)
        if mark is not None:
            kept = [
                entry
                for entry in self._records
                if entry[1] not in SPAN_KINDS or entry[0] <= mark
            ]
            self._records = deque(kept, maxlen=self.capacity)
        self.record({"kind": "recovery", "generation": generation})

    # ----------------------------------------------------------- exporting

    def lines(self) -> list[str]:
        """All kept record lines, oldest first."""
        return [line for _, _, line in self._records]

    def span_lines(self) -> list[str]:
        """Only the lifecycle-span records (byte-equal to trace lines)."""
        return [line for _, kind, line in self._records if kind in SPAN_KINDS]

    def render(self, *, reason: str) -> str:
        """The dump text: a header record, then the kept records."""
        seqs = [seq for seq, _, _ in self._records]
        header = {
            "kind": "flight",
            "schema": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "records": len(self._records),
            "seq_first": seqs[0] if seqs else None,
            "seq_last": seqs[-1] if seqs else None,
        }
        return "\n".join([_encode(header), *self.lines()]) + "\n"

    def dump(self, *, reason: str, path: str | Path | None = None) -> str:
        """Write the post-mortem JSONL; returns the dumped text.

        ``path`` falls back to the recorder's configured path; with
        neither set the text is only returned.  Each dump overwrites the
        previous one — the artifact is "the latest post-mortem", and the
        header's ``reason`` says why it exists.
        """
        text = self.render(reason=reason)
        target = Path(path) if path is not None else self.path
        if target is not None:
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        self.dumps += 1
        return text


def install_signal_dump(
    recorder: FlightRecorder,
    *,
    signum: int = signal.SIGTERM,
    reason: str = "sigterm",
) -> Callable[[], None]:
    """Dump the recorder's post-mortem when ``signum`` arrives, then die.

    Installs a handler (main thread only, like all ``signal.signal``
    calls) that writes the dump, restores the previous disposition, and
    re-raises the signal — the process still terminates with the status
    its parent expects, it just explains itself first.  Returns an
    ``uninstall`` callable that puts the previous handler back (no-op if
    someone else replaced the handler in the meantime).
    """
    previous = signal.getsignal(signum)

    def handler(signo: int, frame: Any) -> None:
        recorder.dump(reason=reason)
        signal.signal(signo, previous if callable(previous) else signal.SIG_DFL)
        signal.raise_signal(signo)

    signal.signal(signum, handler)

    def uninstall() -> None:
        if signal.getsignal(signum) is handler:
            signal.signal(signum, previous)

    return uninstall


def iter_flight_records(path: str | Path) -> list[dict[str, Any]]:
    """Parse a dumped post-mortem back into records (header first)."""
    out: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


class FlightObserver(LifecycleTracer):
    """A :class:`~repro.obs.tracing.LifecycleTracer` that writes into a
    :class:`FlightRecorder` ring.

    The hooks, and so the record rendering, are the tracer's own:
    ``recorder.span_lines()`` byte-matches the corresponding window of a
    full trace file, migrations included.  The ring keeps only the run's
    recent story, so it gets neither the trace header nor the summary
    trailer.  The observer checkpoints nothing: the ring outlives the
    attempt, and close records read ``opened_at`` from the bin.
    """

    def __init__(self, recorder: FlightRecorder) -> None:
        # LifecycleTracer.__init__ is skipped on purpose: the ring needs no
        # file, header or checkpoint count.  The hooks reach the ring through
        # _emit_line; finish and the checkpoint methods are replaced below.
        self.recorder = recorder

    def _emit_line(self, kind: str, line: str) -> None:
        self.recorder.record_line(kind, line)

    def finish(self, summary: "StreamSummary") -> None:
        """Write nothing: the ring takes no summary trailer."""

    def checkpoint_state(self) -> Any:
        return None

    def restore_state(self, state: Any) -> None:
        """Nothing to restore: :meth:`checkpoint_state` saves nothing."""
