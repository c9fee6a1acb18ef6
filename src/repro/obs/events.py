"""The span event stream: one JSONL line per span start or end.

The recorder mirrors every span ``start`` and ``end`` to an
:class:`EventSink`.  A traced run writes them to ``events-<id>.jsonl``
through :class:`JsonlEventSink`.  Unlike the manifest, which is written
once at the end, the stream is flushed as it goes, so a killed run
still leaves its timeline behind.  The stream has no end marker: a
finished run is the one with a ``run-<id>.json`` manifest next to it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Protocol


class EventSink(Protocol):
    """Anything that can receive recorder events."""

    def emit(self, event: dict[str, object]) -> None: ...  # pragma: no cover

    def close(self) -> None: ...  # pragma: no cover


class JsonlEventSink:
    """Writes one JSON object per recorder event to a file.

    The file handle is flushed every ``flush_every`` events and on
    close, so a crashed run loses at most its last unflushed batch.
    """

    def __init__(self, path: Path | str, flush_every: int = 32):
        if flush_every < 1:
            raise ValueError(f"flush_every must be positive: {flush_every!r}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._flush_every = flush_every
        self._pending = 0
        self._closed = False

    def emit(self, event: dict[str, object]) -> None:
        if self._closed:
            return
        json.dump(event, self._fh, separators=(",", ":"), default=str)
        self._fh.write("\n")
        self._pending += 1
        if self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.flush()
            self._fh.close()


class ListEventSink:
    """Collects events in memory; the sink used by tests."""

    def __init__(self) -> None:
        self.events: list[dict[str, object]] = []
        self.closed = False

    def emit(self, event: dict[str, object]) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


def read_events(path: Path | str) -> list[dict[str, object]]:
    """Parse a JSONL event stream back into a list of event dicts.

    A truncated *final* line — the signature of a run killed mid-write —
    is tolerated and dropped, so the timeline of a crashed run stays
    readable.  A malformed line anywhere else means the file is corrupt,
    not torn, and still raises.
    """
    events: list[dict[str, object]] = []
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for index, line in enumerate(lines):
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if any(later for later in lines[index + 1:]):
                raise
            break  # torn tail write; keep the parsed prefix
    return events
