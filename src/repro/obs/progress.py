"""Live campaign progress on stderr: visits/s, ETA, error rate.

The paper's crawls ran for weeks; the only signal that one had silently
stalled was the absence of new rows.  :class:`ProgressLine` is the
antidote for interactive runs: a single carriage-return line on
**stderr** (never stdout — results stay machine-parseable) updated at
most every ``min_interval_s``, plus one final newline-terminated summary
so logs keep a durable record.

The live line is suppressed when stderr is not a TTY (CI logs would
otherwise fill with ``\\r`` frames); the final summary always prints.
Thread-safe, so a caller may report completions from any thread.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import TextIO


def _format_eta(seconds: float) -> str:
    if seconds < 0 or not seconds < float("inf"):
        return "--"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressLine:
    """One live progress line for a campaign of ``total`` visits."""

    def __init__(
        self,
        total: int,
        *,
        stream: TextIO | None = None,
        min_interval_s: float = 0.2,
        live: bool | None = None,
    ) -> None:
        self.total = max(0, total)
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        # Live \r updates only on a TTY unless forced.
        self.live = (
            live
            if live is not None
            else bool(getattr(self.stream, "isatty", lambda: False)())
        )
        self.done = 0
        self.errors = 0
        self._started = time.monotonic()
        self._last_render = 0.0
        self._lock = threading.Lock()
        self._line_open = False

    def update(self, *, error: bool = False) -> None:
        """Record one finished visit; re-render the live line if due."""
        with self._lock:
            self.done += 1
            if error:
                self.errors += 1
            if not self.live:
                return
            now = time.monotonic()
            if now - self._last_render < self.min_interval_s:
                return
            self._last_render = now
            self.stream.write("\r" + self._render(now) + "\x1b[K")
            self.stream.flush()
            self._line_open = True

    def _render(self, now: float) -> str:
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else float("inf")
        error_rate = (self.errors / self.done * 100.0) if self.done else 0.0
        percent = (self.done / self.total * 100.0) if self.total else 100.0
        return (
            f"visits {self.done}/{self.total} ({percent:.1f}%) · "
            f"{rate:.1f}/s · ETA {_format_eta(eta)} · "
            f"errors {error_rate:.1f}%"
        )

    def finish(self) -> None:
        """Close the live line and print the durable summary."""
        with self._lock:
            if self._line_open:
                self.stream.write("\r\x1b[K")
                self._line_open = False
            self.stream.write(self._render(time.monotonic()) + "\n")
            self.stream.flush()
