"""Placing archived NetLog documents on disk, in process or from a writer.

:func:`place` is the one implementation of how an archive document
reaches disk: write ``<path>.tmp``, ``os.replace`` it over ``path``,
then remove the visit's stale other-format sibling, so a visit is stored
in exactly one format.  :meth:`NetLogArchive.write_buffered
<repro.netlog.archive.NetLogArchive.write_buffered>` calls it directly;
inside :meth:`NetLogArchive.deferred
<repro.netlog.archive.NetLogArchive.deferred>` it hands each document to
a writer process instead, which is this module run by path::

    python -S -I placer.py PARENT_PID SUFFIX [SUFFIX ...]

Creating a named file is almost all of an archived visit's cost, and it
is kernel time the crawl need not wait for, so the writer spends it on
another CPU while the crawl goes on.  The module imports only the
standard library, so the writer starts in milliseconds.

Writer protocol.  The parent writes frames to the writer's stdin, each a
``<cII`` header ``(op, a, b)``:

* ``D`` — a document: ``a`` bytes of file-system-encoded path, then
  ``b`` bytes of document.  The writer places documents in arrival order
  and remembers the paths it could not place (an ``OSError``).
* ``F`` — a barrier: the writer answers on stdout with a ``<I`` length
  and the NUL-separated paths it failed to place since the last barrier.
  Frames are handled in order, so the answer also means every earlier
  document is on disk.

At EOF the writer exits 0.  A frame cut short by EOF is dropped: its
sender was stopped mid-write and recorded nothing for that document.
The writer ignores SIGINT and SIGTERM (its parent drains on both and
needs the writer to flush through), and it checks ``os.getppid()``
before each document, so it places nothing once its parent has died.
"""

from __future__ import annotations

import os
import signal
import struct
import sys
from collections.abc import Callable, Sequence

#: Frame header: operation byte, then two little-endian lengths.
_HEAD = struct.Struct("<cII")
_DOCUMENT = b"D"
_BARRIER = b"F"
#: Barrier answer header: the byte length of the failed-path list.
_ANSWER = struct.Struct("<I")

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


class ArchiveWriterError(RuntimeError):
    """The writer process died, or its pipe broke, with documents queued.

    Deliberately not an :class:`OSError`: callers retry OSErrors from
    archive writes, and a lost writer must stop the run instead of
    leaving silent holes behind rows that are about to be committed.
    """


def place(path: str, document: bytes, suffixes: Sequence[str]) -> None:
    """Write ``document`` to ``path`` atomically; drop stale siblings.

    ``suffixes`` are the archive's format suffixes: once ``path`` is in
    place, the same visit's document under any other suffix is removed.
    Raises :class:`OSError` when the document cannot be placed.
    """
    tmp = path + ".tmp"
    try:
        fd = os.open(tmp, _CREATE, 0o666)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, _CREATE, 0o666)
    try:
        view = memoryview(document)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
    os.replace(tmp, path)
    for suffix in suffixes:
        if path.endswith(suffix):
            stem = path[: -len(suffix)]
            for other in suffixes:
                if other != suffix:
                    try:
                        os.unlink(stem + other)
                    except FileNotFoundError:
                        pass
            return


class PlacerProcess:
    """The parent's end of one writer process.

    :meth:`submit` returns once the document is in the pipe; a full pipe
    (about 64 KB) blocks it until the writer catches up, which bounds
    what is in flight.  :meth:`barrier` returns once every submitted
    document is placed.  Both are thread-safe.  Once the writer is lost,
    every call raises :class:`ArchiveWriterError`.
    """

    def __init__(self, suffixes: Sequence[str]) -> None:
        import subprocess
        import threading

        self._process = subprocess.Popen(
            [
                sys.executable, "-S", "-I", os.path.abspath(__file__),
                str(os.getpid()), *suffixes,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        self._lock = threading.Lock()
        self._lost: str | None = None

    @property
    def pid(self) -> int:
        return self._process.pid

    def submit(self, path: str, document: bytes) -> None:
        """Queue one document for placement at ``path``."""
        name = os.fsencode(path)
        frame = b"".join(
            (_HEAD.pack(_DOCUMENT, len(name), len(document)), name, document)
        )
        self._exchange(lambda: self._send(frame))

    def barrier(self) -> list[str]:
        """Wait until every submitted document is placed.

        Returns the paths the writer could not place since the last
        barrier.
        """
        answer = self._exchange(self._ask)
        return [os.fsdecode(name) for name in answer.split(b"\0")] if answer else []

    def close(self) -> None:
        """Close the pipe and wait for the writer to place what is queued.

        Raises :class:`ArchiveWriterError` if the writer did not exit
        cleanly and no earlier call has reported it.
        """
        reported = self._lost is not None
        self._process.stdin.close()
        status = self._process.wait()
        self._process.stdout.close()
        if status != 0 and not reported:
            raise ArchiveWriterError(
                f"archive writer (pid {self.pid}) exited with status {status}"
            )

    def _exchange(self, talk: Callable[[], bytes | None]) -> bytes | None:
        """Run one exchange with the writer under the lock."""
        with self._lock:
            if self._lost is not None:
                raise ArchiveWriterError(self._lost)
            try:
                return talk()
            except OSError as exc:
                self._lose(f"archive writer (pid {self.pid}) is gone: {exc}")
                raise ArchiveWriterError(self._lost) from exc
            except BaseException:
                # Interrupted (a signal) with half a frame sent or an
                # answer unread: end the stream, so the writer places
                # every whole document, drops the cut one and exits.
                self._lose("archive writer stream was interrupted mid-exchange")
                raise

    def _ask(self) -> bytes:
        self._send(_HEAD.pack(_BARRIER, 0, 0))
        (size,) = _ANSWER.unpack(self._receive(_ANSWER.size))
        return self._receive(size)

    def _lose(self, reason: str) -> None:
        self._lost = reason
        try:
            self._process.stdin.close()
        except OSError:
            pass

    def _send(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._process.stdin.write(view):]

    def _receive(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            chunk = self._process.stdout.read(size - len(data))
            if not chunk:
                raise BrokenPipeError("the writer closed its answer pipe")
            data += chunk
        return data


def serve(parent: int, suffixes: Sequence[str], source, sink) -> int:
    """The writer loop: place documents, answer barriers, exit at EOF."""
    failed: list[bytes] = []
    read = source.read
    while True:
        head = read(_HEAD.size)
        if len(head) < _HEAD.size:
            return 0
        op, name_size, document_size = _HEAD.unpack(head)
        if op == _BARRIER:
            answer = b"\0".join(failed)
            failed.clear()
            sink.write(_ANSWER.pack(len(answer)) + answer)
            sink.flush()
            continue
        if op != _DOCUMENT:
            print(f"placer: unknown frame {op!r}", file=sys.stderr)
            return 2
        name = read(name_size)
        document = read(document_size)
        if len(name) + len(document) < name_size + document_size:
            return 0
        if os.getppid() != parent:
            return 0
        try:
            place(os.fsdecode(name), document, suffixes)
        except OSError:
            failed.append(name)


def main(argv: Sequence[str]) -> int:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    parent, *suffixes = argv
    return serve(int(parent), suffixes, sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
