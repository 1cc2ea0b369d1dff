"""The rows of a float64 matrix as text, with a share of them formatted by a
worker process on another CPU.

A call takes one 2-D, C-contiguous float64 matrix and a *style*
``(head, sep, tail)``. A row's text is ``head + sep.join(value texts) +
tail``, and a *job* is a run of ``rows_per_job`` consecutive rows, the last
one perhaps shorter. A value's text is its ``repr`` (``nan``, ``inf``,
``-inf``), or, for a JSON writer, json's spelling of the non-finite values
(``NaN``, ``Infinity``, ``-Infinity``). So a CSV row is what ``csv.writer``
writes, and a JSON array is what ``json.dumps`` writes.

Turning a double into its shortest round-trip text costs about a
microsecond in CPython, whichever formatter makes it, so a report of a
million floats spends most of its time here. :class:`RowTexts` lets a worker
process format jobs while the caller formats and writes. The worker is
``sys.executable -I -S`` running this file, which imports no third-party
module, so it starts in tens of milliseconds. Its input and output are
unlinked temporary files in ``TMPDIR``, never pipes, so it never waits on a
caller that is busy with its own work. The bytes are the same on every path,
and a worker that cannot start, stops early or exits non-zero leaves its
jobs to the caller.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from itertools import repeat

# Values below which a call formats every job in process: under about 2^16
# values, starting a worker costs about what it saves.
MIN_VALUES = 1 << 16

_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _job_text(view: memoryview, width: int, style: tuple[str, str, str], json: bool) -> str:
    """The text of one job, from its bytes ``view``."""
    head, sep, tail = style
    rows = view.cast("d", [view.nbytes // 8 // width, width]).tolist()
    texts = map(map, repeat(repr), rows)
    # a sum of finite values can overflow to inf; that only takes the
    # spelling path, which gives the same text
    if json and not math.isfinite(sum(map(sum, rows))):
        texts = ([_JSON_SPELLING.get(text, text) for text in row] for row in texts)
    return head + (tail + head).join(map(sep.join, texts)) + tail


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_request(sink, texts: RowTexts) -> None:
    """Write a call for :func:`_work`: seven integers (json flag, value
    count, row width, bytes per job and the three style lengths), the style,
    then the matrix's bytes."""
    style = [text.encode("ascii") for text in texts._style]
    values = texts._values
    header = [int(texts._json), values.nbytes // 8, texts._width, texts._job_bytes, *map(len, style)]
    sink.write(array("q", header).tobytes() + b"".join(style))
    sink.write(values)


def _work(source, sink) -> None:
    """Format the jobs of the call that :func:`_write_request` wrote to
    ``source``, the last first. Each job's text goes to ``sink`` as one
    record as soon as it is made: its byte length, then the text."""
    json, count, width, job_bytes, *lengths = array("q", source.read(7 * 8))
    style = tuple(source.read(length).decode("ascii") for length in lengths)
    values = memoryview(source.read(8 * count))
    for start in reversed(range(0, values.nbytes, job_bytes)):
        text = _job_text(values[start : start + job_bytes], width, style, bool(json)).encode("ascii")
        sink.write(array("q", [len(text)]).tobytes() + text)
        sink.flush()


class _Worker:
    """A worker process over every job, which it formats from the last down,
    and what the caller has read of its records."""

    def __init__(self, texts: RowTexts) -> None:
        import subprocess
        import tempfile

        self.count = texts._count
        # the byte offset and length of each finished job's text, from the last
        self.records: list[tuple[int, int]] = []
        self._end = 0
        self.process = self.output = None
        try:
            self.output = tempfile.TemporaryFile()
            with tempfile.TemporaryFile() as request:
                _write_request(request, texts)
                request.flush()
                request.seek(0)
                self.process = subprocess.Popen(
                    [sys.executable, "-I", "-S", os.path.abspath(__file__)],
                    stdin=request, stdout=self.output, stderr=subprocess.DEVNULL,
                )
        except OSError:
            pass  # no process: the caller formats every job itself

    def frontier(self) -> int:
        """The lowest job from which this worker has finished every job.

        Reads with ``os.pread``: the worker writes through the same open
        file, so moving its offset would move where the worker writes."""
        if self.process is not None:
            fd = self.output.fileno()
            size = os.fstat(fd).st_size
            while len(self.records) < self.count and self._end + 8 <= size:
                length = array("q", os.pread(fd, 8, self._end))[0]
                if not 0 <= length <= size - self._end - 8:
                    break
                self.records.append((self._end + 8, length))
                self._end += 8 + length
        return self.count - len(self.records)

    def text(self, job: int) -> str:
        """The text of a finished job."""
        offset, length = self.records[self.count - 1 - job]
        return os.pread(self.output.fileno(), length, offset).decode("ascii")

    def close(self) -> None:
        """Kill the worker if it still runs, reap it, and keep its records."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()

    def discard(self) -> None:
        self.close()
        if self.output is not None:
            self.output.close()


class RowTexts:
    """The texts of a float64 matrix's jobs, in order, some of them formatted
    by a worker.

    ``matrix`` is a 2-D, C-contiguous float64 buffer of at least one column,
    such as an ``np.ndarray``; a job is ``rows_per_job`` of its rows, and
    ``style`` is an ASCII ``(head, sep, tail)``. ``json`` picks json's
    spelling of non-finite values over ``repr``'s. Any other input raises
    ``ValueError``.

    Use it as a context manager: entering starts the worker, if any, and
    iterating yields each job's text in order. Leaving the block kills and
    reaps the worker if it still runs, also on an early exit.

    One worker starts when the matrix holds at least :data:`MIN_VALUES`
    values and this process may run on more than one CPU
    (``os.sched_getaffinity``). It formats the jobs from the last down,
    while this process takes them in order and formats each job the worker
    has not finished yet itself. So the two meet where their wall times
    meet, wherever the caller spends its own time, and the worker is then
    killed. A worker that fails leaves its unfinished jobs to this process.
    """

    def __init__(self, matrix, rows_per_job: int, style, json: bool = False) -> None:
        view, self._style = memoryview(matrix), tuple(style)
        if not (
            view.format == "d" and view.ndim == 2 and view.shape[1] and view.c_contiguous
            and rows_per_job >= 1 and "".join(self._style).isascii()
        ):
            raise ValueError(
                "RowTexts takes a 2-D, C-contiguous float64 matrix, rows_per_job >= 1 and an ASCII style"
            )
        # a view with no rows cannot be cast
        self._values = view.cast("B") if view.nbytes else memoryview(b"")
        self._width, self._json = view.shape[1], json
        self._job_bytes = 8 * self._width * rows_per_job
        self._count = -(-self._values.nbytes // self._job_bytes)
        self._worker: _Worker | None = None

    def __enter__(self) -> RowTexts:
        total = self._values.nbytes // 8
        # os.pread is missing on Windows, where records could not be read
        if total and total >= MIN_VALUES and _cpus() > 1 and hasattr(os, "pread"):
            self._worker = _Worker(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap the worker if it still runs and drop its files."""
        if self._worker is not None:
            self._worker.discard()
            self._worker = None

    def _text(self, job: int) -> str:
        start = job * self._job_bytes
        return _job_text(self._values[start : start + self._job_bytes], self._width, self._style, self._json)

    def __iter__(self):
        job, worker = 0, self._worker
        if worker is not None:
            while job < worker.frontier():
                yield self._text(job)
                job += 1
            worker.close()
            while job < worker.count:
                yield worker.text(job)
                job += 1
        while job < self._count:
            yield self._text(job)
            job += 1


if __name__ == "__main__":
    _work(sys.stdin.buffer, sys.stdout.buffer)
