"""The rows of a float64 matrix as text, with a share of them formatted by a
worker process on another CPU.

A call takes one 2-D, C-contiguous float64 matrix, or a :class:`RowSource`
that forms the rows of one on demand, and a *style* ``(head, sep, tail)``.
A row's text is ``head + sep.join(value texts) + tail``, and a *job* is a
run of ``rows_per_job`` consecutive rows, the last one perhaps shorter. A
value's text is its ``repr`` (``nan``, ``inf``, ``-inf``), or, for a JSON
writer, json's spelling of the non-finite values (``NaN``, ``Infinity``,
``-Infinity``). So a CSV row is what ``csv.writer`` writes, and a JSON
array is what ``json.dumps`` writes.

Turning a double into its shortest round-trip text costs about a
microsecond in CPython, whichever formatter makes it, so a report of a
million floats spends most of its time here. :class:`RowTexts` lets a worker
process format jobs while the caller formats and writes. The worker is
``sys.executable -I -S`` running this file, which imports no third-party
module, so it starts in tens of milliseconds. Its input and output are
unlinked temporary files in ``TMPDIR``, never pipes, so it never waits on a
caller that is busy with its own work. The caller writes the input a block
of :data:`BLOCK_VALUES` values at a time and forms each job it formats
itself when it reaches it; the worker reads one job at a time, at its
offset in the input. So neither process holds a row source's whole matrix. The
bytes are the same on every path, and a worker that cannot start, stops
early or exits non-zero leaves its jobs to the caller.
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

# Values per block of rows that a call asks of a row source to write the
# worker's input, or one row when a row is longer.
BLOCK_VALUES = 1 << 15

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
    then the matrix's bytes, :data:`BLOCK_VALUES` values at a time."""
    style = [text.encode("ascii") for text in texts._style]
    count, width = texts._rows, texts._width
    header = [int(texts._json), count * width, width, texts._job_bytes, *map(len, style)]
    sink.write(array("q", header).tobytes() + b"".join(style))
    step = max(1, BLOCK_VALUES // width)
    for start in range(0, count, step):
        sink.write(texts._bytes(start, min(start + step, count)))


def _work(source, sink) -> None:
    """Format the jobs of the call that :func:`_write_request` wrote to
    ``source``, a regular file, the last first. Each job is read with
    ``os.pread`` at its offset, so the matrix is never held whole, and its
    text goes to ``sink`` as one record as soon as it is made: its byte
    length, then the text."""
    fd = source.fileno()
    json, count, width, job_bytes, *lengths = array("q", os.pread(fd, 7 * 8, 0))
    offset, style = 7 * 8, []
    for length in lengths:
        style.append(os.pread(fd, length, offset).decode("ascii"))
        offset += length
    for start in reversed(range(0, 8 * count, job_bytes)):
        job = memoryview(os.pread(fd, min(job_bytes, 8 * count - start), offset + start))
        text = _job_text(job, width, tuple(style), bool(json)).encode("ascii")
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
            with tempfile.TemporaryFile() as request:
                _write_request(request, texts)
                request.flush()
                self.output = tempfile.TemporaryFile()
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


class RowSource:
    """The rows of a float64 matrix of ``count`` rows of ``width`` values,
    formed on demand: ``rows(start, stop)`` gives those in ``[start, stop)``
    as a 2-D, C-contiguous float64 buffer, with the same bits on every call.
    """

    def __init__(self, count: int, width: int, rows) -> None:
        self.count, self.width, self.rows = count, width, rows


_TAKES = (
    "RowTexts takes a 2-D, C-contiguous float64 matrix of at least one column, or a row source "
    "whose blocks are such matrices of its width, rows_per_job >= 1 and an ASCII style"
)


def _matrix_bytes(buffer, shape=None) -> tuple[memoryview, tuple[int, ...]]:
    """The bytes and shape of a 2-D, C-contiguous float64 buffer of at least
    one column, whose shape must be ``shape`` when that is given."""
    view = memoryview(buffer)
    if not (
        view.format == "d" and view.ndim == 2 and view.shape[1] and view.c_contiguous
        and shape in (None, view.shape)
    ):
        raise ValueError(_TAKES)
    # a view with no rows cannot be cast
    return view.cast("B") if view.nbytes else memoryview(b""), view.shape


class RowTexts:
    """The texts of a float64 matrix's jobs, in order, some of them formatted
    by a worker.

    ``matrix`` is a 2-D, C-contiguous float64 buffer of at least one column,
    such as an ``np.ndarray``, or a :class:`RowSource` of at least one
    column, whose rows are formed only as they are written: a block of at
    most :data:`BLOCK_VALUES` values (or one longer row) at a time for the
    worker's input, and each job this process formats itself when it
    reaches it. A job is
    ``rows_per_job`` rows, and ``style`` is an ASCII ``(head, sep, tail)``.
    ``json`` picks json's spelling of non-finite values over ``repr``'s. Any
    other input raises ``ValueError``, as does a block of a row source that
    is not a 2-D, C-contiguous float64 matrix of its width and of the rows
    asked for.

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
        self._style = tuple(style)
        if not (rows_per_job >= 1 and "".join(self._style).isascii()):
            raise ValueError(_TAKES)
        if isinstance(matrix, RowSource):
            if not (matrix.count >= 0 and matrix.width >= 1):
                raise ValueError(_TAKES)
            self._source, self._rows, self._width = matrix.rows, matrix.count, matrix.width
        else:
            self._source = None
            self._values, (self._rows, self._width) = _matrix_bytes(matrix)
        self._json, self._rows_per_job = json, rows_per_job
        self._job_bytes = 8 * self._width * rows_per_job
        self._count = -(-self._rows // rows_per_job)
        self._worker: _Worker | None = None

    def __enter__(self) -> RowTexts:
        total = self._rows * self._width
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

    def _bytes(self, start: int, stop: int) -> memoryview:
        """The bytes of the rows in ``[start, stop)``."""
        if self._source is None:
            return self._values[8 * self._width * start : 8 * self._width * stop]
        return _matrix_bytes(self._source(start, stop), (stop - start, self._width))[0]

    def _text(self, job: int) -> str:
        start = job * self._rows_per_job
        rows = self._bytes(start, min(start + self._rows_per_job, self._rows))
        return _job_text(rows, self._width, self._style, self._json)

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
