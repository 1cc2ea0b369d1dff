"""The rows of a float64 matrix as text, with a share of them formatted by a
worker process on another CPU.

A call takes a function ``rows(start, stop)`` that forms those rows of a
``count x width`` float64 matrix, and a *style* ``(head, sep, tail)``. A
row's text is ``head + sep.join(value texts) + tail``, and a *job* is a run
of ``rows_per_job`` consecutive rows, the last one perhaps shorter. A
value's text is its ``repr`` (``nan``, ``inf``, ``-inf``), or, for a JSON
writer, json's spelling of the non-finite values (``NaN``, ``Infinity``,
``-Infinity``). So a CSV row is what ``csv.writer`` writes, and a JSON
array is what ``json.dumps`` writes.

Turning a double into its shortest round-trip text costs about a
microsecond in CPython, whichever formatter makes it, so a report of a
million floats spends most of its time here. :class:`RowTexts` lets a worker
process format jobs while the caller formats and writes. The worker is
``sys.executable -I -S`` running this file, which imports no third-party
module, so it starts in tens of milliseconds. It takes the width, the bytes
per job, the JSON flag and the style as arguments. Its input, the matrix's
bytes, and its output are unlinked temporary files in ``TMPDIR``, never
pipes, so it never waits on a caller that is busy with its own work. The
caller writes the input a block of :data:`BLOCK_VALUES` values at a time and
forms each job it formats itself when it reaches it; the worker reads one
job at a time, at its offset in the input. So neither process holds the
whole matrix. The bytes are the same on every path, and a worker that
cannot start, stops early or exits non-zero leaves its jobs to the caller.
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

# Values per block of rows that a call forms to write the worker's input,
# or one row when a row is longer.
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


def _work(source, sink, width: int, job_bytes: int, style: tuple[str, str, str], json: bool) -> None:
    """Format the jobs of the matrix whose bytes fill ``source``, a regular
    file, the last first. Each job is read with ``os.pread`` at its offset,
    so the matrix is never held whole, and its text goes to ``sink`` as one
    record as soon as it is made: its byte length, then the text."""
    fd = source.fileno()
    size = os.fstat(fd).st_size
    for start in reversed(range(0, size, job_bytes)):
        job = memoryview(os.pread(fd, min(job_bytes, size - start), start))
        text = _job_text(job, width, style, json).encode("ascii")
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
        count, width = texts._rows, texts._width
        try:
            with tempfile.TemporaryFile() as request:
                step = max(1, BLOCK_VALUES // width)
                for start in range(0, count, step):
                    request.write(texts._bytes(start, min(start + step, count)))
                request.flush()
                self.output = tempfile.TemporaryFile()
                self.process = subprocess.Popen(
                    [
                        sys.executable, "-I", "-S", os.path.abspath(__file__),
                        str(width), str(texts._job_bytes), str(int(texts._json)), *texts._style,
                    ],
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


_TAKES = (
    "RowTexts takes a row function whose blocks are 2-D, C-contiguous float64 matrices of the "
    "rows asked for and of its width, at least one column, rows_per_job >= 1 and an ASCII style "
    "with no NUL"
)


class RowTexts:
    """The texts of a float64 matrix's jobs, in order, some of them formatted
    by a worker.

    ``rows(start, stop)`` forms the rows in ``[start, stop)`` of a matrix of
    ``count`` rows of ``width`` values, as a 2-D, C-contiguous float64
    buffer such as an ``np.ndarray``, with the same bits on every call. Rows
    are formed only as they are written: a block of at most
    :data:`BLOCK_VALUES` values (or one longer row) at a time for the
    worker's input, and each job this process formats itself when it
    reaches it. A job is ``rows_per_job`` rows, and ``style`` is an ASCII
    ``(head, sep, tail)`` with no NUL. ``json`` picks json's spelling of
    non-finite values over ``repr``'s. Any other input raises
    ``ValueError``, as does a block that is not a 2-D, C-contiguous float64
    matrix of the rows asked for and of ``width`` columns.

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

    def __init__(self, rows, count: int, width: int, rows_per_job: int, style, json: bool = False) -> None:
        self._style = tuple(style)
        text = "".join(self._style)
        if not (count >= 0 and width >= 1 and rows_per_job >= 1 and text.isascii() and "\0" not in text):
            raise ValueError(_TAKES)
        self._source, self._rows, self._width = rows, count, width
        self._json, self._rows_per_job = json, rows_per_job
        self._job_bytes = 8 * width * rows_per_job
        self._count = -(-count // rows_per_job)
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
        """The bytes of the rows in ``[start, stop)``, which is never empty."""
        view = memoryview(self._source(start, stop))
        if not (
            view.format == "d" and view.ndim == 2 and view.shape == (stop - start, self._width)
            and view.c_contiguous
        ):
            raise ValueError(_TAKES)
        return view.cast("B")

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
    width, job_bytes, json = map(int, sys.argv[1:4])
    _work(sys.stdin.buffer, sys.stdout.buffer, width, job_bytes, tuple(sys.argv[4:7]), bool(json))
