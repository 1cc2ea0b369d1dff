"""Rows of float64 values as text, with a share of them formatted by a worker
process on another CPU.

A *job* is a C-contiguous float64 buffer, read as rows of ``width`` values,
and a *style* ``(head, sep, tail)``. The job's text is, row by row,
``head + sep.join(value texts) + tail``. A value's text is its ``repr``
(``nan``, ``inf``, ``-inf``), or, for a JSON writer, json's spelling of the
non-finite values (``NaN``, ``Infinity``, ``-Infinity``). So a CSV row is
what ``csv.writer`` writes, and a JSON array is what ``json.dumps`` writes.

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
    if not view.nbytes:
        return ""
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


def _ints(source, count: int) -> array:
    values = array("q")
    values.frombytes(source.read(8 * count))
    return values


def _write_request(sink, jobs: list, json: bool) -> None:
    """Write jobs for :func:`_work`: a count, then the header integers (json
    flag, style count, three text lengths per style, then values, width and
    style index per job), the style texts, and the float64 bytes."""
    styles: dict[tuple[str, str, str], int] = {}
    fields = []
    for view, width, style in jobs:
        fields += [view.nbytes // 8, width, styles.setdefault(style, len(styles))]
    texts = [text.encode("ascii") for style in styles for text in style]
    header = array("q", [int(json), len(styles), *map(len, texts), *fields])
    sink.write(array("q", [len(header)]).tobytes())
    sink.write(header.tobytes())
    sink.write(b"".join(texts))
    for view, _, _ in jobs:
        sink.write(view)


def _work(source, sink) -> None:
    """Format the jobs that :func:`_write_request` wrote to ``source``, the
    last first. Each job's text goes to ``sink`` as one record as soon as it
    is made: its byte length, then the text."""
    header = _ints(source, _ints(source, 1)[0])
    json, n_styles = header[:2]
    texts = [source.read(size).decode("ascii") for size in header[2 : 2 + 3 * n_styles]]
    styles = list(zip(texts[0::3], texts[1::3], texts[2::3]))
    fields = header[2 + 3 * n_styles :]
    values = [source.read(8 * count) for count in fields[0::3]]
    for job in reversed(range(len(values))):
        width, style = fields[3 * job + 1 : 3 * job + 3]
        text = _job_text(memoryview(values[job]), width, styles[style], bool(json)).encode("ascii")
        sink.write(array("q", [len(text)]).tobytes() + text)
        sink.flush()


class _Worker:
    """A worker process over every job, which it formats from the last down,
    and what the caller has read of its records."""

    def __init__(self, jobs: list, json: bool) -> None:
        import subprocess
        import tempfile

        self.count = len(jobs)
        # the byte offset and length of each finished job's text, from the last
        self.records: list[tuple[int, int]] = []
        self._end = 0
        self.process = self.output = None
        try:
            self.output = tempfile.TemporaryFile()
            with tempfile.TemporaryFile() as request:
                _write_request(request, jobs, json)
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
    """The texts of float64 jobs, in order, some of them formatted by a
    worker.

    ``jobs`` is a list of ``(buffer, width, style)``: a C-contiguous float64
    buffer, such as an ``np.ndarray``, whose value count is a multiple of
    ``width``, and an ASCII ``(head, sep, tail)``. ``json`` picks json's
    spelling of non-finite values over ``repr``'s.

    Use it as a context manager: entering starts the worker, if any, and
    iterating yields each job's text in order. Leaving the block kills and
    reaps the worker if it still runs, also on an early exit.

    One worker starts when the jobs hold at least :data:`MIN_VALUES` values
    and this process may run on more than one CPU (``os.sched_getaffinity``).
    It formats the jobs from the last down, while this process takes them in
    order and formats each job the worker has not finished yet itself. So
    the two meet where their wall times meet, wherever the caller spends its
    own time, and the worker is then killed. A worker that fails leaves its
    unfinished jobs to this process.
    """

    def __init__(self, jobs, json: bool = False) -> None:
        self._jobs = [(memoryview(buffer).cast("B"), width, tuple(style)) for buffer, width, style in jobs]
        for view, width, style in self._jobs:
            if width < 1 or view.nbytes % (8 * width) or not "".join(style).isascii():
                raise ValueError("a job needs whole rows of float64 values and an ASCII style")
        self._json = json
        self._worker: _Worker | None = None

    def __enter__(self) -> RowTexts:
        total = sum(view.nbytes for view, _, _ in self._jobs) // 8
        # os.pread is missing on Windows, where records could not be read
        if total and total >= MIN_VALUES and _cpus() > 1 and hasattr(os, "pread"):
            self._worker = _Worker(self._jobs, self._json)
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap the worker if it still runs and drop its files."""
        if self._worker is not None:
            self._worker.discard()
            self._worker = None

    def _text(self, job: int) -> str:
        return _job_text(*self._jobs[job], self._json)

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
        while job < len(self._jobs):
            yield self._text(job)
            job += 1


if __name__ == "__main__":
    _work(sys.stdin.buffer, sys.stdout.buffer)
