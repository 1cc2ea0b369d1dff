"""JSON text with the bytes of ``json.dumps(value, indent=2)``, in pieces.

With an ``indent``, ``json.dumps`` runs json's pure-Python encoder, which
passes every number through several generator frames and builds the whole
text before it returns. :func:`indented_chunks` writes the same text as a
stream of pieces instead. A list, tuple or dict that holds no container goes
through json's C encoder in one call, whose item separator carries the
newline and indent; only the containers above those are walked in Python.

A :class:`Rows` is a list of objects that share their keys, kept as columns:
a report's ``specs`` blocks and the oracle's ``frontier`` blocks. It is
written :data:`ROWS_PER_BLOCK` rows at a time. Each column of a block
becomes its JSON texts in one pass, and each row is one ``%`` of a row
template that the keys and the depth fix.

The text of a "floats" column, such as a frontier's deltas, goes through
one :class:`faskit.floattext.RowTexts` per Rows, which forms the column's
rows with :meth:`Rows.floats` and gives each row's text as its own job, so
the column is formed a row, or a bounded block of rows, at a time, never
whole. When the column holds at least ``floattext.MIN_VALUES`` values and
this process may run on more than one CPU, one worker process
(``sys.executable -I -S`` on the ``floattext`` file, fed through unlinked
temporary files in ``TMPDIR``) formats its rows from the last one back
while this process writes from the first. The bytes do not change, and a
worker that fails leaves its rows to this process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

_INDENT = "  "

# Rows per block of a Rows: one block's texts are built, joined and yielded
# at a time, so a large list never stands as one string. A block takes about
# 2.5 KiB of working memory a row; blocks of 256 rows wrote an estimate
# report's spec rows faster than blocks of 1024 did, and at a lower peak.
ROWS_PER_BLOCK = 256


class Rows:
    """A JSON array of objects that share their keys, kept as columns.

    A subclass sets ``fields``, the ``(key, kind)`` of each member in the
    order the objects hold them, and gives ``len()``, :meth:`block` and,
    when it has a "floats" column, :meth:`floats`.
    ``kind`` says what a column holds and how it is spelled:

    - "int": ints, as an integer array;
    - "bool": a bool array;
    - "str": strs, in a list or an object array;
    - "float": a float64 array, with NaN written ``NaN`` as json writes it;
    - "float?": a float64 array whose NaN stands for None, written ``null``;
    - "ints": lists of ints;
    - "floats": a 2-D float64 array of at least one column, each row
      written as a list; a Rows holds at most one such column, whose rows
      come from :meth:`floats`, not :meth:`block`, since they may be long;
    - "interval": an (n, 2) float64 array of ``[lo, hi]`` pairs, where a
      NaN ``lo`` stands for None, written ``null``.

    Iterating yields each row as the dict json would write the same way: a
    report that holds a Rows renders and serializes as one that holds
    ``list(rows)``. It takes :data:`ROWS_PER_BLOCK` rows at a time, or one
    when a "floats" column is there, whose rows may be long.
    """

    fields: tuple[tuple[str, str], ...] = ()

    def __len__(self) -> int:
        raise NotImplementedError

    def block(self, start: int, stop: int) -> list:
        """One column per field, for the rows in ``[start, stop)``; a
        "floats" column's is None."""
        raise NotImplementedError

    def floats(self, start: int, stop: int) -> np.ndarray:
        """The "floats" column, for the rows in ``[start, stop)``: a new
        2-D, C-contiguous float64 array whose rows have the same bits
        whatever run of rows they are formed in."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[dict]:
        keys = [key for key, _ in self.fields]
        step = 1 if any(kind == "floats" for _, kind in self.fields) else ROWS_PER_BLOCK
        for start in range(0, len(self), step):
            stop = min(start + step, len(self))
            values = [
                _VALUES[kind](self.floats(start, stop) if kind == "floats" else c)
                for (_, kind), c in zip(self.fields, self.block(start, stop))
            ]
            for row in zip(*values):
                yield dict(zip(keys, row))


def _floats(column: np.ndarray, nan: str) -> list[str]:
    texts = list(map(float.__repr__, column.tolist()))
    for i in np.flatnonzero(~np.isfinite(column)).tolist():
        value = column[i]
        texts[i] = nan if value != value else "Infinity" if value > 0 else "-Infinity"
    return texts


def _int_lists(column: list, depth: int) -> list[str]:
    head, sep, tail = _array_style(depth)
    return [head + sep.join(map(str, v)) + tail if v else "[]" for v in column]


def _intervals(column: np.ndarray, depth: int) -> list[str]:
    head, sep, tail = _array_style(depth)
    lows, highs = _floats(column[:, 0], "null"), _floats(column[:, 1], "NaN")
    return [lo if lo == "null" else head + lo + sep + hi + tail for lo, hi in zip(lows, highs)]


# How a column of each kind becomes its values' JSON texts at a depth.
_TEXTS = {
    "int": lambda c, depth: list(map(str, c.tolist())),
    "bool": lambda c, depth: ["true" if v else "false" for v in c.tolist()],
    "str": lambda c, depth: list(map(encode_basestring_ascii, c)),
    "float": lambda c, depth: _floats(c, "NaN"),
    "float?": lambda c, depth: _floats(c, "null"),
    "ints": _int_lists,
    "interval": _intervals,
}

# How a column of each kind becomes the values json.loads would give back.
_VALUES = {
    "int": np.ndarray.tolist,
    "bool": np.ndarray.tolist,
    "str": list,
    "float": np.ndarray.tolist,
    "float?": lambda c: [None if v != v else v for v in c.tolist()],
    "ints": list,
    "floats": lambda c: map(np.ndarray.tolist, c),  # a row of Python floats at a time
    "interval": lambda c: [None if lo != lo else [lo, hi] for lo, hi in c.tolist()],
}

_CONTAINERS = (list, tuple, dict, Rows)


@functools.cache
def _leaf_encoder(depth: int) -> json.JSONEncoder:
    """json's C encoder for a container at ``depth`` that holds no container.

    Its item separator carries the newline and indent that ``indent=2``
    puts between items; with ``indent`` None, json takes its C path.
    """
    return json.JSONEncoder(separators=(",\n" + _INDENT * (depth + 1), ": "))


def _scalar(value) -> str:
    """A scalar as ``json.dumps`` writes it."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array_style(depth: int) -> tuple[str, str, str]:
    """The (head, sep, tail) of a non-empty array's text at ``depth``."""
    inner = "\n" + _INDENT * (depth + 1)
    return "[" + inner, "," + inner, "\n" + _INDENT * depth + "]"


def _rows_chunks(rows: Rows, depth: int) -> Iterator[str]:
    """The text of ``json.dumps(list(rows), indent=2)`` at ``depth``, one
    block of rows per piece. A "floats" column goes to the float writer as
    :meth:`Rows.floats`, which it calls as it writes the rows, and each row is
    then three pieces, so that the text of its floats, the middle one, is
    never copied."""
    count = len(rows)
    if not count:
        yield "[]"
        return
    head, sep, tail = _array_style(depth)
    member = "\n" + _INDENT * (depth + 2)
    # json escapes a NUL in a key, so a raw one marks where the floats go
    template = "{" + member + ("," + member).join(
        encode_basestring_ascii(key).replace("%", "%%") + (": \0" if kind == "floats" else ": %s")
        for key, kind in rows.fields
    ) + "\n" + _INDENT * (depth + 1) + "}"
    before, floats, after = template.partition("\0")
    kinds = [kind for _, kind in rows.fields]
    source = contextlib.nullcontext(())
    if floats:
        # imported here, so that a process that writes no floats loads no worker code
        from .floattext import RowTexts

        at = kinds.index("floats")
        # the column's width, from its first row
        width = rows.floats(0, 1).shape[1]
        source = RowTexts(rows.floats, count, width, 1, _array_style(depth + 2), json=True)
    with source as texts:
        texts = iter(texts)
        for start in range(0, count, ROWS_PER_BLOCK):
            columns = rows.block(start, min(start + ROWS_PER_BLOCK, count))
            values = zip(*(
                _TEXTS[kind](c, depth + 2) for kind, c in zip(kinds, columns) if kind != "floats"
            ))
            lead = head if start == 0 else sep
            if not floats:
                yield lead + sep.join(map(template.__mod__, values))
                continue
            for row in values:
                yield lead + before % row[:at]
                yield next(texts)
                yield after % row[at:]
                lead = sep
    yield tail


def indented_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in pieces.

    ``depth`` is the indent level ``value`` sits at. Non-str keys are
    coerced as json coerces them, a :class:`Rows` is written as the list of
    its rows, and a value json cannot encode, such as an ``np.ndarray``,
    raises ``TypeError``. Closing the generator early kills and reaps any
    float-formatting worker it started.
    """
    if isinstance(value, Rows):
        yield from _rows_chunks(value, depth)
        return
    if not isinstance(value, _CONTAINERS):
        yield _scalar(value)
        return
    is_dict = isinstance(value, dict)
    if not value:
        yield "{}" if is_dict else "[]"
        return
    inner = "\n" + _INDENT * (depth + 1)
    outer = "\n" + _INDENT * depth
    items = value.values() if is_dict else value
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        text = _leaf_encoder(depth).encode(value)
        yield text[0] + inner
        yield text[1:-1]
        yield outer + text[-1]
        return
    separator = ("{" if is_dict else "[") + inner
    for key, item in value.items() if is_dict else enumerate(value):
        head = separator
        if is_dict:
            head += encode_basestring_ascii(key if isinstance(key, str) else _scalar(key)) + ": "
        if isinstance(item, _CONTAINERS):
            yield head
            yield from indented_chunks(item, depth + 1)
        else:
            yield head + _scalar(item)
        separator = "," + inner
    yield outer + ("}" if is_dict else "]")
