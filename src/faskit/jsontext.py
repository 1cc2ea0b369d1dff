"""JSON text with the bytes of ``json.dumps(value, indent=2)``, in pieces.

With an ``indent``, ``json.dumps`` runs json's pure-Python encoder, which
passes every number through several generator frames and builds the whole
text before it returns. :func:`indented_chunks` writes the same text as a
stream of pieces instead. A list, tuple or dict that holds no container goes
through json's C encoder in one call, whose item separator carries the
newline and indent; only the containers above those leaves are walked in
Python. A report's large float vectors, such as the oracle's frontier
deltas, are such leaves. An ``np.ndarray`` is written as the list its
``tolist()`` gives, so a report can hold its vectors as arrays and pay for
their Python floats one vector at a time, only when it is written.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

import numpy as np

_INDENT = "  "
_CONTAINERS = (list, tuple, dict, np.ndarray)


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


def indented_chunks(value, depth: int = 0) -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2)``, in pieces.

    ``depth`` is the indent level ``value`` sits at. Non-str keys are
    coerced as json coerces them, an ``np.ndarray`` is written as its
    ``tolist()``, and a value json cannot encode raises ``TypeError``.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
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
