"""Dataset container and CSV ingestion.

A :class:`Dataset` bundles the outcome, the single treatment, the instrument
block, and any exogenous controls, together with the intercept convention and
a provenance string. All estimation routines consume this type.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AmbiguousColumnError,
    DimensionMismatchError,
    EmptyAfterFilteringError,
    MissingColumnError,
    ParseError,
)

# Tokens treated as missing on ingestion (case-insensitive).
_MISSING_TOKENS = {"", "na", "nan", "n/a", "."}


@dataclass(eq=False)
class Dataset:
    """Estimation sample for a single-treatment linear IV model.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Outcome.
    x : ndarray, shape (n,)
        Treatment (the one endogenous regressor).
    Z : ndarray, shape (n, k_z)
        Instrument block, one column per instrument.
    z_names : sequence of str
        Instrument column names, in column order; stored as a tuple.
    controls : ndarray, shape (n, k_w)
        Exogenous controls; may have zero columns.
    control_names : sequence of str
        Control column names; stored as a tuple.
    intercept : bool
        Whether regressions on this dataset include an intercept.
    n_absorbed : int
        Number of columns already partialled out of every variable
        (intercept counts as one). Downstream degrees-of-freedom
        corrections add this back.
    provenance : str
        Where the data came from (file path or simulation stamp).
    """

    y: np.ndarray
    x: np.ndarray
    Z: np.ndarray
    z_names: Sequence[str]
    controls: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    control_names: Sequence[str] = ()
    intercept: bool = True
    n_absorbed: int = 0
    provenance: str = ""

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        self.Z = np.atleast_2d(np.asarray(self.Z, dtype=np.float64))
        n = self.y.shape[0]
        if self.Z.shape[0] != n and self.Z.shape[1] == n:
            self.Z = self.Z.T
        if self.controls is None or np.size(self.controls) == 0:
            self.controls = np.empty((n, 0))
        else:
            self.controls = np.atleast_2d(np.asarray(self.controls, dtype=np.float64))
        if self.x.shape[0] != n or self.Z.shape[0] != n or self.controls.shape[0] != n:
            raise DimensionMismatchError(
                f"row counts disagree: y has {n}, x has {self.x.shape[0]}, "
                f"Z has {self.Z.shape[0]}, controls has {self.controls.shape[0]}"
            )
        if len(self.z_names) != self.Z.shape[1]:
            raise DimensionMismatchError(
                f"{len(self.z_names)} instrument names for {self.Z.shape[1]} columns"
            )
        if len(self.control_names) != self.controls.shape[1]:
            raise DimensionMismatchError(
                f"{len(self.control_names)} control names for {self.controls.shape[1]} columns"
            )
        self.z_names = tuple(str(m) for m in self.z_names)
        self.control_names = tuple(str(m) for m in self.control_names)
        names = self.z_names + self.control_names
        if len(set(names)) != len(names):
            dupes = sorted({m for m in names if names.count(m) > 1})
            raise AmbiguousColumnError(f"duplicate column names: {', '.join(dupes)}")
        for label, arr in (("y", self.y), ("x", self.x), ("Z", self.Z), ("controls", self.controls)):
            if arr.size and not np.isfinite([arr.min(), arr.max()]).all():  # NaN survives min and max
                raise ParseError(f"non-finite values in {label}")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k_z(self) -> int:
        return self.Z.shape[1]

    def with_arrays(self, y: np.ndarray, x: np.ndarray, Z: np.ndarray, **kwargs) -> "Dataset":
        """Copy of this dataset with the numeric payload replaced."""
        return replace(self, y=y, x=x, Z=Z, **kwargs)


def _parse_cell(token: str, column: str, row_number: int) -> float | None:
    """None for a missing token, float for a finite value, ParseError otherwise.

    A number is ASCII decimal or scientific notation. ``float`` alone also
    takes Python's ``1_5`` and non-ASCII digits, which numpy's parser does not.
    """
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return None
    try:
        if "_" in stripped or not stripped.isascii():
            raise ValueError(stripped)
        value = float(stripped)
    except ValueError:
        raise ParseError(
            f"row {row_number}, column '{column}': cannot parse {stripped!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}, column '{column}': non-finite value {stripped!r}")
    return value


def _read_header(path: str, referenced: list[str]) -> tuple[list[int], int]:
    """Header positions of the referenced columns, and the lines the header spans."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise FileNotFoundError(f"cannot open data file: {path}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header_lines = reader.line_num
    header = [h.strip() for h in header]
    for name in referenced:
        hits = [i for i, h in enumerate(header) if h == name]
        if not hits:
            raise MissingColumnError(f"column '{name}' not found in {path}")
        if len(hits) > 1:
            raise AmbiguousColumnError(
                f"column '{name}' appears {len(hits)} times in the header of {path}"
            )
    return [header.index(name) for name in referenced], header_lines


def _loadtxt_table(path: str, usecols: list[int], header_lines: int) -> np.ndarray | None:
    """The referenced columns of a clean file, from one call to numpy's C parser.

    None when the file needs :func:`_row_table`: the parser raised or warned
    (a missing, blank or malformed cell, a short row, no data rows) or a cell
    is not finite. ``comments=None`` keeps a cell starting with ``#`` a bad
    cell, not a comment. ``quotechar`` splits quoted cells as ``csv`` does, so
    a comma inside quotes in an unreferenced column cannot shift the columns.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path,
                delimiter=",",
                quotechar='"',
                comments=None,
                skiprows=header_lines,
                usecols=usecols,
                ndmin=2,
            )
    except (ValueError, Warning):
        return None
    if table.shape[0] == 0 or not np.isfinite(table).all():
        return None
    return table


def _row_table(path: str, referenced: list[str], usecols: list[int]) -> tuple[np.ndarray, int]:
    """The referenced columns read row by row, with listwise deletion.

    Rows whose cells are all blank are skipped and not counted. A row with a
    missing referenced cell (blank, a missing token, or past the row's end) is
    dropped and counted. Any other cell that is not a finite number raises
    :class:`~faskit.errors.ParseError` naming its row and column.
    """
    rows: list[list[float]] = []
    dropped = 0
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed: list[float] = []
            for name, idx in zip(referenced, usecols):
                token = row[idx] if idx < len(row) else ""
                value = _parse_cell(token, name, row_number)
                if value is None:
                    dropped += 1
                    break
                parsed.append(value)
            else:
                rows.append(parsed)
    if not rows:
        raise EmptyAfterFilteringError(f"{path}: no complete rows remain ({dropped} dropped)")
    return np.asarray(rows, dtype=np.float64), dropped


def load_csv(
    path: str,
    outcome: str,
    treatment: str,
    instruments: list[str],
    controls: list[str] | None = None,
    intercept: bool = True,
) -> tuple[Dataset, int]:
    """Read a CSV file into a :class:`Dataset` with listwise deletion.

    The first record is the header (after a UTF-8 byte-order mark, if any);
    lines may end in LF or CRLF. A number is ASCII decimal or scientific
    notation (``-1.5``, ``.5``, ``2.``, ``3e-8``), with optional padding and
    no ``_``. Rows with a missing value (blank, NA, NaN, N/A or ``.``, in
    any case) in any referenced column are dropped and counted; rows whose
    cells are all blank are skipped and not counted. Unreferenced columns
    are ignored. A referenced cell that is present but not a finite number
    raises :class:`~faskit.errors.ParseError` naming its row and column.

    A file with no missing or bad cell is read in one call to numpy's C
    parser; any other file is read row by row.

    Parameters
    ----------
    path : str
        File to read. Must have a header row.
    outcome, treatment : str
        Column names for y and x.
    instruments : list of str
        Instrument column names, at least one.
    controls : list of str, optional
        Exogenous control column names.
    intercept : bool
        Intercept convention recorded on the dataset.

    Returns
    -------
    (Dataset, int)
        The dataset and the number of dropped rows.
    """
    controls = list(controls or [])
    roles = [("outcome", outcome), ("treatment", treatment)]
    roles += [("instrument", m) for m in instruments]
    roles += [("control", m) for m in controls]
    seen: dict[str, str] = {}
    for role, name in roles:
        if name in seen:
            raise AmbiguousColumnError(
                f"column '{name}' referenced as both {seen[name]} and {role}"
            )
        seen[name] = role
    referenced = list(seen)

    usecols, header_lines = _read_header(path, referenced)
    table = _loadtxt_table(path, usecols, header_lines)
    dropped = 0
    if table is None:
        table, dropped = _row_table(path, referenced, usecols)

    k = 2 + len(instruments)  # roles are in column order, so each is a view of the table
    dataset = Dataset(
        y=table[:, 0], x=table[:, 1], Z=table[:, 2:k], z_names=list(instruments),
        controls=table[:, k:], control_names=controls, intercept=intercept, provenance=path,
    )
    return dataset, dropped


# Rows per block of the CSV writer: each block's text is built in one join,
# so only a block, not the whole table, is ever held as Python floats.
_WRITE_ROWS = 1024


def write_csv(dataset: Dataset, path: str, outcome: str = "y", treatment: str = "x") -> None:
    """Write a dataset in the CSV layout :func:`load_csv` reads.

    The header row is quoted where a name needs it. Each value is written as
    its shortest round-trip text (``repr``), so reading the file back gives
    the same float64 bits. Lines end in CRLF. The bytes are those
    ``csv.writer`` writes for the same rows.

    The rows go to one :class:`faskit.floattext.RowTexts` as a function
    that stacks ``y``, ``x``, ``Z`` and the controls for the rows asked, so
    no whole-sample table is formed; it formats them in blocks of
    :data:`_WRITE_ROWS` rows. When the sample holds at least
    ``floattext.MIN_VALUES`` values and this process may run on more than
    one CPU, one worker process (``sys.executable -I -S`` on the
    ``floattext`` file, fed through unlinked temporary files in ``TMPDIR``)
    formats blocks from the end of the sample while this process formats
    from the start, until they meet. The bytes do not change, and a worker
    that fails leaves its blocks to this process.
    """
    header = [outcome, treatment] + list(dataset.z_names) + list(dataset.control_names)
    columns = [dataset.y[:, None], dataset.x[:, None], dataset.Z, dataset.controls]
    width = sum(c.shape[1] for c in columns)

    def rows(start: int, stop: int) -> np.ndarray:
        return np.hstack([c[start:stop] for c in columns])

    # imported here, so that a process that writes no CSV never loads it
    from .floattext import RowTexts

    texts = RowTexts(rows, dataset.n, width, _WRITE_ROWS, ("", ",", "\r\n"))
    with open(path, "w", newline="") as handle, texts:
        csv.writer(handle).writerow(header)
        for text in texts:
            handle.write(text)
