"""Dataset container and CSV ingestion.

A :class:`Dataset` bundles the outcome, the single treatment, the instrument
block, and any exogenous controls, together with the intercept convention and
a provenance string. All estimation routines consume this type.
"""

from __future__ import annotations

import csv
import math
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
            if arr.size and not np.all(np.isfinite(arr)):
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
    """None for a missing token, float for a finite value, ParseError otherwise."""
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return None
    try:
        value = float(stripped)
    except ValueError:
        raise ParseError(
            f"row {row_number}, column '{column}': cannot parse {stripped!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}, column '{column}': non-finite value {stripped!r}")
    return value


def load_csv(
    path: str,
    outcome: str,
    treatment: str,
    instruments: list[str],
    controls: list[str] | None = None,
    intercept: bool = True,
) -> tuple[Dataset, int]:
    """Read a CSV file into a :class:`Dataset` with listwise deletion.

    Rows with a missing value (blank, NA, NaN) in any referenced column are
    dropped; unreferenced columns are ignored entirely. Any referenced cell
    that is present but does not parse as a finite decimal raises
    :class:`~faskit.errors.ParseError`.

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

    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise FileNotFoundError(f"cannot open data file: {path}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name in referenced:
            hits = [i for i, h in enumerate(header) if h == name]
            if not hits:
                raise MissingColumnError(f"column '{name}' not found in {path}")
            if len(hits) > 1:
                raise AmbiguousColumnError(
                    f"column '{name}' appears {len(hits)} times in the header of {path}"
                )
        position = {name: header.index(name) for name in referenced}

        rows: list[list[float]] = []
        dropped = 0
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed: list[float] = []
            for name in referenced:
                idx = position[name]
                token = row[idx] if idx < len(row) else ""
                value = _parse_cell(token, name, row_number)
                if value is None:
                    dropped += 1
                    break
                parsed.append(value)
            else:
                rows.append(parsed)

    if not rows:
        raise EmptyAfterFilteringError(
            f"{path}: no complete rows remain ({dropped} dropped)"
        )

    table = np.asarray(rows, dtype=np.float64)
    col = {name: i for i, name in enumerate(referenced)}
    dataset = Dataset(
        y=table[:, col[outcome]],
        x=table[:, col[treatment]],
        Z=table[:, [col[m] for m in instruments]],
        z_names=list(instruments),
        controls=table[:, [col[m] for m in controls]] if controls else np.empty((len(rows), 0)),
        control_names=controls,
        intercept=intercept,
        provenance=path,
    )
    return dataset, dropped


def write_csv(dataset: Dataset, path: str, outcome: str = "y", treatment: str = "x") -> None:
    """Write a dataset in the same CSV layout :func:`load_csv` ingests."""
    header = [outcome, treatment] + list(dataset.z_names) + list(dataset.control_names)
    blocks = [dataset.y[:, None], dataset.x[:, None], dataset.Z]
    if dataset.controls.shape[1]:
        blocks.append(dataset.controls)
    table = np.hstack(blocks)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(row.tolist() for row in table)
