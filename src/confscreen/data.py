"""Dataset loading, validation, and covariate group definitions."""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _fork

__all__ = [
    "DataError",
    "MissingColumnError",
    "ParseError",
    "ValidationError",
    "Dataset",
    "GroupSpec",
    "load_csv",
    "load_groups",
    "write_csv",
]


class DataError(Exception):
    """Base class for all data-layer errors."""


class MissingColumnError(DataError):
    pass


class ParseError(DataError):
    pass


class ValidationError(DataError):
    pass


def _constant_columns(c: np.ndarray) -> np.ndarray:
    """Which columns of ``c`` (rows on axis 0) hold one value in every row.

    Decided by exact equality: the sample sd of a constant column can be a
    rounding-level nonzero (a column of 1.1 at n=500 gives 2.2e-16).
    """
    return (c == c[0]).all(axis=0)


@dataclass(frozen=True)
class Dataset:
    """Immutable analysis dataset: outcome, binary exposure, covariate matrix.

    For a bounded outcome kind the stored outcome lives in [0, 1]; the affine
    map back to the original scale is (scale, offset): original = scale * stored + offset.

    Construction also derives what every scored target shares:
    ``exposure_float``, ``arm_masks`` (rows exposure == 0 and == 1), the means
    ``outcome_mean`` (original scale) and ``exposure_mean``, the centered
    ``outcome_centered`` and ``exposure_centered``, and ``constant_columns``,
    which covariate columns hold one value in every row (_constant_columns).
    All arrays are read-only.
    """

    outcome: np.ndarray
    exposure: np.ndarray
    covariates: np.ndarray
    column_names: tuple[str, ...]
    outcome_kind: str = "continuous"
    outcome_scale: float = 1.0
    outcome_offset: float = 0.0

    def __post_init__(self):
        outcome = np.asarray(self.outcome, dtype=float)
        exposure = np.asarray(self.exposure)
        covariates = np.asarray(self.covariates, dtype=float)
        if covariates.ndim != 2:
            raise ValidationError("covariates must be a 2-D matrix")
        n = outcome.shape[0]
        if n < 2:
            raise ValidationError("need at least 2 observations")
        if covariates.shape[0] != n or exposure.shape[0] != n:
            raise ValidationError("outcome, exposure, and covariates must share length n")
        if covariates.shape[1] < 1:
            raise ValidationError("need at least one covariate column")
        if len(self.column_names) != covariates.shape[1]:
            raise ValidationError("column_names length must match covariate count")
        if len(set(self.column_names)) != len(self.column_names):
            raise ValidationError("duplicate covariate column names")
        if self.outcome_kind not in ("continuous", "bounded"):
            raise ValidationError(f"unknown outcome_kind {self.outcome_kind!r}")
        if not np.all(np.isfinite(outcome)) or not np.all(np.isfinite(covariates)):
            raise ValidationError("non-finite values are not allowed")
        ev = np.unique(exposure)
        if not np.all(np.isin(ev, (0, 1))):
            raise ValidationError("exposure values must be exactly 0 or 1")
        if ev.size < 2:
            raise ValidationError(
                "exposure is constant: mean exposure in {0, 1} leaves one arm empty"
            )
        if self.outcome_kind == "bounded" and (outcome.min() < 0.0 or outcome.max() > 1.0):
            raise ValidationError("bounded outcome values must lie in [0, 1]")
        exposure = exposure.astype(np.int64)
        exposure_float = exposure.astype(float)
        outcome_original = self.to_original_scale(outcome)
        outcome_mean = float(outcome_original.mean())
        exposure_mean = float(exposure.mean())
        for name, value in (
            ("outcome", outcome),
            ("exposure", exposure),
            ("covariates", covariates),
            ("exposure_float", exposure_float),
            ("arm_masks", np.stack([exposure == 0, exposure == 1])),
            ("_outcome_original", outcome_original),
            ("outcome_centered", outcome_original - outcome_mean),
            ("exposure_centered", exposure_float - exposure_mean),
            ("constant_columns", _constant_columns(covariates)),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "outcome_mean", outcome_mean)
        object.__setattr__(self, "exposure_mean", exposure_mean)

    @property
    def n(self) -> int:
        return self.outcome.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def outcome_original(self) -> np.ndarray:
        """Outcome mapped back to its original (pre-rescaling) scale (read-only)."""
        return self._outcome_original

    def to_original_scale(self, values: np.ndarray) -> np.ndarray:
        """Map values on the stored outcome scale back to the original scale."""
        return self.outcome_scale * values + self.outcome_offset

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise MissingColumnError(f"unknown covariate column {name!r}") from None


@dataclass(frozen=True)
class GroupSpec:
    """Ordered, disjoint groups of covariate columns."""

    groups: tuple[tuple[str, tuple[str, ...]], ...]

    def validate(self, dataset: Dataset) -> None:
        seen_groups: set[str] = set()
        seen_cols: set[str] = set()
        for name, members in self.groups:
            if name in seen_groups:
                raise ValidationError(f"duplicate group name {name!r}")
            seen_groups.add(name)
            if len(members) == 0:
                raise ValidationError(f"group {name!r} is empty")
            for k, col in enumerate(members):
                if col not in dataset.column_names:
                    raise MissingColumnError(
                        f"group {name!r} references unknown column {col!r}"
                    )
                if col in members[:k]:
                    raise ValidationError(f"group {name!r} lists column {col!r} twice")
                if col in seen_cols:
                    raise ValidationError(
                        f"column {col!r} appears in more than one group"
                    )
                seen_cols.add(col)

    def member_indices(self, dataset: Dataset) -> list[tuple[str, tuple[int, ...]]]:
        """(name, column indices) of each group, after ``validate``."""
        self.validate(dataset)
        return [
            (name, tuple(dataset.column_index(c) for c in members))
            for name, members in self.groups
        ]


def load_csv(path, outcome_col: str, exposure_col: str, outcome_kind: str = "continuous") -> Dataset:
    """Load a comma-separated file with a header row into a Dataset.

    The dialect: a header row, comma separators, optional double quotes, no
    blank lines and no comment lines, and every data cell a number as
    ``float()`` reads it.  All columns other than the named outcome and
    exposure become covariates in file order.  A bounded outcome whose raw
    range exceeds [0, 1] is affinely rescaled into [0, 1] and the affine map
    recorded on the Dataset.  A file that is not UTF-8 text, or whose header
    repeats a name, is a ParseError; outcome and exposure naming one column
    is a ValidationError.

    A regular file with enough data rows is cut into pieces of whole lines,
    which this process and forked ones take one at a time until none is
    left (_parse_split); the values are bitwise those of a one-process parse.

    The parsed matrix is the one full-size copy of the file: the outcome and
    exposure are copied out of it, and covariates whose columns form one run
    are a (read-only) view of it; any other column order copies them.  While
    a split parse gathers the pieces, the parent also holds the rows of the
    pieces it parsed beside the matrix.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            # Through readline, not the file's iterator, which disables tell().
            reader = csv.reader(iter(fh.readline, ""))
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            # Where a faster parse gives up, the rows are reread from the first
            # data row, which a pipe cannot do: a pipe goes to the per-cell parse.
            values = None
            if fh.seekable():
                offset = fh.tell()
                fd = fh.fileno()
                values = _parse_split(fd, offset, os.fstat(fd).st_size, len(header))
                if values is None:
                    values = _parse_rows_fast(fh, len(header))
                if values is None:
                    fh.seek(offset)
            if values is None:
                rows = list(reader)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for col in (outcome_col, exposure_col):
        if col not in header:
            raise MissingColumnError(f"{path}: no column named {col!r}")
    if len(set(header)) < len(header):
        col = next(c for i, c in enumerate(header) if c in header[:i])
        raise ParseError(f"{path}: column {col!r} appears more than once in the header")
    if outcome_col == exposure_col:
        raise ValidationError(f"{path}: outcome and exposure name the same column {outcome_col!r}")
    if values is None:
        values = _parse_cells(path, header, rows)
    o_idx = header.index(outcome_col)
    e_idx = header.index(exposure_col)
    cov_idx = [i for i in range(len(header)) if i not in (o_idx, e_idx)]

    outcome = values[:, o_idx].copy()
    exposure_raw = values[:, e_idx].copy()
    run = cov_idx and cov_idx[-1] + 1 - cov_idx[0] == len(cov_idx)
    covariates = values[:, cov_idx[0] : cov_idx[-1] + 1] if run else values[:, cov_idx]
    del values
    if not np.all(np.isin(exposure_raw, (0.0, 1.0))):
        raise ValidationError(f"{path}: exposure column {exposure_col!r} must be 0/1")
    scale, offset = 1.0, 0.0
    if outcome_kind == "bounded" and outcome.size and (outcome.min() < 0.0 or outcome.max() > 1.0):
        offset = float(outcome.min())
        scale = float(outcome.max() - outcome.min())
        if scale == 0.0:
            raise ValidationError(f"{path}: bounded outcome is constant, cannot rescale")
        outcome = (outcome - offset) / scale
    return Dataset(
        outcome=outcome,
        exposure=exposure_raw.astype(np.int64),
        covariates=covariates,
        column_names=tuple(header[i] for i in cov_idx),
        outcome_kind=outcome_kind,
        outcome_scale=scale,
        outcome_offset=offset,
    )


def _data_lines(fh):
    """The remaining lines of ``fh``; ValueError on a line that np.loadtxt reads otherwise than float().

    np.loadtxt skips a blank line, which the per-cell parse reports as a row of
    0 fields, and strips the separators \\x1c-\\x1f from a cell, which float()
    rejects.
    """
    for line in fh:
        if line.isspace() or "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("line outside the np.loadtxt dialect")
        yield line


def _parse_rows_fast(fh, width: int, quotechar: str | None = '"'):
    """Every data row of ``fh`` in one np.loadtxt call, or None where it cannot match _parse_cells.

    Any parse error, any warning (a file without data rows warns), or a width
    other than the header's leaves the file to the per-cell parse, which
    reports the error.  Bytes that are not UTF-8 raise UnicodeDecodeError,
    which no reparse can mend.  np.loadtxt converts each cell with the routine
    that float() uses, so the values it returns are bitwise those of
    _parse_cells.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(
                _data_lines(fh), delimiter=",", quotechar=quotechar, comments=None, ndmin=2, dtype=float
            )
        except UnicodeDecodeError:
            raise
        except (ValueError, Warning):
            return None
    return values if values.shape[1] == width else None


# The fewest bytes of data rows worth a process of their own, so that a file
# under 1 MiB is parsed in one process, and the size of a piece of a split
# parse.  On a 2-core x86-64 host, a 1 MiB file parsed in 19 ms split in two
# against 26 ms whole, and a 0.3 MB one in 8.1 against 7.2 ms.
_CHUNK_MIN_BYTES = 1 << 19


class _FileRange(io.RawIOBase):
    """Bytes [start, end) of the open file ``fd``, read with os.pread, which moves no file offset."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        left = self._end - self._at
        data = os.pread(self._fd, left if size < 0 else min(size, left), self._at)
        self._at += len(data)
        return data


def _parse_chunk(fd: int, start: int, end: int, width: int):
    """The rows in bytes [start, end) of ``fd`` as _parse_rows_fast reads them, or None.

    A quote character fails the parse (quotechar None), since a quoted cell
    may hold a line break that a chunk boundary would cut.
    """
    text = io.TextIOWrapper(_FileRange(fd, start, end), encoding="utf-8", newline="")
    return _parse_rows_fast(text, width, quotechar=None)


def _next_line_start(fd: int, at: int, end: int) -> int:
    """The offset just past the first b"\\n" in bytes [at, end) of ``fd``, or ``end`` where there is none."""
    while at < end:
        block = os.pread(fd, min(1 << 16, end - at), at)
        if not block:
            break
        newline = block.find(b"\n")
        if newline >= 0:
            return at + newline + 1
        at += len(block)
    return end


def _parse_split(fd: int, start: int, end: int, width: int):
    """The data rows in bytes [start, end) of the regular file ``fd``, parsed in pieces, or None.

    The rows are cut just after a b"\\n" into pieces of about
    _CHUNK_MIN_BYTES, or larger so that there are at most
    _fork.MOST_TOKENS, and handed out one at a time (_fork.forked) among
    min(usable CPUs, bytes // _CHUNK_MIN_BYTES, pieces) processes: this one
    and forked children.  Each parses its pieces with _parse_chunk.  A child
    sends a header of (piece, rows) pairs, then the rows of those pieces,
    through a pipe.  Once every count is known, the parent allocates one
    (rows, width) matrix, copies its own pieces into it and reads each
    child's rows straight to their place.  Each cell goes through the
    routine of the one-call parse, so the matrix is bitwise that parse's.
    Any irregularity (fewer than two pieces, a piece that fails _parse_chunk
    or is not UTF-8, a child that sends less) returns None, and the caller
    parses the whole file in one process, which also reports any error.
    """
    workers = min(_fork.usable_cpus(), (end - start) // _CHUNK_MIN_BYTES)
    if workers < 2:
        return None
    size = max(_CHUNK_MIN_BYTES, -(-(end - start) // _fork.MOST_TOKENS))
    cuts = [start]
    while (cut := _next_line_start(fd, cuts[-1] + size, end)) < end:
        cuts.append(cut)
    pieces = list(zip(cuts, cuts[1:] + [end]))
    if len(pieces) < 2:
        return None

    def parse(tokens) -> dict | None:
        """The rows of each piece that ``tokens`` name, by piece; None at the first that fails."""
        parsed = {}
        for piece in tokens:
            values = _parse_chunk(fd, *pieces[piece], width)
            if values is None:
                return None
            parsed[piece] = values
        return parsed

    def send(tokens):
        parsed = parse(tokens)
        if parsed is None:
            return None
        head = np.array([(piece, len(values)) for piece, values in parsed.items()], dtype=np.int64)
        return [len(parsed).to_bytes(8, "little"), head.tobytes(), *parsed.values()]

    with _fork.forked(len(pieces), min(workers, len(pieces)) - 1, send) as (tokens, pipes):
        try:
            parsed = parse(tokens)
        except UnicodeDecodeError:
            return None
        if parsed is None:
            return None
        rows = {piece: len(values) for piece, values in parsed.items()}
        heads = []  # each child's pieces, in the order it sends their rows
        for pipe in pipes:
            count = bytearray(8)
            if not _fork.read_exactly(pipe, count):
                return None
            head = bytearray(16 * int.from_bytes(count, "little"))
            if not _fork.read_exactly(pipe, head):
                return None
            pairs = np.frombuffer(head, dtype=np.int64).reshape(-1, 2).tolist()
            heads.append([piece for piece, _ in pairs])
            rows.update(pairs)
        offsets = np.cumsum([0] + [rows[piece] for piece in range(len(pieces))]).tolist()
        values = np.empty((offsets[-1], width))
        for piece in list(parsed):
            values[offsets[piece] : offsets[piece + 1]] = parsed.pop(piece)
        for pipe, head in zip(pipes, heads):
            for piece in head:
                if not _fork.read_exactly(pipe, values[offsets[piece] : offsets[piece + 1]]):
                    return None
        return values


def _parse_cells(path, header: list[str], rows: list[list[str]]) -> np.ndarray:
    """The (rows, columns) float matrix of ``rows``, one float() per cell; names the first bad cell."""
    values = np.empty((len(rows), len(header)), dtype=float)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {r + 2} has {len(row)} fields, expected {len(header)}")
        for c, cell in enumerate(row):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {cell!r} at row {r + 2}, column {header[c]!r}"
                ) from None
    return values


# write_csv formats the data rows a window of about _WINDOW_CELLS cells at a
# time, in items of whole rows of about _ITEM_CELLS cells, so that it holds the
# Python floats of one item and the text of one window, not those of the file.
_WINDOW_CELLS = 1 << 18
_ITEM_CELLS = 1 << 12
# The fewest cells worth a process of their own: a window of 2 * _WRITE_MIN_CELLS
# cells or more is formatted by as many processes as usable CPUs, or fewer.  On a 2-core x86-64
# host, 2^16 cells of 32 columns took 35.8 ms split in two against 45.4 ms whole
# (of 1002 columns 35.2 against 44.5 ms), and 2^15 cells 21.4 against 23.9 ms
# (21.4 against 21.7 ms).
_WRITE_MIN_CELLS = 1 << 15


def _csv_rows(outcome: np.ndarray, exposure: np.ndarray, covariates: np.ndarray) -> str:
    """The text of these rows as write_csv writes them: repr'd floats, the integer exposure and \\r\\n."""
    fmt = float.__repr__
    return "".join(
        f"{fmt(y)},{e},{','.join(map(fmt, row))}\r\n"
        for y, e, row in zip(outcome.tolist(), exposure.tolist(), covariates.tolist())
    )


def write_csv(dataset: Dataset, path, outcome_col: str = "outcome", exposure_col: str = "exposure") -> None:
    """Write a Dataset back to comma-separated text with full float precision.

    The outcome is written on its original scale (``outcome_original``), and
    as stored where that scale is the stored one, so that a -0.0 keeps its
    sign.  The header goes through csv.writer, which quotes names that need
    it; the data rows are written as csv.writer would write them (repr'd
    floats and the integer exposure never need quoting) without its per-cell
    calls.

    The rows are formatted window by window (_WINDOW_CELLS).  A window's
    items are handed out, in runs cut by their cells, among this process and
    forked children, each taking the next run when it is done with the last
    (_fork.map_split); the parent writes the items' text in row order, so
    the file is that of one process.
    """
    outcome = dataset.outcome
    if (dataset.outcome_scale, dataset.outcome_offset) != (1.0, 0.0):
        outcome = dataset.outcome_original()
    n, width = dataset.n, dataset.p + 2
    step = max(1, _ITEM_CELLS // width)  # rows of an item
    window = step * max(1, _WINDOW_CELLS // (step * width))  # rows of a window

    def rows(lo: int) -> str:
        """The text of data rows [lo, lo + step)."""
        hi = lo + step
        return _csv_rows(outcome[lo:hi], dataset.exposure[lo:hi], dataset.covariates[lo:hi])

    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([outcome_col, exposure_col, *dataset.column_names])
        for start in range(0, n, window):
            items = list(range(start, min(start + window, n), step))
            cells = [(min(lo + step, n) - lo) * width for lo in items]
            fh.writelines(_fork.map_split(rows, items, cells, _WRITE_MIN_CELLS))


def _read_json(path, what: str):
    """Parse the JSON ``what`` file at ``path``; a ParseError names the file.

    The file must be UTF-8 JSON, and no object in it may repeat a key (a
    plain ``json.load`` would keep only the last value).
    """

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path}: invalid {what} file: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid {what} file: {exc}") from None


def load_groups(path) -> GroupSpec:
    """Load a JSON object mapping group names to column-name lists (``member_indices`` checks them)."""
    raw = _read_json(path, "group")
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: group file must be an object of name -> column list")
    if not raw:
        raise ParseError(f"{path}: group file defines no groups")
    groups = []
    for name, members in raw.items():
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise ParseError(f"{path}: group {name!r} must map to a list of column names")
        groups.append((str(name), tuple(members)))
    return GroupSpec(groups=tuple(groups))
