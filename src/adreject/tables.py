"""The CSV table format: :func:`read_csv_table` reads a header of
distinct column names over numeric rows, :func:`split_label` and
:func:`take_columns` take columns by name, and
:func:`write_predictions` writes the rows of ``adreject predict``.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .core import Decision, DomainError, ParseError

__all__ = ["read_csv_table", "split_label", "take_columns", "write_predictions"]


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV with a header row.

    The body is first read in blocks of lines (``_read_blocks``); a file
    that path does not take is read again cell by cell, which gives the
    same table and raises every error.

    Raises
    ------
    ParseError
        On a header that repeats a column name (after stripping), and on
        a non-numeric cell or ragged row, with 1-based coordinates (the
        header is row 1).
    """
    path = Path(path)
    try:
        table = _read_blocks(path)
    except (ValueError, csv.Error):
        table = None
    return table if table is not None else _read_cells(path)


# Bytes of body lines the block reader holds at once.
_BLOCK_BYTES = 1 << 18


def _header(path: Path, reader) -> list[str]:
    """The stripped column names of a CSV's first row; ``ParseError`` on
    an empty file, or on a name given twice, which would make a column
    taken by name ambiguous."""
    try:
        row = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected a header row") from None
    names = [h.strip() for h in row]
    twice = [name for name, count in Counter(names).items() if count > 1]
    if twice:
        raise ParseError(f"{path}: header repeats column name {twice[0]!r}")
    return names


def _read_blocks(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The table of a CSV whose body rows are each a line of plain
    ``float`` cells, one per header column; ``None`` when the file has
    no body row or its last line no line end, and ``ValueError`` when a
    cell does not parse.  The header is read as in ``_read_cells``.

    ``csv.reader`` takes the header.  A body line with no quote splits
    into the cells ``csv.reader`` finds, its line end left on the last
    cell, which ``float()`` strips as whitespace; a quote never parses
    as a float.  So every cell goes through the same ``float()`` as in
    ``_read_cells``, and a table read here is the one read there.
    """
    limit = csv.field_size_limit()
    with path.open(newline="") as fh:
        header = _header(path, csv.reader(fh))
        commas = len(header) - 1
        blocks = []
        last = ""
        # Splitting on "," needs each line to be one row of the header's
        # width; a line longer than the field limit makes csv.reader fail.
        while lines := fh.readlines(_BLOCK_BYTES):
            if (set(map(str.count, lines, repeat(","))) != {commas}
                    or max(map(len, lines)) > limit):
                return None
            cells = ",".join(lines).split(",")
            blocks.append(np.fromiter(map(float, cells), dtype=float,
                                      count=len(cells)).reshape(len(lines), -1))
            last = lines[-1]
    if not blocks or not last.endswith(("\n", "\r")):
        return None
    return header, np.concatenate(blocks)


def _read_cells(path: Path) -> tuple[list[str], np.ndarray]:
    """The table read cell by cell; raises ``read_csv_table``'s errors."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {i} has {len(row)} cells, header has {len(header)}"
                )
            out = []
            for j, cell in enumerate(row, start=1):
                try:
                    out.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i}, column {j}: could not parse {cell.strip()!r}"
                    ) from None
            rows.append(out)
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return header, data


def split_label(header: list[str], data: np.ndarray, label_column: str):
    """Feature names, feature columns and the label column (``None`` when
    ``label_column`` is not in ``header``) of a table."""
    if label_column not in header:
        return list(header), data, None
    li = header.index(label_column)
    keep = [j for j in range(len(header)) if j != li]
    return [header[j] for j in keep], data[:, keep], data[:, li]


def take_columns(header: list[str], data: np.ndarray, names, path) -> np.ndarray:
    """The columns named ``names``, in that order; one ``DomainError``
    that names every one missing from ``header`` and the table's ``path``."""
    missing = [name for name in names if name not in header]
    if missing:
        raise DomainError(f"{path} is missing columns {missing}: columns are {header}")
    return data[:, [header.index(name) for name in names]]


_PREDICT_COLUMNS = ("score", "psi_n", "p_anomaly", "confidence", "decision")
_PREDICT_HEADER = ",".join(_PREDICT_COLUMNS) + "\r\n"
# Rows formatted per write, which bounds the output text held at once.
_WRITE_ROWS = 1 << 16
# Indexed by BatchPredictions._codes().
_DECISION_LABELS = np.array([str(d) for d in Decision])


def write_predictions(fh, scores: np.ndarray, batch, n: int) -> None:
    """Write to ``fh`` the predict CSV of ``scores`` and their ``batch``
    from a rejector fitted on ``n`` scores: a header, a row per score."""
    fh.write(_PREDICT_HEADER)
    for block in _predict_rows(scores, batch, n):
        fh.write(block)


def _predict_rows(scores: np.ndarray, batch, n: int):
    """The predict CSV's body in blocks of at most ``_WRITE_ROWS`` rows,
    as ``csv.writer`` writes them: a float as its ``repr``, rows ended
    by ``\r\n``.

    ``psi_n = j / n`` comes from a row's training count ``j``, and
    ``p_anomaly``, ``confidence`` and the decision depend on ``j``
    alone, so everything after the score is formatted once per distinct
    count the batch hits, from any row with that count.
    """
    # j < 2**52, so j / n times n rounds back to j.
    j = np.rint(batch.psi_n * n).astype(np.intp)
    row = np.full(n + 1, -1, dtype=np.intp)
    row[j] = np.arange(j.size)
    counts = np.flatnonzero(row >= 0)
    first = row[counts]
    tails = np.empty(n + 1, dtype=object)
    tails[counts] = [f",{psi!r},{p!r},{c!r},{label}\r\n" for psi, p, c, label in zip(
        batch.psi_n[first].tolist(), batch.p_anomaly[first].tolist(),
        batch.confidence[first].tolist(),
        _DECISION_LABELS[batch._codes()[first]].tolist())]
    for start in range(0, scores.size, _WRITE_ROWS):
        stop = start + _WRITE_ROWS
        yield "".join(chain.from_iterable(zip(map(repr, scores[start:stop].tolist()),
                                              tails[j[start:stop]].tolist())))
