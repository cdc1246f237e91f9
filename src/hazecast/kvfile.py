"""Readers of the package's plain-text inputs: ``key = value`` files and CSV tables.

Both report a fault as ``DataError`` with ``file:line`` context; a file that
cannot be opened raises ``DataError`` naming its path.
"""

from __future__ import annotations

import csv
import io

from .errors import DataError


def read_text(path) -> str:
    """The whole text of input file ``path``, decoded as UTF-8, line endings as written."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read input file ({exc.strerror})") from None
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x})") from None


def read_keyvalue(path) -> dict[str, str]:
    """Parse a key-value file; later duplicate keys are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise DataError(f"{path}:{lineno}: empty key")
        if key in out:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def csv_rows(path, text: str, header: tuple[str, ...]):
    """Yield ``(line number, stripped cells)`` of each data row of the CSV ``text`` read from ``path``.

    The first row must be ``header``; blank rows are skipped, and every other
    row must have one field per header column.  The first fault, in line
    order, raises ``DataError``.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    first = next(reader, [])   # an empty file has no header
    if tuple(h.strip() for h in first) != header:
        raise DataError(f"{path}:1: expected header {','.join(header)!r}, got {','.join(first)!r}")
    for row in reader:
        lineno = reader.line_num   # a quoted cell may span lines: the row's last line
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        yield lineno, [cell.strip() for cell in row]
