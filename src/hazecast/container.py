"""Self-describing binary container for named arrays plus a JSON manifest.

Layout: magic line, a 4-byte little-endian header length, a UTF-8 JSON header
(format version, user metadata, array directory with dtype/shape/offset), then
the raw little-endian array bytes in directory order.  Writing is fully
deterministic (sorted JSON keys, no timestamps) and read/write round-trips are
bit-exact, which the checkpoint and reproducibility guarantees rely on.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"HAZECAST-ARRAYS\n"
FORMAT_VERSION = 1

_ALLOWED_DTYPES = {"<f8", "<f4", "<i8", "<i4", "<i2", "|b1"}


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays and a metadata dict to ``path``."""
    directory = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">" else arr.dtype
        code = dtype.str
        if code not in _ALLOWED_DTYPES:
            raise ValueError(f"array {name!r}: unsupported dtype {arr.dtype}")
        blob = arr.astype(dtype, copy=False).tobytes()
        directory.append({
            "name": name,
            "dtype": code,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "arrays": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(arrays, meta)`` written by :func:`save_arrays`."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise DataError(f"{path}: not a hazecast array container")
        try:
            (header_len,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (struct.error, ValueError):  # ValueError covers JSON and UTF-8 decoding
            raise DataError(f"{path}: truncated or corrupt container header") from None
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported container version {header.get('format_version')}")
        # Each array is read in place: no payload buffer or extra copy.
        start, end = fh.tell(), os.fstat(fh.fileno()).st_size
        arrays = {}
        for entry in header["arrays"]:
            if entry["dtype"] not in _ALLOWED_DTYPES:
                raise DataError(f"{path}: unsupported dtype {entry['dtype']!r} (array {entry['name']!r})")
            dtype, nbytes = np.dtype(entry["dtype"]), entry["nbytes"]
            if math.prod(entry["shape"]) * dtype.itemsize != nbytes or start + entry["offset"] + nbytes > end:
                raise DataError(f"{path}: truncated container (array {entry['name']!r})")
            arr = np.empty(entry["shape"], dtype=dtype)
            fh.seek(start + entry["offset"])
            fh.readinto(arr.reshape(-1).view(np.uint8))
            arrays[entry["name"]] = arr
    return arrays, header["meta"]
