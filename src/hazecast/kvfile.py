"""Plain ``key = value`` text files used for manifests, configs and reports."""

from __future__ import annotations

from .errors import DataError


def read_keyvalue(path) -> dict[str, str]:
    """Parse a key-value file; later duplicate keys are rejected."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
