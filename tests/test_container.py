import numpy as np
import pytest

from hazecast.container import load_arrays, save_arrays
from hazecast.errors import DataError


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "weights": rng.normal(size=(7, 3)),
        "counts": np.arange(12, dtype=np.int64).reshape(3, 4),
        "flags": np.array([True, False, True]),
        "small": np.array([1, -2, 3], dtype=np.int16),
        "empty": np.zeros((0, 5)),
    }
    meta = {"variant": "agnn_gru", "hidden": 16, "nested": {"a": [1, 2]}}
    path = tmp_path / "store.bin"
    save_arrays(path, arrays, meta)
    loaded, got_meta = load_arrays(path)
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert loaded[name].shape == arrays[name].shape
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_writes_are_deterministic(tmp_path):
    arrays = {"a": np.linspace(0, 1, 11), "b": np.eye(3)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    save_arrays(p1, arrays, {"k": "v"})
    save_arrays(p2, arrays, {"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a container at all")
    with pytest.raises(DataError, match="not a hazecast"):
        load_arrays(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "store.bin"
    save_arrays(path, {"a": np.ones(100)}, {})
    blob = path.read_bytes()
    corrupted = {
        "inside the array bytes": blob[:-40],
        "inside the header length": blob[:18],
        "inside the JSON header": blob[:26],
        "header length too long": blob[:16] + bytes([blob[16] ^ 0x80]) + blob[17:],
    }
    for where, data in corrupted.items():
        path.write_bytes(data)
        with pytest.raises(DataError, match="truncated") as caught:
            load_arrays(path)
        assert str(path) in str(caught.value), where


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        save_arrays(tmp_path / "x.bin", {"a": np.array(["text"])}, {})
