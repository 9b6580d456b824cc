import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltt.serial import (FormatError, config_from_json, read_checkpoint, read_tensor,
                        read_text_table, write_checkpoint, write_tensor, write_text_table)
from ltt.ttt import TttConfig


def u32(n: int) -> bytes:
    return n.to_bytes(4, "little")


@pytest.mark.parametrize("shape,dtype", [
    ((), np.float32), ((5,), np.float32), ((3, 4), np.float64),
    ((2, 3, 4, 5), np.float32),
])
def test_tensor_round_trip(tmp_path, shape, dtype):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=shape).astype(dtype)
    path = tmp_path / "t.lttf"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_tensor_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    write_tensor(tmp_path / "t.lttf", arr)
    blob = (tmp_path / "t.lttf").read_bytes()
    assert blob[:4] == b"LTTF"
    assert blob[4] == 1  # version
    assert blob[5] == 0  # f32
    assert blob[6] == 2  # rank
    assert int.from_bytes(blob[7:11], "little") == 2
    assert int.from_bytes(blob[11:15], "little") == 3
    assert len(blob) == 15 + 6 * 4


def test_tensor_write_is_deterministic(tmp_path):
    arr = np.random.default_rng(1).normal(size=(4, 4)).astype(np.float32)
    write_tensor(tmp_path / "a.lttf", arr)
    write_tensor(tmp_path / "b.lttf", arr)
    assert (tmp_path / "a.lttf").read_bytes() == (tmp_path / "b.lttf").read_bytes()


def test_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.lttf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        read_tensor(path)
    write_tensor(tmp_path / "good.lttf", np.ones(7, dtype=np.float32))
    good = (tmp_path / "good.lttf").read_bytes()
    (tmp_path / "short.lttf").write_bytes(good[:-3])
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(tmp_path / "short.lttf")
    (tmp_path / "long.lttf").write_bytes(good + b"x")
    with pytest.raises(FormatError, match="trailing"):
        read_tensor(tmp_path / "long.lttf")


def test_oversized_extents_fail_before_reading(tmp_path):
    # 4 extents of 65536 hold 2**64 elements, which wrap to 0 in an int64 product
    path = tmp_path / "wrap.lttf"
    path.write_bytes(b"LTTF" + bytes([1, 0, 4]) + u32(65536) * 4 + bytes(16))
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(path)
    # a 32-byte checkpoint whose one tensor declares (2**32-1)**3 elements
    path = tmp_path / "huge.lttw"
    path.write_bytes(b"LTTW" + u32(1) + (3).to_bytes(2, "little") + b"abc"
                     + b"LTTF" + bytes([1, 0, 3]) + u32(2**32 - 1) * 3)
    assert path.stat().st_size == 32
    with pytest.raises(FormatError, match="truncated"):
        read_checkpoint(path)
    # a text table of one class whose rows declare 2**32-1 columns
    path = tmp_path / "huge.lttc"
    path.write_bytes(b"LTTC" + u32(1) + u32(2**32 - 1) + (1).to_bytes(2, "little") + b"a")
    with pytest.raises(FormatError, match="truncated"):
        read_text_table(path)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    params = {
        "img.layer0.wq": rng.normal(size=(8, 8)).astype(np.float32),
        "img.cls": rng.normal(size=8).astype(np.float32),
        "logit_scale": np.asarray(4.6, dtype=np.float32),
    }
    path = tmp_path / "model.lttw"
    write_checkpoint(path, params)
    back = read_checkpoint(path)
    assert list(back) == list(params)
    for name in params:
        assert np.array_equal(back[name], params[name])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.lttw"
    path.write_bytes(b"LTTF" + bytes(8))
    with pytest.raises(FormatError, match="LTTW"):
        read_checkpoint(path)


def test_text_table_round_trip(tmp_path):
    rows = np.random.default_rng(3).normal(size=(4, 16)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    names = ["red circle", "blue square", "green triangle", "red square"]
    path = tmp_path / "classes.lttc"
    write_text_table(path, names, rows)
    names2, rows2 = read_text_table(path)
    assert names2 == names
    assert np.array_equal(rows2, rows)
    blob = path.read_bytes()
    assert blob[:4] == b"LTTC"
    assert int.from_bytes(blob[4:8], "little") == 4
    assert int.from_bytes(blob[8:12], "little") == 16


def test_text_table_shape_mismatch(tmp_path):
    with pytest.raises(FormatError):
        write_text_table(tmp_path / "t.lttc", ["a", "b"], np.ones((3, 4), np.float32))


def test_config_from_json_converts_json_types():
    cfg = config_from_json(TttConfig, {"lr": 1, "lora": {"matrices": ["q"]}})
    assert isinstance(cfg.lr, float) and cfg.lr == 1.0
    assert cfg.lora.matrices == ("q",) and cfg.lora.rank == 16


@pytest.mark.parametrize("bad,msg", [
    ({"num_view": 8}, "unknown TttConfig key.*num_view"),
    ({"lora": {"rnk": 4}}, "unknown LoraConfig key.*rnk"),
    ({"num_views": "8"}, "num_views must be int, got str"),
    ({"num_views": 8.0}, "num_views must be int, got float"),
    ({"num_views": True}, "num_views must be int, got bool"),
    ({"lora": [4]}, "LoraConfig must be a JSON object"),
    ('{"lam_mem": NaN}', r"TttConfig.lam_mem must be finite, got nan"),
    ('{"lora": {"scale": NaN}}', r"LoraConfig.scale must be finite, got nan"),
    ('{"lr": Infinity}', r"TttConfig.lr must be finite, got inf"),
    ('{"wd": -Infinity}', r"TttConfig.wd must be finite, got -inf"),
], ids=["unknown-key", "unknown-nested-key", "str-for-int", "float-for-int", "bool-for-int",
        "nested-not-object", "nan", "nested-nan", "infinity", "minus-infinity"])
def test_config_from_json_rejects_bad_keys_and_types(bad, msg):
    # the non-finite cases are JSON text, parsed the way the CLI parses a file
    with pytest.raises(ValueError, match=msg):
        config_from_json(TttConfig, json.loads(bad) if isinstance(bad, str) else bad)


# ---------------------------------------------------------------------------
# fuzzing: a truncated or byte-flipped valid file raises FormatError or loads
# a value consistent with its own header


def _well_formed_tensor(arr) -> bool:
    return (isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)
            and arr.dtype.isnative)


def _check_lttf(arr, size):
    assert _well_formed_tensor(arr)
    assert size == 7 + 4 * arr.ndim + arr.nbytes


def _check_lttw(params, size):
    assert all(isinstance(k, str) and _well_formed_tensor(v) for k, v in params.items())


def _check_lttc(table, size):
    names, rows = table
    assert all(isinstance(n, str) for n in names)
    assert rows.dtype == np.float32 and rows.ndim == 2 and rows.shape[0] == len(names)


FUZZ_FORMATS = {
    "lttf": (lambda p: write_tensor(p, np.arange(12, dtype=np.float32).reshape(2, 3, 2)),
             read_tensor, _check_lttf),
    "lttw": (lambda p: write_checkpoint(p, {"w": np.ones((2, 3), np.float32),
                                            "b": np.zeros(3, np.float64),
                                            "s": np.asarray(4.6, np.float32)}),
             read_checkpoint, _check_lttw),
    "lttc": (lambda p: write_text_table(p, ["red circle", "blue square", "green"],
                                        np.eye(3, 4, dtype=np.float32)),
             read_text_table, _check_lttc),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("fmt", sorted(FUZZ_FORMATS))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_survive_corruption(fuzz_dir, fmt, data):
    write, read, check = FUZZ_FORMATS[fmt]
    path = fuzz_dir / f"f.{fmt}"
    write(path)
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="kept bytes")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(blob))
    try:
        value = read(path)
    except FormatError:
        return
    check(value, len(blob))
