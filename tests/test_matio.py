"""Matrix JSON schema enforcement, CSV formatting, determinism."""

import base64
import json
import math
import re
import struct

import numpy as np
import pytest

from opmeans.matio import MatrixFormatError, format_float, load_matrix, save_matrix, write_csv
from opmeans.randgen import GenSpec, random_hpd


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def reference_load(path):
    """The per-entry conversion that the one-step reader reproduces."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    flat = np.empty(data["n"] ** 2, dtype=np.complex128)
    for idx, (re, im) in enumerate(data["entries"]):
        flat[idx] = complex(re, im)
    return flat.reshape(data["n"], data["n"])


def reference_save(path, m):
    """The entry-by-entry payload through json.dump's pure-Python encoder."""
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel(order="C")]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries, "n": m.shape[0]}, fh, sort_keys=True)
        fh.write("\n")


SUBNORMAL = 5e-324
EDGE_MATRIX = np.array([[-0.0 + 1j * SUBNORMAL, 1e308 - 0.0j, 2.5e-310 - 1e-300j],
                        [0.1 + 0.2j, -(2.0**53 + 2), 1 / 3 - 0.0j],
                        [complex(-0.0, -0.0), 7.0, -1e-320 + 3e300j]])


class TestRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        m, _ = random_hpd(GenSpec(dim=4, seed=8, cond_target=30.0))
        f = tmp_path / "m.json"
        save_matrix(str(f), m)
        assert np.array_equal(load_matrix(str(f)), m)

    def test_row_major_order(self, tmp_path):
        f = tmp_path / "m.json"
        write_json(f, {"n": 2, "entries": [[1, 0], [2, 0], [3, 0], [4, 0]]})
        m = load_matrix(str(f))
        assert np.array_equal(m, np.array([[1, 2], [3, 4]], dtype=complex))

    def test_complex_entries(self, tmp_path):
        f = tmp_path / "m.json"
        save_matrix(str(f), np.array([[1 + 2j]], dtype=complex))
        data = json.loads(f.read_text())
        assert data == {"entries": [[1.0, 2.0]], "n": 1}

    def test_deterministic_bytes(self, tmp_path):
        m, _ = random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(f1), m)
        save_matrix(str(f2), m)
        assert f1.read_bytes() == f2.read_bytes()


class TestOneStepFormat:
    """The C encoder and the one-step reader keep the per-entry bytes and bits."""

    @pytest.mark.parametrize("m", [EDGE_MATRIX, random_hpd(GenSpec(dim=24, seed=3, cond_target=100.0))[0],
                                   random_hpd(GenSpec(dim=5, seed=4, cond_target=10.0))[0].T],
                             ids=["edges", "n24", "transposed"])
    def test_writer_matches_pure_python_encoder(self, tmp_path, m):
        f, ref = tmp_path / "m.json", tmp_path / "ref.json"
        save_matrix(str(f), m)
        reference_save(str(ref), m)
        assert f.read_bytes() == ref.read_bytes()

    def test_save_load_round_trip_byte_stable(self, tmp_path):
        for m in (EDGE_MATRIX, random_hpd(GenSpec(dim=24, seed=9, cond_target=1e6))[0]):
            f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
            save_matrix(str(f1), m)
            back = load_matrix(str(f1))
            assert back.tobytes() == np.ascontiguousarray(m).tobytes()
            save_matrix(str(f2), back)
            assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("entries", [
        [[0, 0], [2**53 + 1, -(2**53 + 1)], [2**63 + 1, 10**300], [-(10**300), 2**64 + 1]],
        [[-0.0, 0.0], [SUBNORMAL, -SUBNORMAL], [2.2250738585072e-308, -1e-310], [0, -0.0]],
        [[1, 0.5], [-3, 2**1023 * 3 // 2 + 1], [1e308, -1e308], [7, 2**62 - 1]],
    ], ids=["ints", "zeros-subnormals", "mixed"])
    def test_reader_matches_reference_loop(self, tmp_path, entries):
        f = tmp_path / "m.json"
        write_json(f, {"n": 2, "entries": entries})
        got = load_matrix(str(f))
        assert got.shape == (2, 2) and got.dtype == np.complex128
        assert got.tobytes() == reference_load(str(f)).tobytes()

    @pytest.mark.parametrize("entry, message", [
        ("[true, 0]", "must hold two numbers"),
        ("[0, false]", "must hold two numbers"),
        ('["1.5", 0]', "must hold two numbers"),
        ("[null, 0]", "must hold two numbers"),
        ("[[1, 2], 0]", "must hold two numbers"),
        ("[[1, 2], [3, 4]]", "must hold two numbers"),
        ("[1]", "must be a \\[re, im\\] pair"),
        ("[1, 0, 0]", "must be a \\[re, im\\] pair"),
        ("3", "must be a \\[re, im\\] pair"),
        ('{"re": 1, "im": 0}', "must be a \\[re, im\\] pair"),
        ("[NaN, 0]", "must be finite"),
        ("[0, Infinity]", "must be finite"),
        ("[-Infinity, 0]", "must be finite"),
        ("[1e400, 0]", "must be finite"),
        ("[1%s, 0]" % ("0" * 400), "must be finite"),
        ("[0, -1%s]" % ("0" * 400), "must be finite"),
    ], ids=["true", "false", "string", "null", "nested", "two-lists", "one", "three", "number",
            "object", "nan", "inf", "minus-inf", "1e400", "int-re", "int-im"])
    def test_rejects_with_message_and_index(self, tmp_path, entry, message):
        # the first bad entry is named, though a later one is bad too
        f = tmp_path / "bad.json"
        f.write_text('{"n": 2, "entries": [[1, 0], [0.5, -2], %s, [NaN, true]]}' % entry)
        with pytest.raises(MatrixFormatError, match=r"^%s: entries\[2\] %s$" % (re.escape(str(f)), message)):
            load_matrix(str(f))


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFormatError):
            load_matrix(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(MatrixFormatError, match="invalid JSON"):
            load_matrix(str(f))

    def test_top_level_not_object(self, tmp_path):
        f = tmp_path / "bad.json"
        write_json(f, [1, 2, 3])
        with pytest.raises(MatrixFormatError, match="top level"):
            load_matrix(str(f))

    def test_bad_n(self, tmp_path):
        f = tmp_path / "bad.json"
        write_json(f, {"n": 0, "entries": []})
        with pytest.raises(MatrixFormatError, match="'n'"):
            load_matrix(str(f))
        write_json(f, {"n": "2", "entries": [[1, 0]] * 4})
        with pytest.raises(MatrixFormatError, match="'n'"):
            load_matrix(str(f))

    def test_wrong_length(self, tmp_path):
        f = tmp_path / "bad.json"
        write_json(f, {"n": 2, "entries": [[1, 0], [2, 0], [3, 0]]})
        with pytest.raises(MatrixFormatError, match="n\\^2"):
            load_matrix(str(f))

    def test_entry_not_pair(self, tmp_path):
        f = tmp_path / "bad.json"
        write_json(f, {"n": 1, "entries": [[1, 0, 0]]})
        with pytest.raises(MatrixFormatError, match="entries\\[0\\]"):
            load_matrix(str(f))

    def test_entry_not_number(self, tmp_path):
        f = tmp_path / "bad.json"
        write_json(f, {"n": 1, "entries": [["1", 0]]})
        with pytest.raises(MatrixFormatError, match="numbers"):
            load_matrix(str(f))

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"n": 1, "entries": [[Infinity, 0]]}')
        with pytest.raises(MatrixFormatError, match="finite"):
            load_matrix(str(f))
        f.write_text('{"n": 1, "entries": [[NaN, 0]]}')
        with pytest.raises(MatrixFormatError, match="finite"):
            load_matrix(str(f))

    @pytest.mark.parametrize("entry", ["[1%s, 0]", "[0, -1%s]"], ids=["re", "im"])
    def test_integer_beyond_double_range_rejected(self, tmp_path, entry):
        # a 401-digit integer literal parses as a Python int that no float holds
        f = tmp_path / "bad.json"
        f.write_text('{"n": 2, "entries": [[1, 0], %s, [0, 0], [1, 0]]}' % (entry % ("0" * 400)))
        with pytest.raises(MatrixFormatError, match=r"entries\[1\] must be finite"):
            load_matrix(str(f))

    def test_integer_past_the_digit_limit_rejected(self, tmp_path):
        # Python refuses to convert an integer literal of more than 4300 digits
        f = tmp_path / "bad.json"
        f.write_text('{"n": 1, "entries": [[1%s, 0]]}' % ("0" * 5000))
        with pytest.raises(MatrixFormatError, match="bad.json: invalid JSON"):
            load_matrix(str(f))


class TestFrame:
    """The optional field 'frame': base64 of the frame's little-endian
    complex128 values in row-major order, checked on reading."""

    @staticmethod
    def framed(path, n=3, frame=None):
        m, eig = random_hpd(GenSpec(dim=n, seed=8, cond_target=30.0))
        save_matrix(str(path), m, eig.frame if frame is None else frame)
        return m, eig.frame

    def test_round_trip_bitwise(self, tmp_path):
        f = tmp_path / "m.json"
        m, frame = self.framed(f)
        got, got_frame = load_matrix(str(f), with_frame=True)
        assert np.array_equal(got, m) and np.array_equal(got_frame, frame)
        assert np.array_equal(load_matrix(str(f)), m)

    def test_encoding(self, tmp_path):
        f = tmp_path / "m.json"
        _, frame = self.framed(f)
        data = json.loads(f.read_text())
        assert list(data) == ["entries", "frame", "n"]
        raw = base64.b64decode(data["frame"])
        assert raw == b"".join(struct.pack("<dd", z.real, z.imag) for z in frame.ravel())

    def test_absent_frame_is_none(self, tmp_path):
        f = tmp_path / "m.json"
        m, _ = random_hpd(GenSpec(dim=3, seed=8, cond_target=30.0))
        save_matrix(str(f), m)
        got, frame = load_matrix(str(f), with_frame=True)
        assert np.array_equal(got, m) and frame is None
        assert "frame" not in json.loads(f.read_text())

    @pytest.mark.parametrize("value, message", [
        (3, "must be a base64 string"),
        ("not base64!", "is not base64"),
        (base64.b64encode(bytes(16 * 8)).decode(), r"must hold n\^2 = 9 complex128 values, got 128 bytes"),
        (base64.b64encode(np.full(9, np.nan, dtype="<c16").tobytes()).decode(), "frame entries must be finite"),
        (base64.b64encode((2.0 * np.eye(3, dtype="<c16")).tobytes()).decode(), "frame is not unitary"),
    ], ids=["number", "not-base64", "length", "non-finite", "not-unitary"])
    def test_bad_frame_names_the_file(self, tmp_path, value, message):
        f = tmp_path / "bad.json"
        self.framed(f)
        data = json.loads(f.read_text())
        data["frame"] = value
        write_json(f, data)
        for with_frame in (True, False):  # the schema holds for a reader that takes no frame too
            with pytest.raises(MatrixFormatError, match="^%s: field 'frame'.*%s" % (re.escape(str(f)), message)):
                load_matrix(str(f), with_frame=with_frame)


class TestCsv:
    def test_float_format_17_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(1.0) == "1"
        assert format_float(math.nan) == "nan"

    def test_write_csv(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(str(f), ["a", "b"], [(1, 0.5), (2, 0.25)])
        lines = f.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert len(lines) == 3

    def test_csv_deterministic(self, tmp_path):
        f1, f2 = tmp_path / "1.csv", tmp_path / "2.csv"
        rows = [(0.1, "x"), (0.2, "y")]
        write_csv(str(f1), ["v", "s"], rows)
        write_csv(str(f2), ["v", "s"], rows)
        assert f1.read_bytes() == f2.read_bytes()
