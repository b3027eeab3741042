"""Matrix JSON schema enforcement, CSV formatting, determinism."""

import json
import math

import numpy as np
import pytest

from opmeans.matio import MatrixFormatError, format_float, load_matrix, save_matrix, write_csv
from opmeans.randgen import GenSpec, random_hpd


def write_json(path, obj):
    path.write_text(json.dumps(obj))


class TestRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        m = random_hpd(GenSpec(dim=4, seed=8, cond_target=30.0))
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
        m = random_hpd(GenSpec(dim=3, seed=5, cond_target=10.0))
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        save_matrix(str(f1), m)
        save_matrix(str(f2), m)
        assert f1.read_bytes() == f2.read_bytes()


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
