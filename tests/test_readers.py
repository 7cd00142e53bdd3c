"""Every input-file reader words a bad entry the same way: the file, then the
1-based line (the byte offset for the binary ensemble file), then what is
wrong.  Blank lines count toward line numbers but are otherwise skipped."""

import struct

import pytest

from plr.cli import _load_y_file, parse_config
from plr.core import load_dense_csv, load_observations_csv
from plr.sensing import load_ensemble
from plr.synthdata import load_count_csv, read_pgm

TEXT_READERS = {
    "config": (parse_config, b"a = 1\n"),
    "y_file": (_load_y_file, b"1\n"),
    "dense": (load_dense_csv, b"1.0,2.0\n"),
    "observations": (lambda path: load_observations_csv(path, (3, 2)), b"row,col,count\n"),
    "counts": (load_count_csv, b"hour,day,count\n"),
    "pgm": (read_pgm, b"P2\n"),
}
ENSEMBLE_HEADER = struct.Struct("<QQQdQ")

BAD_FILES = [
    pytest.param("config", b"a = 1  # one\n\n# two\nb\n", "line 4: expected 'key = value'",
                 id="config"),
    pytest.param("y_file", b"1 # one\n\n# two\n2.5\n",
                 "line 4: invalid literal for int() with base 10: '2.5'", id="y_file"),
    pytest.param("dense", b"1.0,2.0\n\n3.0\n", "line 3: expected 2 columns, got 1", id="dense"),
    pytest.param("observations", b"row,col,count\n\n1,2\n", "line 3: expected 3 fields, got 2",
                 id="observations"),
    pytest.param("counts", b"hour,day,count\n1,1,5\n\n0,1,2\n", "line 4: indices are 1-based",
                 id="counts"),
    pytest.param("observations", b"row,col,count\n1,2,9223372036854775808\n",
                 "line 2: count 9223372036854775808 above the int64 range",
                 id="observations-count-overflow"),
    pytest.param("counts", b"hour,day,count\n99999999999999999999,1,1\n",
                 "line 2: index 99999999999999999999 above the int64 range",
                 id="counts-index-overflow"),
    pytest.param("pgm", b"P2 # magic\n2 2\n255\n\n0 0\n0 x\n",
                 "line 6: expected an integer, got 'x'", id="pgm"),
    pytest.param("ensemble", b"\x00" * 10, "byte 0: expected 40 header bytes, got 10",
                 id="ensemble-short-header"),
    pytest.param("ensemble", ENSEMBLE_HEADER.pack(6, 5, 2, 0.5, 1) + b"\x01",
                 "byte 40: expected 8 mask bytes, got 1", id="ensemble-short-body"),
    pytest.param("ensemble", ENSEMBLE_HEADER.pack(6, 5, 0, 0.5, 1), "m must be >= 1, got 0",
                 id="ensemble-m-0"),
    pytest.param("ensemble", ENSEMBLE_HEADER.pack(2, 2, 4, float("nan"), 1) + b"\x00" * 4,
                 "p must lie in (0, 1), got nan", id="ensemble-p-nan"),
] + [pytest.param(name, first + b"\n\xe0\x80\n", "line 3: not UTF-8 text",
                  id=f"{name}-not-utf8") for name, (_, first) in TEXT_READERS.items()]


@pytest.mark.parametrize("reader,data,message", BAD_FILES)
def test_bad_input_names_file_and_place(tmp_path, reader, data, message):
    read = load_ensemble if reader == "ensemble" else TEXT_READERS[reader][0]
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value) == f"{path}: {message}"
