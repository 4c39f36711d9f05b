"""Dataset loading, validation, and groups."""

import csv
import io
import os
import re
import select
import struct
import warnings

import numpy as np
import pytest

from confscreen import data
from confscreen import (
    BasisConfig,
    Dataset,
    GroupSpec,
    MissingColumnError,
    ParseError,
    ValidationError,
    load_csv,
    load_groups,
    score_covariate,
    write_csv,
)

SIX_ROWS = "O,E,C\n1,1,1\n0,1,1\n1,0,1\n0,0,0\n1,1,0\n0,0,1\n"


@pytest.fixture
def six_csv(tmp_path):
    path = tmp_path / "six.csv"
    path.write_text(SIX_ROWS)
    return path


def test_load_six_rows(six_csv):
    ds = load_csv(six_csv, "O", "E")
    assert ds.n == 6 and ds.p == 1
    assert ds.column_names == ("C",)
    assert ds.exposure.tolist() == [1, 1, 0, 0, 1, 0]


def test_missing_column(six_csv):
    with pytest.raises(MissingColumnError, match="nope"):
        load_csv(six_csv, "nope", "E")


def _assert_parse_error(path, text, message, outcome="O"):
    path.write_bytes(text.encode())
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_csv(path, outcome, "E")


def test_non_numeric_cell_names_location(tmp_path):
    path = tmp_path / "bad.csv"
    _assert_parse_error(path, "O,E,C\n1,1,x\n0,0,2\n", "non-numeric value 'x' at row 2, column 'C'")
    # Not a comment line: '#' is an ordinary character.
    _assert_parse_error(
        path, "y,E,C\n#x,1,1\n0,0,2\n", "non-numeric value '#x' at row 2, column 'y'", outcome="y"
    )
    # float() strips no information separator (np.loadtxt would).
    _assert_parse_error(
        path, "O,E,C\n1,1,1\n0,0,2\x1c\n", "non-numeric value '2\\x1c' at row 3, column 'C'"
    )


def test_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    _assert_parse_error(path, "O,E,C\n1,1,1\n0,0\n", "row 3 has 2 fields, expected 3")
    _assert_parse_error(path, "O,E,C\n1,1,1,\n0,0,2\n", "row 2 has 4 fields, expected 3")
    _assert_parse_error(path, "O,E,C\n1,1\n0,0\n", "row 2 has 2 fields, expected 3")
    # A blank line is a row of no fields, wherever it stands, at either line ending.
    for eol in ("\n", "\r\n"):
        rows = ["O,E,C", "1,1,1", "0,0,2"]
        for r in (1, 2, 3):
            text = eol.join(rows[:r] + [""] + rows[r:]) + eol
            _assert_parse_error(path, text, f"row {r + 1} has 0 fields, expected 3")


@pytest.mark.parametrize(
    "text, covariates, names",
    [
        ("O,E,C\n1,1,1_000\n0,0,\u0661\n", [1000.0, 1.0], ("C",)),
        ('O,E,C\n1,1,"2.5"\n0,0,3\n', [2.5, 3.0], ("C",)),
        ('O,E,"a,b"\n1,1,2\n0,0,3\n', [2.0, 3.0], ("a,b",)),
        ("O,E,C\n1,1,2\n0,0,3", [2.0, 3.0], ("C",)),
    ],
    ids=["float-spellings", "quoted-cell", "quoted-header-comma", "no-final-newline"],
)
def test_accepted_dialect(tmp_path, text, covariates, names):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode())
    ds = load_csv(path, "O", "E")
    assert ds.column_names == names
    assert ds.covariates[:, 0].tolist() == covariates
    assert ds.outcome.tolist() == [1.0, 0.0] and ds.exposure.tolist() == [1, 0]


def test_well_formed_file_skips_per_cell_parse(six_csv, monkeypatch):
    def per_cell(*args):
        raise AssertionError("well-formed rows went through the per-cell parse")

    monkeypatch.setattr(data, "_parse_cells", per_cell)
    ds = load_csv(six_csv, "O", "E")
    assert ds.covariates[:, 0].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 1.0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "text, error",
    [("O,E,C\n1,1,1\n0,0,2\n", None), ("O,E,C\n1,1,1\n\n0,0,2\n", "row 3 has 0 fields")],
)
def test_load_from_pipe(text, error):
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        if error is None:
            assert load_csv(path, "O", "E").covariates[:, 0].tolist() == [1.0, 2.0]
        else:
            with pytest.raises(ParseError, match=error):
                load_csv(path, "O", "E")
    finally:
        os.close(read_end)


@pytest.mark.parametrize(
    "first_row, path_taken",
    [
        # The bad byte is in the first block read, so the header read meets it.
        (None, []),
        # Past the first block: the one-call parse meets it.
        (b"1,1,1\n", ["raised UnicodeDecodeError"]),
        # A ragged row first: the one-call parse gives up and the per-cell
        # parse rereads the file up to the bad byte.
        (b"1,1\n", ["returned None"]),
    ],
    ids=["header-read", "one-call-parse", "per-cell-parse"],
)
def test_not_utf8_is_parse_error(tmp_path, monkeypatch, first_row, path_taken):
    path = tmp_path / "latin1.csv"
    if first_row is None:
        path.write_bytes(b"O,E,C\n1,1,1\n0,0,\xff2")
    else:
        path.write_bytes(b"O,E,C\n" + first_row + b"1,1,1\n" * 3000 + b"0,0,\xff2")
    fast = data._parse_rows_fast
    seen = []

    def spy(*args):
        try:
            values = fast(*args)
        except UnicodeDecodeError:
            seen.append("raised UnicodeDecodeError")
            raise
        seen.append("returned None" if values is None else "returned values")
        return values

    monkeypatch.setattr(data, "_parse_rows_fast", spy)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_csv(path, "O", "E")
    assert seen == path_taken


def test_header_only_file(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("O,E,C\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match="need at least 2 observations"):
            load_csv(path, "O", "E")
    assert not caught


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_csv(path, "O", "E")


def test_non_binary_exposure(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text("O,E,C\n1,2,1\n0,0,2\n")
    with pytest.raises(ValidationError, match="0/1"):
        load_csv(path, "O", "E")


def test_constant_exposure_rejected():
    with pytest.raises(ValidationError, match="constant"):
        Dataset(
            outcome=np.zeros(3),
            exposure=np.ones(3, dtype=int),
            covariates=np.zeros((3, 1)),
            column_names=("c",),
        )


def test_nonfinite_rejected():
    with pytest.raises(ValidationError, match="finite"):
        Dataset(
            outcome=np.array([0.0, np.nan]),
            exposure=np.array([0, 1]),
            covariates=np.zeros((2, 1)),
            column_names=("c",),
        )


def test_duplicate_column_names_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        Dataset(
            outcome=np.zeros(2),
            exposure=np.array([0, 1]),
            covariates=np.zeros((2, 2)),
            column_names=("c", "c"),
        )


def test_outcome_and_exposure_naming_one_column_rejected(tmp_path):
    path = tmp_path / "same.csv"
    path.write_text("y,e,c1,c2,c3\n1,0,1,2,3\n2,1,4,5,6\n")
    with pytest.raises(ValidationError, match="same column 'e'"):
        load_csv(path, "e", "e")


@pytest.mark.parametrize("header, repeated", [("y,e,c1,y,c3", "y"), ("y,e,c1,c1,c3", "c1")])
def test_repeated_header_name_rejected(tmp_path, header, repeated):
    path = tmp_path / "rep.csv"
    path.write_text(header + "\n1,0,1,2,3\n2,1,4,5,6\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: column {repeated!r} appears more than once")):
        load_csv(path, "y", "e")


@pytest.mark.parametrize("fast", [True, False], ids=["loadtxt", "per_cell"])
@pytest.mark.parametrize(
    "header, run",
    [
        ("y,e,c1,c2,c3", True),  # outcome and exposure first
        ("c1,c2,c3,e,y", True),  # both last
        ("y,c1,c2,c3,e", True),  # one at each end
        ("c1,y,c2,e,c3", False),  # in the middle
    ],
)
def test_load_csv_holds_one_copy(tmp_path, monkeypatch, header, run, fast):
    # The outcome and exposure are copied out of the parsed matrix; covariates
    # are a view of it exactly when their columns form one run.
    rng = np.random.default_rng(17)
    names = header.split(",")
    cells = rng.normal(size=(30, len(names)))
    cells[:, names.index("e")] = np.arange(30) % 2
    path = tmp_path / "order.csv"
    path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in cells.tolist()))
    parsed = []  # what each parse returned; load_csv keeps the last one
    parse_fast, parse_cells = data._parse_rows_fast, data._parse_cells

    def recorded(parse):
        return lambda *args: parsed.append(parse(*args)) or parsed[-1]

    monkeypatch.setattr(data, "_parse_rows_fast", recorded(parse_fast if fast else lambda *args: None))
    monkeypatch.setattr(data, "_parse_cells", recorded(parse_cells))
    ds = load_csv(path, "y", "e")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    reference = parse_cells(path, rows[0], rows[1:])
    cov = [j for j, name in enumerate(names) if name not in ("y", "e")]
    assert ds.column_names == tuple(names[j] for j in cov)
    assert ds.outcome.tobytes() == reference[:, names.index("y")].tobytes()
    assert ds.exposure.tolist() == reference[:, names.index("e")].tolist()
    assert ds.covariates.tobytes() == np.ascontiguousarray(reference[:, cov]).tobytes()
    assert not np.shares_memory(ds.covariates, ds.outcome)
    assert not np.shares_memory(ds.covariates, ds.exposure)
    assert len(parsed) == (1 if fast else 2)
    assert np.shares_memory(ds.covariates, parsed[-1]) == run
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 0.0


def test_bounded_rescale_records_affine(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("O,E,C\n10,1,0.1\n20,0,0.2\n30,1,0.3\n15,0,0.4\n")
    ds = load_csv(path, "O", "E", outcome_kind="bounded")
    assert ds.outcome.min() == 0.0 and ds.outcome.max() == 1.0
    assert ds.outcome_scale == 20.0 and ds.outcome_offset == 10.0
    np.testing.assert_allclose(ds.outcome_original(), [10, 20, 30, 15])


def test_bounded_already_in_unit_interval(tmp_path):
    path = tmp_path / "u.csv"
    path.write_text("O,E,C\n0.2,1,1\n0.8,0,2\n")
    ds = load_csv(path, "O", "E", outcome_kind="bounded")
    assert ds.outcome_scale == 1.0 and ds.outcome_offset == 0.0


def test_write_read_roundtrip(tmp_path, six_csv):
    ds = load_csv(six_csv, "O", "E")
    out = tmp_path / "copy.csv"
    write_csv(ds, out, outcome_col="O", exposure_col="E")
    ds2 = load_csv(out, "O", "E")
    np.testing.assert_array_equal(ds.outcome, ds2.outcome)
    np.testing.assert_array_equal(ds.exposure, ds2.exposure)
    np.testing.assert_array_equal(ds.covariates, ds2.covariates)


# Spellings at the edges of float parsing: 17 significant digits, the smallest
# subnormal, signed zero, the largest decades, and values that round to them.
BANK = [
    "0.1", "0.30000000000000004", "1.0000000000000002", "2.2250738585072014e-308",
    "4.9e-324", "5e-324", "2.4703282292062328e-324", "-0.0", "0", "-0",
    "1e308", "1.7976931348623157e+308", "-1.7976931348623157e308", "123456789012345678",
    "3.141592653589793238462643383279", "1E-5", ".5", "5.", "+7.25", "9007199254740993",
    "-2.718281828459045", "6.02214076e23", "1e-320", "0.0000000000000000001",
]


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_load_csv_bitwise_equals_float(tmp_path):
    rng = np.random.default_rng(5)
    random_cells = [f"{v:.16e}" for v in rng.normal(scale=1e3, size=60)]
    cells = BANK + random_cells
    width = 4
    cells += ["1"] * (-len(cells) % width)
    grid = [cells[i : i + width] for i in range(0, len(cells), width)]
    lines = ["O,E," + ",".join(f"c{j}" for j in range(width))]
    lines += [f"{r % 3},{r % 2}," + ",".join(row) for r, row in enumerate(grid)]
    path = tmp_path / "bank.csv"
    path.write_text("\n".join(lines) + "\n")
    ds = load_csv(path, "O", "E")
    assert _bits(ds.covariates.ravel().tolist()) == _bits(float(c) for c in cells)
    assert _bits(ds.outcome.tolist()) == _bits(float(r % 3) for r in range(len(grid)))


# The split parse (data._parse_split), forced onto small files: every chunk
# may be a single byte, and os.sched_getaffinity reports as many CPUs as the
# test asks for, so the cuts fall after different rows.


def _split_on(monkeypatch, cpus):
    """Split files of any size into ``cpus`` chunks; returns the pids load_csv forks."""
    monkeypatch.setattr(data, "_CHUNK_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_file(path, header, eol, rows=23):
    """A file of ``rows`` rows of cells of varying length; returns the _parse_cells matrix of it."""
    rng = np.random.default_rng(rows)
    cells = [
        [f"{r % 3}", f"{r % 2}"] + [repr(v) for v in rng.normal(size=3).round(r % 17).tolist()]
        for r in range(rows)
    ]
    cells[rows // 2][2] = BANK[rows % len(BANK)]
    path.write_bytes(eol.join([header] + [",".join(row) for row in cells]).encode() + eol.encode())
    with open(path, newline="", encoding="utf-8") as fh:
        names = next(csv.reader(fh))
    return data._parse_cells(path, names, cells)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("header", ["O,E,a,b,c", 'O,E,"a\nb",b,"c,d"'], ids=["plain", "quoted-newline"])
@pytest.mark.parametrize("cpus", [2, 3, 5, 40])
def test_split_parse_bitwise_equals_parse_cells(tmp_path, monkeypatch, eol, header, cpus):
    forks = _split_on(monkeypatch, cpus)
    quotechars = []  # of the parent's _parse_rows_fast calls: None parses a piece, '"' the whole file
    parse = data._parse_rows_fast

    def recorded(fh, width, quotechar='"'):
        quotechars.append(quotechar)
        return parse(fh, width, quotechar)

    monkeypatch.setattr(data, "_parse_rows_fast", recorded)
    path = tmp_path / "split.csv"
    reference = _split_file(path, header, eol)
    ds = load_csv(path, "O", "E")
    assert ds.covariates.tobytes() == np.ascontiguousarray(reference[:, 2:]).tobytes()
    assert ds.outcome.tobytes() == reference[:, 0].tobytes()
    # Cuts are made only after b"\n", so a file of CR line ends is not split;
    # pieces of one row are cut until the file ends, and the parent parses
    # those it takes, however many, and never the whole file.
    if eol == "\r":
        assert forks == [] and quotechars == ['"']
    else:
        assert 0 < len(forks) < min(cpus, 23) and '"' not in quotechars
    _assert_no_child()


@pytest.mark.parametrize("where", ["first", "last"], ids=["parent-chunk", "child-chunk"])
@pytest.mark.parametrize(
    "row, message",
    [
        (b'1,1,"2.5"', None),
        (b'1,1,"2\n"', None),
        (b"", "row {} has 0 fields, expected 3"),
        (b"1,1", "row {} has 2 fields, expected 3"),
        (b"1,1,x", "non-numeric value 'x' at row {}, column 'C'"),
        (b"1,1,\xff2", "not UTF-8 text (invalid start byte)"),
    ],
    ids=["quoted-cell", "quoted-line-break", "blank-line", "short-row", "bad-cell", "not-utf8"],
)
def test_split_parse_irregular_chunk_as_one_process(tmp_path, monkeypatch, where, row, message):
    # An irregular row early or late in the file sends the whole file down
    # the one-process parse, which gives its values or its error.  Row 1200
    # lies past the 8 KiB block that the header read decodes.
    rows = [b"%d,%d,%d" % (r % 3, r % 2, r) for r in range(4000)]
    at = 1200 if where == "first" else 3996
    rows[at] = row
    path = tmp_path / "irregular.csv"
    path.write_bytes(b"O,E,C\n" + b"\n".join(rows) + b"\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if message is None:
        expected = load_csv(path, "O", "E").covariates.tolist()
    else:
        with pytest.raises(ParseError) as one_process:
            load_csv(path, "O", "E")
        assert str(one_process.value) == f"{path}: {message.format(at + 2)}"
    forks = _split_on(monkeypatch, 2)
    if message is None:
        assert load_csv(path, "O", "E").covariates.tolist() == expected
    else:
        with pytest.raises(ParseError) as split:
            load_csv(path, "O", "E")
        assert str(split.value) == str(one_process.value)
    assert len(forks) == 1
    _assert_no_child()


@pytest.mark.parametrize("cpus", [2, 3, 40])
@pytest.mark.parametrize(
    "row, message",
    [(b'1,1,"2.5"', None), (b"1,1,x", "non-numeric value 'x' at row 302, column 'C'")],
    ids=["quoted-cell", "bad-cell"],
)
def test_split_parse_irregular_piece_of_a_child_as_one_process(tmp_path, monkeypatch, cpus, row, message):
    # Pieces of one row each.  The parent holds its first piece until a
    # child has taken the piece of the irregular row 302; that child sends
    # nothing, and the file is parsed in one process.
    rows = [b"%d,%d,%d" % (r % 3, r % 2, r) for r in range(400)]
    rows[300] = row
    path = tmp_path / "pieces.csv"
    path.write_bytes(b"O,E,C\n" + b"\n".join(rows) + b"\n")
    at = len(b"O,E,C\n" + b"\n".join(rows[:300]) + b"\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    if message is None:
        expected = load_csv(path, "O", "E").covariates.tobytes()
    else:
        with pytest.raises(ParseError, match=re.escape(message)):
            load_csv(path, "O", "E")
    forks = _split_on(monkeypatch, cpus)
    parent, waited = os.getpid(), []
    taken, take = os.pipe()
    parse_chunk = data._parse_chunk

    def held(fd, start, end, width):
        if os.getpid() != parent and start == at:
            os.write(take, b"1")
        elif os.getpid() == parent and not waited:
            waited.append(select.select([taken], [], [], 30)[0])
        return parse_chunk(fd, start, end, width)

    monkeypatch.setattr(data, "_parse_chunk", held)
    try:
        if message is None:
            assert load_csv(path, "O", "E").covariates.tobytes() == expected
        else:
            with pytest.raises(ParseError, match=re.escape(message)):
                load_csv(path, "O", "E")
    finally:
        os.close(taken)
        os.close(take)
    assert waited == [[taken]] and len(forks) == cpus - 1
    _assert_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_split_threshold(tmp_path, monkeypatch):
    # Data rows of 1 MiB or more are split among the usable CPUs, 512 KiB or
    # more to a chunk; one byte less is parsed in one process.
    cpus = len(os.sched_getaffinity(0))
    rng = np.random.default_rng(8)
    header = b"O,E,C\n"
    rows = b"".join(b"%d,%d,%r\n" % (r % 5, r % 2, v) for r, v in enumerate(rng.normal(size=50_000).tolist()))
    path = tmp_path / "threshold.csv"
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for size, chunks in ((2 * data._CHUNK_MIN_BYTES - 1, 1), (2 * data._CHUNK_MIN_BYTES, min(cpus, 2))):
        cut = rows.rindex(b"\n", 0, size - 8) + 1
        path.write_bytes(header + rows[:cut] + b"9" * (size - cut - 5) + b",1,0\n")
        assert path.stat().st_size == len(header) + size
        forks.clear()
        ds = load_csv(path, "O", "E")
        assert len(forks) == chunks - 1
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert ds.covariates.tobytes() == load_csv(path, "O", "E").covariates.tobytes()
        _assert_no_child()


def test_one_usable_cpu_forks_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_MIN_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)

    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    path = tmp_path / "one.csv"
    reference = _split_file(path, "O,E,a,b,c", "\n")
    assert load_csv(path, "O", "E").covariates.tobytes() == np.ascontiguousarray(reference[:, 2:]).tobytes()


def test_no_child_outlives_an_interrupted_split_parse(tmp_path, monkeypatch):
    forks = _split_on(monkeypatch, 4)
    parent = os.getpid()
    parse_chunk = data._parse_chunk

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_chunk(*args)

    monkeypatch.setattr(data, "_parse_chunk", interrupted)
    path = tmp_path / "interrupt.csv"
    _split_file(path, "O,E,a,b,c", "\n")
    with pytest.raises(KeyboardInterrupt):
        load_csv(path, "O", "E")
    assert len(forks) == 3
    _assert_no_child()


def _reference_csv_bytes(dataset, outcome_col, exposure_col):
    """The write_csv format as csv.writer rows of repr'd floats."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([outcome_col, exposure_col, *dataset.column_names])
    for i in range(dataset.n):
        writer.writerow(
            [repr(float(dataset.outcome[i])), int(dataset.exposure[i])]
            + [repr(float(v)) for v in dataset.covariates[i]]
        )
    return buf.getvalue().encode()


def _bank_dataset(n):
    """A continuous Dataset of ``n`` rows with BANK's values, -0.0, subnormals and 1e308, and a quoted name."""
    rng = np.random.default_rng(n)
    bank = np.array([float(c) for c in BANK])
    outcome = rng.normal(size=n)
    outcome[::7] = -0.0
    outcome[1:3] = 5e-324, 1e308
    covariates = np.column_stack(
        [rng.normal(size=n), np.resize(bank, n), rng.uniform(-1e-300, 1e-300, size=n)]
    )
    return Dataset(
        outcome=outcome,
        exposure=np.arange(n) % 2,
        covariates=covariates,
        column_names=("plain", 'needs "quoting", twice', "z"),
    )


def test_write_csv_bytes_and_bitwise_roundtrip(tmp_path):
    ds = _bank_dataset(40)
    path = tmp_path / "w.csv"
    write_csv(ds, path, outcome_col="out,come", exposure_col="E")
    assert path.read_bytes() == _reference_csv_bytes(ds, "out,come", "E")
    back = load_csv(path, "out,come", "E")
    assert back.column_names == ds.column_names
    assert _bits(back.outcome.tolist()) == _bits(ds.outcome.tolist())
    assert _bits(back.covariates.ravel().tolist()) == _bits(ds.covariates.ravel().tolist())
    assert np.array_equal(back.exposure, ds.exposure)


def test_bounded_write_read_roundtrip_keeps_the_original_scale(tmp_path):
    # A bounded outcome is written on its original scale, so that a reload
    # finds the same affine map and the same scores.
    rng = np.random.default_rng(12)
    n = 200
    outcome = rng.uniform(2.0, 9.7, size=n)
    outcome[:2] = 2.0, 9.7
    covariates = rng.normal(size=(n, 3))
    path = tmp_path / "bounded.csv"
    rows = zip(outcome.tolist(), covariates.tolist())
    lines = ["O,E,a,b,c"] + [f"{y!r},{r % 2}," + ",".join(map(repr, row)) for r, (y, row) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")
    ds = load_csv(path, "O", "E", outcome_kind="bounded")
    copy = tmp_path / "copy.csv"
    write_csv(ds, copy, outcome_col="O", exposure_col="E")
    back = load_csv(copy, "O", "E", outcome_kind="bounded")
    assert back.outcome_offset == ds.outcome_offset == 2.0
    assert back.outcome_scale == pytest.approx(ds.outcome_scale, rel=1e-15)
    np.testing.assert_allclose(back.outcome_original(), outcome, rtol=1e-15)
    assert _bits(back.covariates.ravel().tolist()) == _bits(covariates.ravel().tolist())
    basis = BasisConfig()
    assert score_covariate(back, 1, "dr", basis).phi_hat == pytest.approx(
        score_covariate(ds, 1, "dr", basis).phi_hat, rel=1e-9
    )


# The split write (write_csv through _fork.map_split), forced onto small
# datasets by the split_on fixture: items of one row, and as many usable CPUs
# as the test asks for.


@pytest.mark.parametrize("cpus", [2, 3, 40])
@pytest.mark.parametrize("window_cells", [1 << 18, 40], ids=["one-window", "windows-of-8-rows"])
def test_split_write_equals_csv_writer(tmp_path, monkeypatch, split_on, cpus, window_cells):
    # Each window's rows are formatted in forked slices and written in row
    # order: the bytes are csv.writer's at any CPU count.
    n, width = 45, 5
    monkeypatch.setattr(data, "_WINDOW_CELLS", window_cells)
    ds = _bank_dataset(n)
    forks = split_on(cpus)
    path = tmp_path / "split.csv"
    write_csv(ds, path, outcome_col="out,come", exposure_col="E")
    assert path.read_bytes() == _reference_csv_bytes(ds, "out,come", "E")
    window = max(1, window_cells // width)
    assert len(forks) == sum(min(cpus, n - start, window) - 1 for start in range(0, n, window))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_write_split_threshold(tmp_path, monkeypatch):
    # A window of 2 * _WRITE_MIN_CELLS cells or more is formatted in one
    # process per usable CPU; a write of one row less forks nothing.
    cpus = len(os.sched_getaffinity(0))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rng = np.random.default_rng(14)
    width = 32
    rows = 2 * data._WRITE_MIN_CELLS // width
    path = tmp_path / "threshold.csv"
    for n, slices in ((rows - 1, 1), (rows, min(cpus, 2))):
        names = tuple(f"c{j}" for j in range(width - 2))
        ds = Dataset(rng.normal(size=n), np.arange(n) % 2, rng.normal(size=(n, width - 2)), names)
        forks.clear()
        write_csv(ds, path)
        assert len(forks) == slices - 1
        assert path.read_bytes() == _reference_csv_bytes(ds, "outcome", "exposure")
        _assert_no_child()


def test_no_child_outlives_an_interrupted_write(tmp_path, monkeypatch, split_on):
    forks = split_on(4)
    parent = os.getpid()
    csv_rows = data._csv_rows

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return csv_rows(*args)

    monkeypatch.setattr(data, "_csv_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_csv(_bank_dataset(12), tmp_path / "interrupt.csv")
    assert len(forks) == 3  # the fixture checks that each has been reaped


@pytest.mark.parametrize("fault", ["raises", "warns"])
def test_faulty_child_slice_is_written_by_the_parent(tmp_path, monkeypatch, split_on, fault):
    # Every child raises or warns (a warning is an error in a child) on every
    # row it takes and returns none of them; the parent formats each of those
    # rows itself, once, after its own, and the file is csv.writer's.
    forks = split_on(3)
    parent, in_parent = os.getpid(), []
    csv_rows = data._csv_rows

    def faulty(outcome, exposure, covariates):
        if os.getpid() != parent:
            if fault == "raises":
                raise RuntimeError("child fails")
            warnings.warn("child warns", RuntimeWarning)
        in_parent.extend(covariates[:, 0].tolist())
        return csv_rows(outcome, exposure, covariates)

    monkeypatch.setattr(data, "_csv_rows", faulty)
    ds = _bank_dataset(12)
    path = tmp_path / "faulty.csv"
    write_csv(ds, path, outcome_col="out,come", exposure_col="E")
    assert path.read_bytes() == _reference_csv_bytes(ds, "out,come", "E")
    assert len(forks) == 2 and sorted(in_parent) == sorted(ds.covariates[:, 0].tolist())


def test_dataset_arrays_read_only(six_csv):
    ds = load_csv(six_csv, "O", "E")
    with pytest.raises(ValueError):
        ds.outcome[0] = 99.0


def test_dataset_constant_columns_are_derived_once_read_only():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(500, 5))
    c[:, 1] = 1.1  # its sample sd is a rounding-level 2.2e-16, not 0
    c[:, 3] = 0.0
    c[-1, 4] = c[0, 4] = 7.0
    c[1:-1, 4] = 7.0
    c[7, 0] = c[0, 0]
    ds = Dataset(rng.normal(size=500), np.tile([0, 1], 250), c, tuple(f"c{j}" for j in range(5)))
    assert ds.constant_columns.tolist() == data._constant_columns(ds.covariates).tolist()
    assert ds.constant_columns.tolist() == [False, True, False, True, True]
    with pytest.raises(ValueError):
        ds.constant_columns[0] = True


def _dataset_pq(p):
    rng = np.random.default_rng(0)
    return Dataset(
        outcome=rng.normal(size=10),
        exposure=np.tile([0, 1], 5),
        covariates=rng.normal(size=(10, p)),
        column_names=tuple(f"c{j}" for j in range(p)),
    )


def test_groups_validate_and_indices(tmp_path):
    ds = _dataset_pq(4)
    path = tmp_path / "g.json"
    path.write_text('{"g1": ["c0", "c2"], "g2": ["c3"]}')
    spec = load_groups(path)
    assert spec.member_indices(ds) == [("g1", (0, 2)), ("g2", (3,))]


def test_groups_unknown_column(tmp_path):
    ds = _dataset_pq(2)
    path = tmp_path / "g.json"
    path.write_text('{"g1": ["zz"]}')
    with pytest.raises(MissingColumnError, match="zz"):
        load_groups(path).member_indices(ds)


def test_groups_duplicate_membership():
    ds = _dataset_pq(2)
    spec = GroupSpec(groups=(("a", ("c0",)), ("b", ("c0",))))
    with pytest.raises(ValidationError, match="more than one group"):
        spec.validate(ds)


def test_member_indices_rejects_overlapping_groups():
    ds = _dataset_pq(2)
    spec = GroupSpec(groups=(("a", ("c0", "c1")), ("b", ("c1",))))
    with pytest.raises(ValidationError, match="more than one group"):
        spec.member_indices(ds)


def test_groups_column_listed_twice_in_one_group():
    ds = _dataset_pq(5)
    spec = GroupSpec(groups=(("a", ("c0",)), ("g", ("c4", "c1", "c4"))))
    with pytest.raises(ValidationError, match="^group 'g' lists column 'c4' twice$"):
        spec.validate(ds)


def test_group_file_without_groups(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{}")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: group file defines no groups$"):
        load_groups(path)


def test_groups_empty_group():
    ds = _dataset_pq(2)
    spec = GroupSpec(groups=(("a", ()),))
    with pytest.raises(ValidationError, match="empty"):
        spec.validate(ds)


def test_groups_duplicate_key_rejected(tmp_path):
    # json.load alone keeps the last "g" and silently drops the first.
    path = tmp_path / "g.json"
    path.write_text('{"g": ["c1"], "g": ["c2", "c3"]}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: invalid group file: duplicate key 'g'$"):
        load_groups(path)


def test_groups_bad_json(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_groups(path)
