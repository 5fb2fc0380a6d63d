import io
import math

import pytest

from wordhom import (
    Barcode,
    DataFormatError,
    Interval,
    PrimeField,
    build_vr_filtration,
    reduce_filtration,
    sweep,
    WeightedGraph,
)
from wordhom.exports import (
    read_barcode_tsv,
    read_filtration_tsv,
    write_barcode_tsv,
    write_cycles_tsv,
    write_filtration_tsv,
    write_sweep_tsv,
)


def sample_reduction():
    g = WeightedGraph.from_dissimilarities(4, {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5, (0, 3): 0.5})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    return reduce_filtration(filt, PrimeField(2))


def test_barcode_tsv_format_and_roundtrip():
    bc = sample_reduction().barcode()
    buf = io.StringIO()
    write_barcode_tsv(buf, bc, config={"field": 2, "max_dim": 2})
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# field=2"
    assert lines[1] == "# max_dim=2"
    data = [l for l in lines if not l.startswith("#")]
    # sorted by (k, birth, death); essentials spelled "inf"
    assert data[-1] == "1\t0.5\tinf"
    cols = [l.split("\t") for l in data]
    assert all(len(c) == 3 for c in cols)
    back = read_barcode_tsv(io.StringIO(text))
    assert back == bc


def test_barcode_tsv_sorted_rows():
    bc = sample_reduction().barcode()
    buf = io.StringIO()
    write_barcode_tsv(buf, bc)
    rows = [l.split("\t") for l in buf.getvalue().splitlines()]
    keys = [(int(k), float(b), math.inf if d == "inf" else float(d)) for k, b, d in rows]
    assert keys == sorted(keys)


def test_cycles_tsv_terms():
    red = sample_reduction()
    buf = io.StringIO()
    write_cycles_tsv(buf, red)
    lines = buf.getvalue().splitlines()
    comment = [l for l in lines if l.startswith("# interval")]
    terms = [l for l in lines if not l.startswith("#")]
    assert len(comment) == len(red.barcode().all_intervals(include_zero_length=False))
    # dim-1 essential cycle: 4 edges, coefficient 1 over Z/2
    dim1 = [l.split("\t") for l in terms if l.split("\t")[0] == "1"]
    assert sorted(t[2] for t in dim1) == ["0,1", "0,3", "1,2", "2,3"]
    assert all(t[1] == "1" for t in dim1)


def test_sweep_tsv_argmax_line():
    g = WeightedGraph(4, {(0, 1): 0.9, (2, 3): 0.9, (1, 2): 0.1})
    result = sweep(g, "threshold", [0.05, 0.15, 0.95])
    buf = io.StringIO()
    write_sweep_tsv(buf, result, config={"method": "threshold"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# method=threshold"
    assert lines[-1].startswith("# argmax param=")
    rows = [l.split("\t") for l in lines[1:-1]]
    assert [float(r[0]) for r in rows] == [0.05, 0.15, 0.95]
    best = result.best
    assert f"param={best.param!r}" in lines[-1]
    assert f"Q={best.q!r}" in lines[-1]


def test_filtration_tsv_roundtrip():
    g = WeightedGraph.from_dissimilarities(3, {(0, 1): 0.25, (1, 2): 0.5})
    filt = build_vr_filtration(g, max_dim=2, max_eps=1.0)
    buf = io.StringIO()
    write_filtration_tsv(buf, filt)
    back = read_filtration_tsv(io.StringIO(buf.getvalue()))
    assert back.entries == filt.entries


def test_filtration_tsv_rejects_repeated_simplex():
    text = "0.0\t0\n0.0\t1\n0.1\t0,1\n# comment\n0.5\t0,1\n"
    with pytest.raises(DataFormatError, match="line 5: simplex 0,1 already listed on line 3"):
        read_filtration_tsv(io.StringIO(text))


def test_filtration_tsv_rejects_non_finite_birth():
    for bad in ("nan", "inf"):
        with pytest.raises(DataFormatError, match="line 2: birth must be finite"):
            read_filtration_tsv(io.StringIO(f"0.0\t0\n{bad}\t1\n"))


BAD_FILTRATIONS = {
    "negative-birth": ("0.0\t0\n-0.5\t1\n", r"line 2: birth must be finite and >= 0, got '-0.5'"),
    "missing-face": (
        "0.0\t0\n0.0\t1\n# comment\n0.5\t0,1,2\n",
        r"line 4: Simplex\(\[0, 1, 2\]\) present without its face Simplex\(\[1, 2\]\)",
    ),
    "later-born-face": (
        "0.0\t0\n0.1\t0,1\n0.3\t1\n",
        r"line 2: face Simplex\(\[1\]\) born at 0.3 after Simplex\(\[0, 1\]\) at 0.1",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FILTRATIONS))
def test_filtration_tsv_names_the_line_of_a_bad_simplex(case):
    text, message = BAD_FILTRATIONS[case]
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        read_filtration_tsv(io.StringIO(text))


def test_tsv_readers_accept_crlf_line_ends():
    red = sample_reduction()
    bc, filt = red.barcode(), red.filtration
    buf = io.StringIO()
    write_barcode_tsv(buf, bc, config={"field": 2})
    crlf = buf.getvalue().replace("\n", "\r\n")
    assert read_barcode_tsv(io.StringIO(crlf, newline="")) == bc
    buf = io.StringIO()
    write_filtration_tsv(buf, filt)
    crlf = "# comment\r\n\r\n" + buf.getvalue().replace("\n", "\r\n")
    assert read_filtration_tsv(io.StringIO(crlf, newline="")).entries == filt.entries
    with pytest.raises(DataFormatError, match=r"line 2: malformed barcode row '1\\t0.5\\tx'$"):
        read_barcode_tsv(io.StringIO("0\t0.0\tinf\r\n1\t0.5\tx\r\n", newline=""))


BAD_BARCODE_ROWS = {
    "nan-birth": ("0\tnan\t1", "birth must be finite and >= 0, got 'nan'"),
    "nan-death": ("0\t0.5\tnan", "death must be a number >= birth 0.5, got 'nan'"),
    "inf-birth": ("0\tinf\tinf", "birth must be finite and >= 0, got 'inf'"),
    "negative-birth": ("0\t-0.5\t1", r"birth must be finite and >= 0, got '-0.5'"),
    "negative-dim": ("-1\t0.0\t1", "dimension must be >= 0, got -1"),
    "death-before-birth": ("1\t0.5\t0.25", "death must be a number >= birth 0.5, got '0.25'"),
}


@pytest.mark.parametrize("case", sorted(BAD_BARCODE_ROWS))
def test_read_barcode_tsv_names_the_line_of_a_bad_row(case):
    row, message = BAD_BARCODE_ROWS[case]
    with pytest.raises(DataFormatError, match=f"^line 3: {message}$"):
        read_barcode_tsv(io.StringIO(f"# field=2\n0\t0.0\tinf\n{row}\n"))


def test_read_barcode_tsv_checks_each_row_once(monkeypatch):
    text = "# field=2\n1\t0.25\t0.75\n0\t0.5\tinf\n0\t0.0\t0.5\n0\t0.0\t0.5\n0\t0.0\t0.25\n"
    rows = [(1, 0.25, 0.75), (0, 0.5, math.inf), (0, 0.0, 0.5), (0, 0.0, 0.5), (0, 0.0, 0.25)]
    expected = Barcode([Interval(*row) for row in rows]).all_intervals()

    def refuse(self, intervals):
        raise AssertionError("the reader ran the public Barcode check")

    monkeypatch.setattr(Barcode, "__init__", refuse)
    read = read_barcode_tsv(io.StringIO(text)).all_intervals()
    monkeypatch.undo()
    assert read == expected
    assert all(type(iv) is Interval for iv in read)
    # the public constructor still refuses what the reader would
    with pytest.raises(ValueError, match="interval needs dim >= 0"):
        Barcode(read + [Interval(1, 0.5, 0.25)])


def test_no_stored_barcode_row_is_tracked_after_a_collection():
    """However a barcode is made, it stores plain rows, which the cyclic
    collector untracks; it never untracks a named tuple like Interval."""
    import gc

    made = {
        "read back": read_barcode_tsv(io.StringIO("# field=2\n0\t0.0\t0.5\n1\t0.25\tinf\n")),
        "public": Barcode([Interval(0, 0.0, 0.5), Interval(1, 0.25, math.inf, 3, None)]),
        "reduced": sample_reduction().barcode(),
    }
    gc.collect()
    for how, barcode in made.items():
        rows = [row for k in barcode.dims for row in barcode._rows(k)]
        assert rows and all(type(row) is tuple for row in rows), how
        assert not any(gc.is_tracked(row) for row in rows), how
    assert made["public"].all_intervals() == [Interval(0, 0.0, 0.5), Interval(1, 0.25, math.inf, 3, None)]


def test_barcode_tsv_prints_equal_rows_alike_and_signed_zeros_apart():
    rows = [(0, -0.0, 0.5), (0, 0.0, 0.5), (0, -0.0, 0.5), (1, 0.25, math.inf), (1, 0.25, math.inf), (1, 0.25, 0.75)]
    buf = io.StringIO()
    write_barcode_tsv(buf, Barcode([Interval(*row) for row in rows]))
    assert buf.getvalue() == "0\t-0.0\t0.5\n0\t0.0\t0.5\n0\t-0.0\t0.5\n1\t0.25\t0.75\n1\t0.25\tinf\n1\t0.25\tinf\n"
