import io
import math

import pytest

from wordhom import (
    DataFormatError,
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
    filt.to_tsv(buf)
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
