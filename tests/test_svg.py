import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from wordhom import Barcode, Interval, render_barcode_svg
from wordhom.svg import _escape

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg_text):
    return ET.fromstring(svg_text)


def bars(root):
    # skip the background rect
    return [r for r in root.iter(f"{SVG_NS}rect")][1:]


def test_empty_barcode_is_valid_svg_with_axis():
    doc = render_barcode_svg(Barcode([]))
    root = parse(doc)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") == "960"
    assert len(list(root.iter(f"{SVG_NS}line"))) >= 1
    assert bars(root) == []


def test_single_interval_bar_geometry():
    bc = Barcode([Interval(0, 0.0, 0.4)])
    doc = render_barcode_svg(bc, axis_max=0.8)
    root = parse(doc)
    (bar,) = bars(root)
    width = float(bar.get("width"))
    x = float(bar.get("x"))
    # half the axis at axis_max=0.8
    plot_w = 960 - 70 - 50
    assert abs(width - plot_w / 2) < 1.0
    assert abs(x - 70.0) < 1e-9


def test_axis_max_must_be_finite_and_positive():
    bc = Barcode([Interval(0, 0.0, 0.4)])
    for bad in (math.nan, math.inf, -1.0, 0.0, True, "2"):
        rule = "be finite and > 0" if isinstance(bad, float) else "be a real number"
        with pytest.raises(ValueError, match=f"^axis_max must {rule}, got"):
            render_barcode_svg(bc, axis_max=bad)
    # the derived default still falls back to [0, 1] for an all-zero barcode
    zero = Barcode([Interval(0, 0.0, 0.0)])
    assert render_barcode_svg(zero, True) == render_barcode_svg(zero, True, axis_max=1.0)


def test_infinite_bars_get_arrowheads(shell_arm):
    from wordhom import Filtration, PrimeField, reduce_filtration

    bc = reduce_filtration(Filtration([(s, 0.0) for s in shell_arm]), PrimeField(2)).barcode()
    doc = render_barcode_svg(bc)
    root = parse(doc)
    n_infinite = sum(1 for iv in bc.all_intervals() if iv.is_infinite)
    arrows = list(root.iter(f"{SVG_NS}polygon"))
    assert len(arrows) == n_infinite >= 2


def test_groups_per_dimension(shell_arm):
    bc = Barcode(
        [Interval(0, 0.0, math.inf), Interval(0, 0.0, 0.5), Interval(1, 0.2, math.inf)]
    )
    doc = render_barcode_svg(bc)
    root = parse(doc)
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert any(t.startswith("k = 0") for t in texts)
    assert any(t.startswith("k = 1") for t in texts)
    assert len(bars(root)) == 3


def test_zero_length_bars_filtered_by_default():
    bc = Barcode([Interval(0, 0.3, 0.3), Interval(0, 0.0, 1.0)])
    assert len(bars(parse(render_barcode_svg(bc)))) == 1
    assert len(bars(parse(render_barcode_svg(bc, include_zero_length=True)))) == 2


def test_deterministic_output():
    bc = Barcode([Interval(0, 0.0, 0.7), Interval(1, 0.1, math.inf)])
    assert render_barcode_svg(bc, title="barcode") == render_barcode_svg(bc, title="barcode")


def test_title_escaped():
    bc = Barcode([])
    doc = render_barcode_svg(bc, title="a < b & c")
    root = parse(doc)  # would raise if unescaped
    assert any((t.text or "").startswith("a < b") for t in root.iter(f"{SVG_NS}text"))


def test_escape_matches_saxutils():
    for text in ("", "plain", "a < b & c", "&lt;", "<&>", "&amp;&gt;", "-->", "x>y<z&&"):
        assert _escape(text) == escape(text)


def test_config_echoed_as_comment():
    doc = render_barcode_svg(Barcode([]), config={"field": 2, "max_dim": 3})
    parse(doc)
    assert "<!-- field=2 max_dim=3 -->" in doc
    # comment-hostile values stay well-formed
    parse(render_barcode_svg(Barcode([]), config={"note": "a--b<c"}))
