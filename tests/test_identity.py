"""Byte-identity guard for the persistence exports.

The files under ``data/identity`` hold the barcode and cycles TSVs of
three fixtures over Z/2 and Z/3, written by the boundary-column
reduction that preceded the cohomology reduction. Any change to the
reduction must reproduce them byte for byte. To rewrite them after a
deliberate change of output, run ``python tests/test_identity.py``.
"""

import io
import random
from pathlib import Path

import pytest

from wordhom import Filtration, PrimeField, build_vr_filtration, reduce_filtration
from wordhom.exports import write_barcode_tsv, write_cycles_tsv
from conftest import circle_filtration, random_dissimilarity_graph, shell_arm_complex

DATA = Path(__file__).parent / "data" / "identity"
FIELDS = (2, 3)


def vr12_filtration():
    g = random_dissimilarity_graph(random.Random(12), n_min=12, n_max=12, p_edge=0.7)
    return build_vr_filtration(g, max_dim=3, max_eps=1.0)


FIXTURES = {
    "shell_arm": lambda: Filtration.from_complex(shell_arm_complex()),
    "circle": circle_filtration,
    "vr12": vr12_filtration,
}


def render(name: str, p: int) -> dict[str, str]:
    """Barcode and cycles TSVs of one fixture, zero-length bars included."""
    reduced = reduce_filtration(FIXTURES[name](), PrimeField(p))
    config = {"fixture": name, "field": p}
    out = {}
    buf = io.StringIO()
    write_barcode_tsv(buf, reduced.barcode(), config=config, include_zero_length=True)
    out["barcode"] = buf.getvalue()
    buf = io.StringIO()
    write_cycles_tsv(buf, reduced, config=config, include_zero_length=True)
    out["cycles"] = buf.getvalue()
    return out


@pytest.mark.parametrize("p", FIELDS)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exports_match_recorded_bytes(name, p):
    for kind, text in render(name, p).items():
        expected = (DATA / f"{name}-p{p}.{kind}.tsv").read_text(encoding="utf-8")
        assert text == expected, f"{name} over Z/{p}: {kind} TSV differs from the recorded one"


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name in sorted(FIXTURES):
        for p in FIELDS:
            for kind, text in render(name, p).items():
                (DATA / f"{name}-p{p}.{kind}.tsv").write_text(text, encoding="utf-8", newline="\n")
