"""TSV serialization for barcodes, clusterings, sweeps, cycles and filtrations.

Every writer emits a leading ``#`` header block carrying the effective
configuration, so outputs are self-describing and reproducible runs
are byte-identical.
"""

from __future__ import annotations

import math
from itertools import chain, groupby
from operator import itemgetter
from typing import Mapping, TextIO

from .clustering import Clustering, SweepResult
from .corpus import AssociationCorpus, DataFormatError, _data_lines
from .reduction import Barcode, Interval, ReducedFiltration


def write_header(stream: TextIO, config: Mapping[str, object] | None) -> None:
    if not config:
        return
    for key in sorted(config):
        stream.write(f"# {key}={config[key]}\n")


def _fmt_value(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def write_barcode_tsv(
    stream: TextIO,
    barcode: Barcode,
    config: Mapping[str, object] | None = None,
    include_zero_length: bool = False,
) -> None:
    """Rows `k<TAB>birth<TAB>death`, death `inf` for essential classes,
    sorted by (k, birth, death); zero-length bars filtered by default."""
    write_header(stream, config)
    rows = []
    bars = chain.from_iterable(barcode._rows(k, include_zero_length) for k in barcode.dims)
    for (k, birth, death), run in groupby(bars, itemgetter(0, 1, 2)):
        if birth:  # then death is nonzero too, and equal values print alike
            rows.append(f"{k}\t{birth!r}\t{_fmt_value(death)}\n" * len(list(run)))
        else:  # 0.0 and -0.0 are equal but print apart
            rows += (f"{k}\t{b!r}\t{_fmt_value(d)}\n" for _, b, d, _, _ in run)
    stream.write("".join(rows))


def read_barcode_tsv(stream: TextIO) -> Barcode:
    """Read `k<TAB>birth<TAB>death` rows back; a negative k, a birth not
    finite and >= 0 or a death NaN or before it is a DataFormatError."""
    rows = []
    for lineno, line, parts in _data_lines(stream, 3):
        try:
            k = int(parts[0])
            birth = float(parts[1])
            death = math.inf if parts[2] == "inf" else float(parts[2])
        except ValueError:
            raise DataFormatError(lineno, f"malformed barcode row {line!r}")
        if k < 0:
            raise DataFormatError(lineno, f"dimension must be >= 0, got {k}")
        if not (math.isfinite(birth) and birth >= 0):
            raise DataFormatError(lineno, f"birth must be finite and >= 0, got {parts[1]!r}")
        if not death >= birth:
            raise DataFormatError(lineno, f"death must be a number >= birth {birth!r}, got {parts[2]!r}")
        rows.append((k, birth, death, None, None))
    return Barcode.__new__(Barcode)._set(rows, Interval.sort_key)


def write_clustering_tsv(
    stream: TextIO,
    corpus: AssociationCorpus,
    clustering: Clustering,
    config: Mapping[str, object] | None = None,
) -> None:
    """Rows `word<TAB>cluster_id` in vertex-id order."""
    write_header(stream, config)
    for v, label in enumerate(clustering.labels):
        stream.write(f"{corpus.word(v)}\t{label}\n")


def write_sweep_tsv(
    stream: TextIO,
    result: SweepResult,
    config: Mapping[str, object] | None = None,
) -> None:
    """Rows `param<TAB>Q<TAB>clusters` plus a trailing argmax comment."""
    write_header(stream, config)
    for row in result.rows:
        stream.write(f"{row.param!r}\t{row.q!r}\t{row.n_clusters}\n")
    best = result.best
    stream.write(f"# argmax param={best.param!r} Q={best.q!r} clusters={best.n_clusters}\n")


def write_cycles_tsv(
    stream: TextIO,
    reduced: ReducedFiltration,
    config: Mapping[str, object] | None = None,
    include_zero_length: bool = False,
) -> None:
    """Representative cycles, one `k<TAB>coeff<TAB>v0,...,vk` row per
    term in vertex order, grouped under a comment line naming the
    interval. It makes no :class:`Interval`, ``Simplex`` or ``Chain``."""
    write_header(stream, config)
    vertices = reduced.filtration.vertices
    barcode = reduced.barcode()
    for k in barcode.dims:
        for _, birth, death, i, j in barcode._rows(k, include_zero_length):
            stream.write(f"# interval k={k} birth={birth!r} death={_fmt_value(death)}\n")
            terms = sorted([(vertices[r], v) for r, v in reduced._cycle(k, i, j)])
            stream.write("".join([f"{k}\t{v}\t{','.join(map(str, vs))}\n" for vs, v in terms]))


def write_filtration_tsv(stream: TextIO, filtration, config: Mapping[str, object] | None = None) -> None:
    """Rows `birth<TAB>v0,v1,...,vk` in filtration order."""
    write_header(stream, config)
    for vs, b in zip(filtration.vertices, filtration.births):
        stream.write(f"{b!r}\t{','.join(map(str, vs))}\n")


def read_filtration_tsv(stream: TextIO) -> "Filtration":
    """Read `birth<TAB>v0,v1,...,vk` rows back into a filtration.

    Lets explicitly listed complexes (not necessarily clique-complete)
    enter the persistence pipeline. A birth not finite and >= 0, a
    simplex listed twice, or one listed without a face or before a face
    born later is a :class:`DataFormatError` naming the simplex's line.
    """
    from .complexes import Filtration, _in_order
    from .simplices import Simplex

    rows = []
    line_of: dict[tuple[int, ...], int] = {}
    for lineno, _, parts in _data_lines(stream, 2):
        try:
            birth = float(parts[0])
            vertices = Simplex(int(v) for v in parts[1].split(",")).vertices
        except ValueError as exc:
            raise DataFormatError(lineno, str(exc))
        if not (math.isfinite(birth) and birth >= 0):
            raise DataFormatError(lineno, f"birth must be finite and >= 0, got {parts[0]!r}")
        if vertices in line_of:
            raise DataFormatError(lineno, f"simplex {parts[1]} already listed on line {line_of[vertices]}")
        line_of[vertices] = lineno
        rows.append((birth, len(vertices), vertices))
    filtration = Filtration.__new__(Filtration)._set(*_in_order(rows))
    for i, problem in filtration._violations():
        raise DataFormatError(line_of[filtration.vertices[i]], problem)
    return filtration
