"""The array-at-a-time artifact writers against their per-value forms.

Each reference below is the writer in its plain per-value form: a
per-cell heatmap, a per-point line chart, the plain json.dumps of a
decomposition's fields and per-row CSV loops. The writers must give the same bytes for every input.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmdembed import diagnostics
from dmdembed.diagnostics import write_acf_csv
from dmdembed.dmd import DmdDecomposition
from dmdembed.embedding import TimeEmbedding, export_embedding
from dmdembed.svgplot import PALETTE, heatmap, line_chart

# ---------------------------------------------------------------- references


def _red_scale(v: float) -> str:
    # 0 -> white, 1 -> red
    g = b = int(round(255 * (1 - v)))
    return f"rgb(255,{g},{b})"


def heatmap_per_cell(matrix, title):
    mat = np.asarray(matrix, dtype=float)
    cell = 4
    rows, cols = mat.shape
    margin = 30
    width = cols * cell + 2 * margin
    height = rows * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for i in range(rows):
        for j in range(cols):
            parts.append(
                f'<rect x="{margin + j * cell}" y="{margin + i * cell}" width="{cell}" '
                f'height="{cell}" fill="{_red_scale(mat[i, j])}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def line_chart_per_point(x, series, title, width=640, height=360):
    x = np.asarray(x, dtype=float)
    margin = 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series])
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    # a flat series spans 1, or one step of float spacing where 1 is lost
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, float(np.nextafter(y_lo, np.inf)))
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, float(np.nextafter(x_lo, np.inf)))

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" text-anchor="middle" '
                     f'font-size="11">{xv:.2f}</text>')
        parts.append(f'<text x="{margin - 6}" y="{sy(yv):.1f}" text-anchor="end" '
                     f'font-size="11">{yv:.2f}</text>')
    for i, (label, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(xi):.1f},{sy(yi):.1f}" for xi, yi in zip(x, np.asarray(y, float)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin}" y="{margin + 14 * (i + 1)}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def decomposition_json_dumps(dec: DmdDecomposition) -> str:
    payload = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in dec.eigenvalues],
        "amplitudes": [[float(v.real), float(v.imag)] for v in dec.amplitudes],
        "rank": dec.rank,
        "tau": dec.tau,
        "fit_span": dec.fit_span,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def export_embedding_per_row(emb: TimeEmbedding, path) -> None:
    r = emb.n_modes
    header = ["step"] + [f"re_{i + 1}" for i in range(r)] + [f"im_{i + 1}" for i in range(r)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(emb.length):
            cells = [str(k)]
            cells += [f"{v:.17g}" for v in emb.table[k]]
            fh.write(",".join(cells) + "\n")


def write_acf_csv_per_row(values, node_ids, path) -> None:
    lags = np.arange(values.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lag," + ",".join(node_ids) + "\n")
        for row, lag in enumerate(lags):
            cells = [str(int(lag))] + [f"{acf[row]:.17g}" for acf in values]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------- inputs

# Multiples of 1/510, and values on and beyond the ends of [-1, 1].
half_steps = st.integers(-600, 600).map(lambda k: k / 510)
specials = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300]
)
any_float = st.floats(allow_nan=True, allow_infinity=True)
cell_values = st.one_of(half_steps, specials, st.floats(-1.2, 1.2), any_float)
# What a heatmap draws, |correlation| in [0, 1]: exact half-steps of the
# 255-level colour scale among them.
corr_values = st.one_of(
    st.integers(0, 510).map(lambda k: k / 510),
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53]),
    st.floats(0.0, 1.0),
)


def _bytes_of(write, obj, path) -> bytes:
    write(obj, path)
    return path.read_bytes()


# ---------------------------------------------------------------- heatmap


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_heatmap_matches_per_cell_reference(data):
    shape = data.draw(st.tuples(st.integers(1, 20), st.integers(1, 20)))
    matrix = data.draw(arrays(float, shape, elements=corr_values))
    assert heatmap(matrix, "t") == heatmap_per_cell(matrix, "t")


def test_heatmap_matches_reference_at_default_size():
    # 64 x 64, the most blocks a pooled residual correlation has
    rng = np.random.default_rng(0)
    matrix = rng.uniform(0.0, 1.0, size=(64, 64))
    matrix[0, :5] = [0.0, 1.0, 0.5 / 255, 1.5 / 255, 5e-324]
    assert heatmap(matrix, "corr") == heatmap_per_cell(matrix, "corr")


# ---------------------------------------------------------------- line chart


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_line_chart_matches_per_point_reference(data):
    n = data.draw(st.integers(1, 40))
    x = data.draw(st.one_of(st.just(np.arange(n)), arrays(float, n, elements=st.floats(-1e6, 1e6))))
    points = st.one_of(half_steps, specials.filter(np.isfinite), st.floats(-1e6, 1e6))
    series = [
        (f"s{i}", data.draw(arrays(float, n, elements=points)))
        for i in range(data.draw(st.integers(1, 7)))
    ]
    assert line_chart(x, series, "t") == line_chart_per_point(x, series, "t")


def test_line_chart_of_a_flat_series_too_large_to_shift_by_one():
    # 1e300 + 1.0 == 1e300: the flat series' span is one float step instead
    for y, x in (([1e300], [0.0]), ([-1e300, -1e300], [3.0, 3.0]), ([1.0], [1e17])):
        series = [("s0", np.array(y))]
        svg = line_chart(np.array(x), series, "t")
        assert svg == line_chart_per_point(np.array(x), series, "t")
        assert "nan" not in svg and "inf" not in svg


def test_line_chart_matches_reference_at_acf_size():
    # six series over lags 0..144, as in a run's residual ACF chart
    rng = np.random.default_rng(0)
    series = [(f"n{i}", rng.uniform(-1, 1, size=145)) for i in range(6)]
    assert line_chart(np.arange(145), series, "acf") == line_chart_per_point(np.arange(145), series, "acf")


# ---------------------------------------------------------------- to_json


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_to_json_matches_json_dumps(data):
    # The modes are saved as an array, not in the JSON text.
    r = data.draw(st.integers(0, 5))
    dec = DmdDecomposition(
        eigenvalues=data.draw(arrays(complex, r, elements=st.complex_numbers())),
        modes=np.ones((data.draw(st.integers(0, 6)), r), dtype=complex),
        amplitudes=data.draw(arrays(complex, r, elements=st.complex_numbers())),
        rank=r,
        fit_span=data.draw(st.integers(0, 10**6)),
        tau=data.draw(st.integers(1, 10**4)),
    )
    assert dec.to_json() == decomposition_json_dumps(dec)


# ---------------------------------------------------------------- CSV writers


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_export_embedding_matches_per_row_reference(tmp_path_factory, data):
    r = data.draw(st.integers(0, 4))
    length = data.draw(st.integers(0, 12))
    emb = TimeEmbedding(
        eigenvalues=np.ones(r, dtype=complex),
        table=data.draw(arrays(float, (length, 2 * r), elements=cell_values)),
    )
    path = tmp_path_factory.mktemp("emb") / "emb.csv"
    assert _bytes_of(export_embedding, emb, path) == _bytes_of(export_embedding_per_row, emb, path)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_export_embedding_in_row_chunks_matches_per_row_reference(tmp_path_factory, data):
    # the rows are formatted a bounded chunk at a time, and the file is the same
    length = data.draw(st.integers(0, 30))
    emb = TimeEmbedding(
        eigenvalues=np.ones(2, dtype=complex),
        table=data.draw(arrays(float, (length, 4), elements=cell_values)),
    )
    path = tmp_path_factory.mktemp("emb") / "emb.csv"
    with mock.patch.object(diagnostics, "WRITE_CHUNK_ROWS", data.draw(st.integers(1, 8))):
        written = _bytes_of(export_embedding, emb, path)
    assert written == _bytes_of(export_embedding_per_row, emb, path)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_write_acf_csv_matches_per_row_reference(tmp_path_factory, data):
    max_lag = data.draw(st.integers(0, 12))
    n_reports = data.draw(st.integers(1, 4))
    node_ids = [data.draw(st.sampled_from(["", "n", "station 7"])) for _ in range(n_reports)]
    reports = data.draw(arrays(float, (n_reports, max_lag + 1), elements=cell_values))
    path = tmp_path_factory.mktemp("acf") / "acf.csv"
    write_acf_csv(reports, node_ids, path)
    written = path.read_bytes()
    write_acf_csv_per_row(reports, node_ids, path)
    assert written == path.read_bytes()
