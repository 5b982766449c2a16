"""Minimal self-contained SVG renderers for diagnostics output.

Line charts and heatmaps as plain SVG strings, no plotting dependency.
Meant for quick inspection of pipeline artifacts, not publication.
"""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def line_chart(
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str,
    width: int = 640,
    height: int = 360,
) -> str:
    """Polyline chart of one or more named series over a shared x axis."""
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

    def sx(v: float) -> float:
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return height - margin - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f'{title.translate(_ESCAPES)}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="11">{_fmt(yv)}</text>'
        )
    # sx and sy on whole arrays make the same operations as on each point
    px = sx(x)
    for i, (label, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        xy = np.column_stack([px, sy(np.asarray(y, float))])
        pts = " ".join(["%.1f,%.1f"] * len(xy)) % tuple(xy.ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin}" y="{margin + 14 * (i + 1)}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label.translate(_ESCAPES)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# Diverging fills, -1 -> blue, 0 -> white, +1 -> red, each closing its
# <rect>: entry k is the level-k red side (v >= 0, level 255 * (1 - v)),
# entry 256 + k the level-k blue side (v < 0, level 255 * (1 + v)).
_FILLS = np.array(
    [f'rgb(255,{k},{k})"/>' for k in range(256)] + [f'rgb({k},{k},255)"/>' for k in range(256)],
    dtype=object,
)


def _magnitude(values: np.ndarray) -> np.ndarray:
    """|values|, with NaN ranked above every number as +inf."""
    out = np.abs(values)
    out[np.isnan(values)] = np.inf
    return out


def heatmap(matrix: np.ndarray, title: str, cell: int = 4, max_dim: int = 64) -> str:
    """Diverging heatmap of a matrix with entries in [-1, 1].

    Large matrices are pooled to at most max_dim blocks per side, each
    drawn as its entry of largest magnitude: NaN outranks every number,
    and ties go to the first entry in row-major order. Values beyond
    [-1, 1] take the end colours, and NaN is full red.
    """
    mat = np.asarray(matrix, dtype=float)
    size_r = max(1, -(-mat.shape[0] // max_dim))
    size_c = max(1, -(-mat.shape[1] // max_dim))
    # offset (0, 0) of every block first, then each later offset in
    # row-major order: a strided view holds that offset of every block
    # that has it, and an entry replaces the block's best only if it is
    # strictly larger, so ties keep the first
    pooled = mat[::size_r, ::size_c].copy()
    rows, cols = pooled.shape
    best = _magnitude(pooled)
    for offset in range(1, size_r * size_c):
        di, dj = divmod(offset, size_c)
        entries = mat[di::size_r, dj::size_c]
        r, c = entries.shape
        magnitude = _magnitude(entries)
        larger = magnitude > best[:r, :c]
        pooled[:r, :c][larger] = entries[larger]
        best[:r, :c][larger] = magnitude[larger]
    mat = pooled
    margin = 30
    width = cols * cell + 2 * margin
    height = rows * cell + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="13">'
        f'{title.translate(_ESCAPES)}</text>',
    ]
    # fmin/fmax ignore NaN, so NaN clamps to +1; rint rounds half to even
    v = np.fmax(-1.0, np.fmin(1.0, mat))
    negative = v < 0
    level = np.rint(255 * np.where(negative, 1 + v, 1 - v)).astype(np.intp)
    fills = _FILLS[level + 256 * negative]
    x = np.array([f'<rect x="{margin + j * cell}" y="' for j in range(cols)], dtype=object)
    y = np.array(
        [f'{margin + i * cell}" width="{cell}" height="{cell}" fill="' for i in range(rows)],
        dtype=object,
    )
    parts += (x + y[:, None] + fills).ravel().tolist()
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(content: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
