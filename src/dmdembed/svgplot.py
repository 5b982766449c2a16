"""Minimal self-contained SVG renderers for diagnostics output.

Line charts and heatmaps as plain SVG strings, no plotting dependency.
Meant for quick inspection of pipeline artifacts, not publication.
"""

from __future__ import annotations

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
# side of one heatmap cell
_CELL = 4
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def line_chart(x: np.ndarray, series: list[tuple[str, np.ndarray]], title: str) -> str:
    """Polyline chart of one or more named series over a shared x axis."""
    x = np.asarray(x, dtype=float)
    width, height = 640, 360
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


# White to red, each closing its <rect>: entry k is level k, the fill of
# a value v at level 255 * (1 - v).
_FILLS = np.array([f'rgb(255,{k},{k})"/>' for k in range(256)], dtype=object)


def heatmap(matrix: np.ndarray, title: str) -> str:
    """Heatmap of a matrix with entries in [0, 1], one cell per entry:
    0 is white and 1 full red."""
    mat = np.asarray(matrix, dtype=float)
    rows, cols = mat.shape
    margin = 30
    width = cols * _CELL + 2 * margin
    height = rows * _CELL + 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="18" text-anchor="middle" font-size="13">'
        f'{title.translate(_ESCAPES)}</text>',
    ]
    # rint rounds half to even
    fills = _FILLS[np.rint(255 * (1 - mat)).astype(np.intp)]
    x = np.array([f'<rect x="{margin + j * _CELL}" y="' for j in range(cols)], dtype=object)
    y = np.array(
        [f'{margin + i * _CELL}" width="{_CELL}" height="{_CELL}" fill="' for i in range(rows)],
        dtype=object,
    )
    parts += (x + y[:, None] + fills).ravel().tolist()
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(content: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
