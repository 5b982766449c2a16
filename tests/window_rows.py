"""Per-window (W, ·) rows of a ForecastWindows, copied out of its views,
anchor-major and node-minor, for tests that compare window by window,
and ``loop_windows``, the per-window reference that builds them one
window at a time."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from dmdembed.errors import DataError


def history(fw) -> np.ndarray:
    """(W, P) history rows."""
    return fw.blocks(0, fw.p).reshape(len(fw), fw.p)


def target(fw) -> np.ndarray:
    """(W, Q) target rows."""
    return fw.blocks(fw.p, fw.q).reshape(len(fw), fw.q)


def mask(fw) -> np.ndarray:
    """(W, Q) observed target entries."""
    return fw.blocks(fw.p, fw.q, fw.observed).reshape(len(fw), fw.q)


def covariates(fw) -> np.ndarray:
    """(W, P+Q, c) covariate rows of each window's steps."""
    rows = sliding_window_view(fw.covariates, fw.p + fw.q, axis=0)[: fw.anchors.size]
    return np.repeat(rows.transpose(0, 2, 1), fw.n_nodes, axis=0)


def loop_windows(values, spans, p, q, embedding=None, exclusion_mask=None):
    """Reference builder: one (anchor, node) window at a time, anchor-major.

    Per named step range it returns the stacked window fields, each
    window's node and anchor, and the feature matrix made by
    concatenating each window's flattened history and future rows.
    """
    out = {}
    n = values.shape[0]
    for name, (start, stop) in spans.items():
        if stop - start < p + q:
            raise DataError(f"{name} split has {stop - start} steps, needs at least P+Q={p + q}")
        wins = []
        for anchor in range(start + p - 1, stop - q):
            for node in range(n):
                hist = values[node, anchor - p + 1 : anchor + 1][:, None]
                target = values[node, anchor + 1 : anchor + q + 1]
                if exclusion_mask is not None:
                    tmask = exclusion_mask[node, anchor + 1 : anchor + q + 1]
                else:
                    tmask = np.ones(q, dtype=bool)
                fut = np.zeros((q, 0))
                if embedding is not None:
                    hist = np.hstack([hist, embedding.rows(anchor - p + 1, anchor + 1)])
                    fut = embedding.rows(anchor + 1, anchor + q + 1)
                wins.append((hist, fut, target, tmask, node, anchor))
        hist, fut, target, tmask, node, anchor = zip(*wins)
        out[name] = {
            "history": np.stack(hist),
            "future": np.stack(fut),
            "target": np.stack(target),
            "mask": np.stack(tmask),
            "node": np.array(node),
            "anchor": np.array(anchor),
            "features": np.vstack([np.concatenate([h.ravel(), f.ravel()])
                                   for h, f in zip(hist, fut)]),
        }
    return out
