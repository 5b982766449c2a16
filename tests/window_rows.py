"""Per-window (W, ·) rows of a ForecastWindows, copied out of its views,
anchor-major and node-minor, for tests that compare window by window."""

import numpy as np


def history(fw) -> np.ndarray:
    """(W, P) history rows."""
    return fw.blocks(0, fw.p).reshape(len(fw), fw.p)


def target(fw) -> np.ndarray:
    """(W, Q) target rows."""
    return fw.blocks(fw.p, fw.q).reshape(len(fw), fw.q)


def mask(fw) -> np.ndarray:
    """(W, Q) observed target entries."""
    return fw.blocks(fw.p, fw.q, fw.observed).reshape(len(fw), fw.q)
