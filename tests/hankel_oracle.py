"""Dense reference for the lazy Hankel lifting, for small test instances."""

import numpy as np


def materialize_hankel(values: np.ndarray, tau: int) -> np.ndarray:
    """Explicit (N*tau) x T circulant Hankel matrix: block row b holds the
    signal rolled left by b steps."""
    return np.vstack([np.roll(values, -b, axis=1) for b in range(tau)])
