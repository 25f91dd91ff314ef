import numpy as np
import pytest

from peakonlaws.twave import _xi_of_U, solitary_peak_height


def _plain_bisection(b: float, c: float, xi) -> np.ndarray:
    """U(xi) of the solitary wave: 110 bisection steps on every node."""
    xi = np.asarray(xi, dtype=float)
    umax = solitary_peak_height(b, c)
    target = np.abs(xi)
    lo = np.zeros_like(target)
    hi = np.full_like(target, umax)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        too_close_to_peak = _xi_of_U(mid, b, c) > target
        lo = np.where(too_close_to_peak, mid, lo)
        hi = np.where(too_close_to_peak, hi, mid)
    return np.where(target == 0.0, umax, 0.5 * (lo + hi))


@pytest.fixture
def plain_bisection():
    """Reference inversion for twave.solitary_profile."""
    return _plain_bisection
