import numpy as np
import pytest

from icrt_lab.paths import validate_theta


@pytest.fixture(scope="session")
def reference_theta():
    return validate_theta(0.862, (0.345, 0.302, 0.216))


@pytest.fixture(scope="session")
def brownian_theta():
    return validate_theta(1.0, ())


def make_tent():
    from icrt_lab.paths import continuous_path

    return continuous_path([0.0, 0.5, 1.0], [0.0, 0.5, 0.0])


def make_single_jump():
    """Rise to 0.2 at s=0.2, jump +0.3, linear decay to 0 at s=1."""
    from icrt_lab.paths import CadlagPath

    return CadlagPath(np.array([0.0, 0.2, 1.0]),
                      np.array([0.0, 0.2, 0.0]),
                      np.array([0.0, 0.5, 0.0]))


def union_grid_combination(paths, coeffs):
    """Pointwise linear combination of paths on the union of their
    breakpoints, each path evaluated on the whole grid.  Test-only oracle
    for the window-only path difference, paths.subtract_on_windows."""
    from icrt_lab.paths import CadlagPath

    t = np.unique(np.concatenate([p.times for p in paths]))
    left = np.zeros_like(t)
    right = np.zeros_like(t)
    for p, c in zip(paths, coeffs):
        left += c * p.left_limit(t)
        right += c * p.value(t)
    return CadlagPath(t, left, right)


def assert_same_bits(a, b):
    for field in ("times", "left", "right"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
