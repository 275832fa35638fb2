import numpy as np
import pytest

from reluopt import DimensionMismatch, Hyperrectangle
from reluopt.geometry import linf_epigraph


def test_hyperrectangle_basics():
    h = Hyperrectangle(np.array([-1.0, 0.0]), np.array([1.0, 4.0]))
    np.testing.assert_allclose(h.center, [0.0, 2.0])
    np.testing.assert_allclose(h.radius, [1.0, 2.0])
    assert h.dim == 2


def test_hyperrectangle_rejects_crossed_bounds():
    with pytest.raises(DimensionMismatch):
        Hyperrectangle(np.array([1.0]), np.array([0.0]))


def test_sample_inside_box():
    h = Hyperrectangle(np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
    pts = h.sample(np.random.default_rng(0), 200)
    assert pts.shape == (200, 2)
    assert np.all((pts >= h.lower) & (pts <= h.upper))


def test_linf_epigraph_rows():
    x0 = np.array([0.5, -1.0])
    rows = linf_epigraph(x0)
    assert len(rows) == 4
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(-3, 3, 2)
        t = rng.uniform(0, 3)
        holds = all(r.satisfied(x, None, t) for r in rows)
        assert holds == (np.max(np.abs(x - x0)) <= t + 1e-12)


def test_linf_epigraph_rejects_nonfinite():
    with pytest.raises(DimensionMismatch):
        linf_epigraph([np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hyperrectangle_rejects_nonfinite_bounds(bad):
    with pytest.raises(DimensionMismatch):
        Hyperrectangle(np.array([-1.0, bad]), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        Hyperrectangle(np.array([-1.0, -1.0]), np.array([1.0, bad]))
