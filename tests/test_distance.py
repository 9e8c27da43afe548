import numpy as np
import pytest

from shockrefl import (
    EmptyOverlap,
    GasParams,
    c1_family_distance,
    hausdorff_distance,
    normal_reflection,
)


def test_hausdorff_known_sets():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert hausdorff_distance(a, b) == pytest.approx(0.5)
    assert hausdorff_distance(a, a) == 0.0


def test_hausdorff_matches_per_point_reference():
    """Vertex-to-segment distances, with a zero-length segment in the polyline,
    against a direct evaluation one point and one segment at a time."""
    from shockrefl.distance import _points_to_polyline

    rng = np.random.default_rng(7)
    poly_a = np.cumsum(rng.normal(size=(40, 2)), axis=0)
    poly_a[10] = poly_a[9]
    poly_b = poly_a[::3] + 0.3 * rng.normal(size=(14, 2))

    def reference(pts, poly):
        out = []
        for p in pts:
            best = np.inf
            for a, b in zip(poly[:-1], poly[1:]):
                d = b - a
                t = 0.0 if d @ d == 0.0 else min(1.0, max(0.0, (p - a) @ d / (d @ d)))
                best = min(best, float(np.hypot(*(a + t * d - p))))
            out.append(best)
        return np.array(out)

    for pts, poly in ((poly_a, poly_b), (poly_b, poly_a)):
        assert np.allclose(_points_to_polyline(pts, poly), reference(pts, poly), rtol=1e-12, atol=1e-12)
    expected = max(reference(poly_a, poly_b).max(), reference(poly_b, poly_a).max())
    assert hausdorff_distance(poly_a, poly_b) == pytest.approx(expected, rel=1e-12)


def test_distance_to_self_is_zero(sol_normal65):
    assert c1_family_distance(sol_normal65, sol_normal65) < 1e-12


def test_distance_shifted_resolution_small(gas_122):
    """Same exact solution sampled at two resolutions: distance is O(h^2)-small."""
    a = normal_reflection(gas_122, 33, 33)
    b = normal_reflection(gas_122, 61, 61)
    d = c1_family_distance(a, b)
    assert d < 5e-3


def test_distance_between_neighbors_scales(gas_122, sol_normal65, sol85_n65):
    d_far = c1_family_distance(sol_normal65, sol85_n65)
    assert 0.1 < d_far < 2.0


def test_empty_overlap_raises(gas_122, sol_normal65):
    import copy

    far = copy.copy(sol_normal65)
    shifted = copy.copy(sol_normal65.mesh)
    shifted.nodes = sol_normal65.mesh.nodes + np.array([100.0, 100.0])
    far.mesh = shifted
    with pytest.raises(EmptyOverlap):
        c1_family_distance(sol_normal65, far)
