"""C1 distance between two solutions plus Hausdorff distance of their domains.

The family of solutions is compared in the norm

    ||phi_a - phi_b||_C1(overlap)  +  d_H(closure A, closure B),

realized discretely: fields and centered-difference gradients of each
solution are interpolated linearly over its mesh's triangulation
(`SquareMap.interpolant`) and compared at the other grid's nodes restricted
to the overlap; the Hausdorff term is evaluated on the boundary polylines.
"""

import numpy as np

from .errors import EmptyOverlap


def _field_samples(sol):
    """(phi, Dphi) at every node, one row per node."""
    return np.column_stack([sol.phi.reshape(-1), sol.gradient().reshape(-1, 2)])


def _points_to_polyline(pts, poly):
    """Distance from each point to the closest polyline segment."""
    a = poly[:-1]
    d = poly[1:] - a
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd > 0, dd, 1.0)
    rel = pts[:, None, :] - a[None, :, :]                       # (points, segments, 2)
    t = np.clip(np.einsum("psk,sk->ps", rel, d) / dd, 0.0, 1.0)
    gap = rel - t[..., None] * d
    return np.sqrt(np.min(np.einsum("psk,psk->ps", gap, gap), axis=1))


def hausdorff_distance(poly_a, poly_b):
    """Two-sided Hausdorff distance between polylines.

    Vertices of each polyline are measured against the segments of the
    other, so differently-sampled discretizations of the same curve come
    out near zero (a vertex-set distance would report half the sample
    spacing instead).
    """
    d_ab = _points_to_polyline(poly_a, poly_b).max()
    d_ba = _points_to_polyline(poly_b, poly_a).max()
    return float(max(d_ab, d_ba))


def c1_family_distance(sol_a, sol_b):
    """||phi_a - phi_b||_C1 on the overlap plus boundary Hausdorff distance.

    The overlap is realized as the set of grid nodes of one solution lying
    inside the convex hull of the other's nodes (the elliptic regions of
    admissible solutions are convex, so the hull is the domain up to
    discretization).  Raises EmptyOverlap when no nodes overlap either way.
    """
    samples_a, samples_b = _field_samples(sol_a), _field_samples(sol_b)
    worst_val = worst_grad = 0.0
    n_used = 0
    for sol, own, other in ((sol_a, samples_a, sol_b.mesh.interpolant(samples_b)),
                            (sol_b, samples_b, sol_a.mesh.interpolant(samples_a))):
        theirs = other(sol.mesh.nodes.reshape(-1, 2))
        ok = ~np.isnan(theirs[:, 0])
        if not np.any(ok):
            continue
        n_used += int(np.count_nonzero(ok))
        dv = np.abs(own[ok, 0] - theirs[ok, 0])
        dg = np.linalg.norm(own[ok, 1:] - theirs[ok, 1:], axis=1)
        worst_val = max(worst_val, float(dv.max()))
        worst_grad = max(worst_grad, float(dg.max()))
    if n_used == 0:
        raise EmptyOverlap("solution domains share no grid nodes")
    d_h = hausdorff_distance(sol_a.mesh.boundary_polyline(), sol_b.mesh.boundary_polyline())
    return worst_val + worst_grad + d_h
