"""Boundary-fitted structured grid on the unit square via transfinite interpolation.

The computational square (a, w) in [0,1]^2 maps onto the elliptic region with

    a = 0 -> shock side,   a = 1 -> wedge side,
    w = 0 -> symmetry side, w = 1 -> sonic side,

so the corners are (0,0) -> P2, (1,0) -> P3, (0,1) -> P1, (1,1) -> P4.
The a-grid is uniform with n1 points; the w-grid has n2 points and is
clustered toward the sonic side by w_j = 1 - (1 - j/(n2-1))^2, which makes
the physical spacing scale like the square root of the distance to the
sonic arc (matching the parabolic degeneracy of the equation there).
In the subsonic and sonic regimes the sonic side collapses to the
reflection point: the map is triangle-like and its Jacobian vanishes on
w = 1 only.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FoldedMesh

SIDE_ASSIGNMENT = {
    "a=0": "shock",
    "a=1": "wedge",
    "w=0": "symmetry",
    "w=1": "sonic",
}


def sonic_clustered_grid(n, kind="sqrt"):
    """w-grid on [0, 1]: uniform or clustered toward w = 1 with sqrt spacing."""
    t = np.linspace(0.0, 1.0, n)
    if kind == "sqrt":
        return 1.0 - (1.0 - t) ** 2
    if kind == "uniform":
        return t
    raise ValueError(f"unknown stretch kind {kind!r}")


class Segment:
    """Straight side from p to q, traversed by a fraction in [0, 1]."""

    def __init__(self, p, q):
        self.p = np.asarray(p, dtype=float)
        self.d = np.asarray(q, dtype=float) - self.p

    def point(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return self.p + t * self.d

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.d, t.shape + (2,)).copy()


class Arc:
    """Circular arc from angle ang0 to ang0 + dang about a center."""

    def __init__(self, center, radius, ang0, dang):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.ang0 = float(ang0)
        self.dang = float(dang)

    def point(self, t):
        ang = self.ang0 + np.asarray(t, dtype=float) * self.dang
        return self.center + self.radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def deriv(self, t):
        ang = self.ang0 + np.asarray(t, dtype=float) * self.dang
        return self.radius * self.dang * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)


class ShockSide:
    """Shock side backed by the curve's smooth graph fit, running P2 -> P1."""

    def __init__(self, shock):
        self.shock = shock

    def point(self, t):
        return self.shock.side_point(t)

    def deriv(self, t):
        return self.shock.side_deriv(t)


class CoonsMap:
    """Transfinite (Coons) interpolation of four parameterized sides.

    Sides are traversed as: shock(w): P2 -> P1, wedge(w): P3 -> P4,
    sym(a): P2 -> P3, sonic(a): P1 -> P4.
    """

    def __init__(self, shock_side, wedge_side, sym_side, sonic_side, corners):
        self.shock = shock_side
        self.wedge = wedge_side
        self.sym = sym_side
        self.sonic = sonic_side
        self.p2, self.p3, self.p1, self.p4 = (np.asarray(c, dtype=float) for c in corners)

    def point(self, a, w):
        a = np.asarray(a, dtype=float)
        w = np.asarray(w, dtype=float)
        aa = a[..., None]
        ww = w[..., None]
        bl = (
            (1 - aa) * (1 - ww) * self.p2
            + aa * (1 - ww) * self.p3
            + (1 - aa) * ww * self.p1
            + aa * ww * self.p4
        )
        return (
            (1 - aa) * self.shock.point(w)
            + aa * self.wedge.point(w)
            + (1 - ww) * self.sym.point(a)
            + ww * self.sonic.point(a)
            - bl
        )

    def derivs(self, a, w):
        """(x_a, x_w) Jacobian columns at (a, w), each of shape (..., 2)."""
        a = np.asarray(a, dtype=float)
        w = np.asarray(w, dtype=float)
        aa = a[..., None]
        ww = w[..., None]
        d_bl_da = (1 - ww) * (self.p3 - self.p2) + ww * (self.p4 - self.p1)
        d_bl_dw = (1 - aa) * (self.p1 - self.p2) + aa * (self.p4 - self.p3)
        x_a = (
            self.wedge.point(w)
            - self.shock.point(w)
            + (1 - ww) * self.sym.deriv(a)
            + ww * self.sonic.deriv(a)
            - d_bl_da
        )
        x_w = (
            (1 - aa) * self.shock.deriv(w)
            + aa * self.wedge.deriv(w)
            + self.sonic.point(a)
            - self.sym.point(a)
            - d_bl_dw
        )
        return x_a, x_w


def _first_derivative_1d(h):
    """Three-point first derivative on nodes with spacings h, exact on quadratics.

    Centered in the interior and one-sided (second order) at both ends;
    returns the (n, n) CSR matrix for n = len(h) + 1 nodes.
    """
    n = len(h) + 1
    hm, hp = h[:-1], h[1:]
    k = np.arange(1, n - 1)
    rows = [k, k, k]
    cols = [k - 1, k, k + 1]
    vals = [-hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))]
    for node, sgn, (h1, h2) in ((0, 1, h[:2]), (n - 1, -1, h[:-3:-1])):
        rows.append(np.full(3, node))
        cols.append(node + sgn * np.arange(3))
        vals.append(sgn * np.array(
            [-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2), -h1 / (h2 * (h1 + h2))]
        ))
    d = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    d.eliminate_zeros()
    return d


def sonic_extension(n1, n2):
    """(N, N) CSR map that replaces each node value on the row w = 1 by the
    linear extrapolation 2 u[j-1] - u[j-2] from the two rows below, and
    keeps every other node value."""
    ext = sp.identity(n2, format="lil")
    ext[-1, -3:] = [-1.0, 2.0, 0.0]
    return sp.kron(sp.identity(n1), ext, format="csr")


def read_only(*objs):
    """Mark arrays, and the arrays behind sparse matrices, read-only."""
    for obj in objs:
        for arr in (obj.data, obj.indices, obj.indptr) if sp.issparse(obj) else (obj,):
            arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class LogicalGrid:
    """Nodes of the computational square and the nodal derivative stencil on them.

    Da_n and Dw_n act on nodal arrays raveled in C order (index i * n2 + j):
    three-point differences exact on quadratics in a and in w, one-sided at
    the sides.  Every array is read-only, since one instance is shared by
    all meshes of the same (n1, n2, stretch).
    """

    n1: int
    n2: int
    stretch: str
    a: np.ndarray
    w: np.ndarray
    Da_n: sp.csr_matrix
    Dw_n: sp.csr_matrix


@functools.lru_cache(maxsize=8)
def logical_grid(n1, n2, stretch):
    """The LogicalGrid of an n1 x n2 square; a pure function of its arguments."""
    a = np.linspace(0.0, 1.0, n1)
    w = sonic_clustered_grid(n2, stretch)
    # the a-grid is uniform: exact spacings keep the centered stencil symmetric
    da = _first_derivative_1d(np.full(n1 - 1, 1.0 / (n1 - 1)))
    dw = _first_derivative_1d(np.diff(w))
    grid = LogicalGrid(
        n1=n1,
        n2=n2,
        stretch=stretch,
        a=a,
        w=w,
        Da_n=sp.kron(da, sp.identity(n2), format="csr"),
        Dw_n=sp.kron(sp.identity(n1), dw, format="csr"),
    )
    read_only(a, w, grid.Da_n, grid.Dw_n)
    return grid


@dataclass(eq=False)
class SquareMap:
    """Discrete boundary-fitted grid plus the analytic map behind it.

    nodes has shape (n1, n2, 2) with index i along a (shock -> wedge) and
    j along w (symmetry -> sonic, clustered near sonic).  The node metric
    (x_a, x_w and the Jacobian jac) is evaluated once, when the map is
    built; the logical grid and its derivative stencil are shared with
    every other mesh of the same size and stretch.
    """

    coons: CoonsMap
    grid: LogicalGrid
    nodes: np.ndarray
    xa: np.ndarray
    xw: np.ndarray
    jac: np.ndarray
    degenerate_sonic: bool
    metadata: dict = field(default_factory=dict)

    @property
    def n1(self):
        return self.grid.n1

    @property
    def n2(self):
        return self.grid.n2

    @property
    def a_grid(self):
        return self.grid.a

    @property
    def w_grid(self):
        return self.grid.w

    def max_spacing(self):
        """Largest physical edge length of the grid."""
        d1 = np.linalg.norm(np.diff(self.nodes, axis=0), axis=-1).max()
        d2 = np.linalg.norm(np.diff(self.nodes, axis=1), axis=-1).max()
        return max(float(d1), float(d2))

    @functools.cached_property
    def stencil_coefficients(self):
        """(2, 2, N) array c with D_xk phi = c[k, 0] * Da_n phi + c[k, 1] * Dw_n phi.

        The inverse Jacobian transpose of the stored node metric, raveled
        over the nodes; where the Jacobian vanishes it is divided by 1.
        """
        js = np.where(np.abs(self.jac) > 1e-300, self.jac, 1.0)
        xa, xw = (self.xa / js[..., None]).reshape(-1, 2), (self.xw / js[..., None]).reshape(-1, 2)
        coefs = np.array([[xw[:, 1], -xa[:, 1]], [-xw[:, 0], xa[:, 0]]])
        read_only(coefs)
        return coefs

    def gradient(self, phi):
        """Physical gradient D_xi phi at every node, shape (n1, n2, 2).

        The grid's (a, w) stencil mapped through stencil_coefficients; on a
        collapsed sonic row (subsonic regime) the gradient is extrapolated
        linearly from the two rows below, as sonic_extension does.
        """
        phi = np.asarray(phi, dtype=float)
        pa, pw = self.grid.Da_n @ phi.ravel(), self.grid.Dw_n @ phi.ravel()
        c = self.stencil_coefficients
        g = (c[:, 0] * pa + c[:, 1] * pw).reshape(2, self.n1, self.n2)
        if self.degenerate_sonic:
            g[..., -1] = 2.0 * g[..., -2] - g[..., -3]
        return np.stack(g, axis=-1).reshape(phi.shape + (2,))

    def inverse(self, xi, tol=1e-10, max_iter=100):
        """Invert the map by damped Newton from the nearest grid node.

        Returns (a, w) or None if the point cannot be matched to tol.
        """
        xi = np.asarray(xi, dtype=float)
        d2 = np.sum((self.nodes - xi) ** 2, axis=-1)
        i0, j0 = np.unravel_index(np.argmin(d2), d2.shape)
        a = float(self.a_grid[i0])
        w = float(self.w_grid[j0])
        res = math.inf
        for _ in range(max_iter):
            x = self.coons.point(a, w)
            r = xi - x
            res = math.hypot(r[0], r[1])
            if res < tol:
                return a, w
            xa, xw = self.coons.derivs(np.asarray(a), np.asarray(w))
            jac = xa[0] * xw[1] - xa[1] * xw[0]
            if abs(jac) < 1e-30:
                return None
            da = (r[0] * xw[1] - r[1] * xw[0]) / jac
            dw = (-r[0] * xa[1] + r[1] * xa[0]) / jac
            step = 1.0
            improved = False
            for _ in range(40):
                a_new = min(1.0, max(0.0, a + step * da))
                w_new = min(1.0, max(0.0, w + step * dw))
                x_new = self.coons.point(a_new, w_new)
                if math.hypot(*(xi - x_new)) < res:
                    a, w = a_new, w_new
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        return (a, w) if res < tol else None

    def boundary_polyline(self):
        """Closed boundary polygon: sym (P2->P3), wedge (P3->P4), sonic (P4->P1), shock (P1->P2)."""
        sym = self.nodes[:, 0, :]
        wedge = self.nodes[-1, :, :]
        sonic = self.nodes[::-1, -1, :]
        shock = self.nodes[0, ::-1, :]
        return np.vstack([sym, wedge[1:], sonic[1:], shock[1:]])


def _assemble_map(coons, n1, n2, stretch, degenerate):
    grid = logical_grid(n1, n2, stretch)
    aa, ww = np.meshgrid(grid.a, grid.w, indexing="ij")
    nodes = coons.point(aa, ww)
    xa, xw = coons.derivs(aa, ww)
    jac = xa[..., 0] * xw[..., 1] - xa[..., 1] * xw[..., 0]
    interior = jac[:, :-1] if degenerate else jac
    if np.any(interior * np.sign(np.median(interior)) <= 0.0):
        raise FoldedMesh(
            f"mesh Jacobian changes sign (min {interior.min():.3e}, max {interior.max():.3e})"
        )
    meta = {
        "sides": dict(SIDE_ASSIGNMENT),
        "stretch": stretch,
        "n1": n1,
        "n2": n2,
        "degenerate_sonic": degenerate,
    }
    return SquareMap(
        coons=coons,
        grid=grid,
        nodes=nodes,
        xa=xa,
        xw=xw,
        jac=jac,
        degenerate_sonic=degenerate,
        metadata=meta,
    )


def build_square_map(config, shock, n1, n2, stretch="sqrt"):
    """Transfinite mesh of the elliptic region for a configuration and shock.

    Raises FoldedMesh when the discrete Jacobian changes sign anywhere away
    from the (legitimately degenerate) collapsed sonic side.
    """
    p1 = shock.points[0]
    p2 = shock.points[-1]
    p3, p4 = config.p3, config.p4
    shock_side = ShockSide(shock)
    wedge_side = Segment(p3, p4)
    sym_side = Segment(p2, p3)
    degenerate = not config.has_sonic_arc
    if degenerate:
        sonic_side = Segment(config.p0, config.p0)
    else:
        v1 = config.p1 - config.sonic_center
        v4 = config.p4 - config.sonic_center
        ang1 = math.atan2(v1[1], v1[0])
        ang4 = math.atan2(v4[1], v4[0])
        dang = (ang4 - ang1 + math.pi) % (2.0 * math.pi) - math.pi
        sonic_side = Arc(config.sonic_center, config.sonic_radius, ang1, dang)
    coons = CoonsMap(shock_side, wedge_side, sym_side, sonic_side, corners=(p2, p3, p1, p4))
    return _assemble_map(coons, n1, n2, stretch, degenerate)


def quad_map(p2, p3, p4, p1, n1, n2, stretch="uniform"):
    """Coons map of a straight-sided quadrilateral (testing and synthetic runs).

    Corners follow the same roles as the reflection mesh: p2 shock/symmetry,
    p3 wedge/symmetry, p4 wedge/sonic, p1 shock/sonic.
    """
    coons = CoonsMap(
        Segment(p2, p1), Segment(p3, p4), Segment(p2, p3), Segment(p1, p4), (p2, p3, p1, p4)
    )
    return _assemble_map(coons, n1, n2, stretch, degenerate=False)
