"""Free-boundary solver for the subsonic region of a regular reflection.

One outer iteration mirrors the fixed-point map of the continuation
argument: solve a cutoff-regularized elliptic boundary value problem for
the pseudo-potential on the current domain (Dirichlet phi = phi2 on the
sonic side, prescribed state-(1) mass flux on the shock side, zero flux on
wedge and symmetry sides), then move the shock toward the zero of
phi - phi1 along the graph direction by an IQN-IMVJ quasi-Newton step over
the solve's earlier iterates, whose inverse-Jacobian model starts from the
one the member before it ends with.  The iteration is warm-started in angle
by a continuation sweep from the normal reflection at theta_w = pi/2, which
is known in closed form; from its second step on, the sweep starts each step
from a secant prediction through the two members before it.  Each BVP
starts from the state-(2) potential of its own configuration and mesh plus
the previous field's deviation from its state-(2) potential: by the
stability of admissible solutions in the wedge angle that deviation changes
little from one angle to the next, and the sonic row starts exactly at its
Dirichlet values.

Discretization: vertex-centered conservative finite volumes on the mapped
(a, w) square.  Face densities are averages of nodal densities, which makes
the scheme exact on uniform states over affine cells.  Local Mach^2
entering the coefficients is capped at min(q^2/c^2, 1 - zeta(d)) with a
smooth ramp zeta inside the cutoff band near the sonic arc; the cap must be
inactive outside the band at any accepted solution.

The discrete BVP, A(rho(phi)) phi = rhs(rho(phi)), is solved by Newton's
method with its exact Jacobian and Armijo backtracking, down to the
requested residual or to the residual's roundoff floor if that is larger.
A and the Jacobian are gathered into fixed sparsity patterns built once per
logical grid; the Jacobian is factored as a LAPACK band matrix.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # unused here; perfbench/instrument.py replaces solver.spla
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import lapack

from .distance import c1_family_distance
from .errors import (
    AttachedShockDetected,
    DetachedWedgeAngle,
    EllipticityLost,
    FoldedMesh,
    GraphPropertyLost,
    NoConvergence,
    VacuumReached,
    ValidationError,
)
from .gas import bernoulli_base, closure_density
from .geometry import ReflectionConfiguration, ShockCurve, build_configuration, initial_shock
from .mesh import build_square_map, logical_grid, read_only, sonic_extension
from .relations import NORMAL_ANGLE_TOL

ZETA0 = 0.02  # cap depth of the ellipticity cutoff at the sonic arc
MAX_NEWTON = 120    # Newton steps per BVP solve
MAX_HALVINGS = 30   # step halvings before a line search gives up
ARMIJO = 1e-4       # sufficient-decrease fraction of the line search
COARSE_LEVEL = 65   # grid sequencing: finer grids first converge the shock at this resolution
SWEEP_HALVINGS = 6  # depth of recursive midpoint bridging in a continuation step


@dataclass(frozen=True)
class IterationParams:
    """Knobs of the fixed-point iteration and its inner elliptic solves."""

    n1: int = 65
    n2: int = 65
    cutoff_width: float | None = None  # physical width; None -> 0.1 * sonic radius
    tol_fixed_point: float = 1e-7      # sup-norm of shock movement at convergence
    max_outer: int = 60
    lin_tol: float = 1e-9              # relative interior residual of the BVP

    def __post_init__(self):
        for f in fields(self):  # a bool is not a number, and a count is an integer
            value, count = getattr(self, f.name), f.type is int
            if isinstance(value, (bool, np.bool_)) or (count and not isinstance(value, (int, np.integer))):
                raise ValidationError(f"{f.name} = {value!r} must be {'an integer' if count else 'a number'}")
        if self.n1 < 3 or self.n2 < 5:
            raise ValidationError(f"grid {self.n1} x {self.n2} is smaller than 3 x 5")
        if self.max_outer < 1:
            raise ValidationError(f"max_outer = {self.max_outer!r} must be at least 1")
        positive = {"tol_fixed_point": self.tol_fixed_point, "lin_tol": self.lin_tol}
        if self.cutoff_width is not None:
            positive["cutoff_width"] = self.cutoff_width
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} = {value!r} must be finite and positive")


@dataclass(eq=False)
class SolutionField:
    """Converged (or in-progress) discrete solution on one configuration."""

    config: ReflectionConfiguration
    shock: ShockCurve
    mesh: object
    phi: np.ndarray
    residual_history: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    inverse_jacobian: np.ndarray | None = field(default=None, repr=False)  # outer model; not archived

    @property
    def theta_w(self):
        return self.config.theta_w

    def gradient(self):
        return self.mesh.gradient(self.phi)


# ----------------------------------------------------------------------
# Density with the ellipticity cutoff.

def sonic_distance(config, pts):
    """Physical distance to the sonic arc (or to P0 when it is collapsed)."""
    if config.has_sonic_arc:
        r = np.linalg.norm(pts - config.sonic_center, axis=-1)
        return np.abs(r - config.sonic_radius)
    return np.linalg.norm(pts - config.p0, axis=-1)


def cutoff_band_width(config, width=None):
    """Physical width of the ellipticity cutoff band; None -> 0.1 * sonic radius."""
    return 0.1 * config.sonic_radius if width is None else width


def _mach_cap(config, pts, cutoff_width):
    """Cap on Mach^2 entering the coefficients: 1 - zeta(d), zeta a C1 ramp."""
    d = sonic_distance(config, pts)
    ramp = np.clip(1.0 - d / cutoff_band_width(config, cutoff_width), 0.0, None)
    return 1.0 - ZETA0 * ramp * ramp


def capped_density(phi, grad, params, cap):
    """Nodal density with Mach^2 capped at `cap`; returns (rho, cap_active).

    Where q^2/c^2 exceeds the cap (or the closure base is nonpositive), q^2
    is replaced by the value that realizes Mach^2 = cap at the same phi:
    q~^2 = cap*A/(1 + cap*(g-1)/2) with A = rho0^(g-1) - (g-1)*phi, which
    keeps the density positive whenever A > 0.
    """
    g = params.gamma
    q2 = np.sum(grad * grad, axis=-1)
    a_val = params.rho0_pow - (g - 1.0) * phi
    if np.any(a_val <= 0.0):
        raise VacuumReached(
            f"closure exhausted: min(rho0^(g-1) - (g-1) phi) = {float(np.min(a_val)):.3e}"
        )
    base = a_val - 0.5 * (g - 1.0) * q2
    active = (base <= 0.0) | (q2 > cap * base)
    q2_eff = np.where(active, cap * a_val / (1.0 + 0.5 * cap * (g - 1.0)), q2)
    return closure_density(q2_eff, phi, params), active


# ----------------------------------------------------------------------
# Discrete operators: one structure per logical grid, one metric per mesh.

def _difference_1d(n):
    """(n-1, n) difference matrix: row f has -1 at node f and +1 at node f + 1."""
    return sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n), format="csr")


def _product_pairs(left_cols, right_indptr):
    """(k, p) of every product of a left entry k, in column left_cols[k], with
    an entry p (position in the CSR data) of row left_cols[k] of the right factor."""
    counts = np.diff(right_indptr)[left_cols]
    pos = np.repeat(right_indptr[left_cols] - (np.cumsum(counts) - counts), counts)
    pos += np.arange(pos.size)
    return np.repeat(np.arange(left_cols.size), counts), pos


def _product_terms(pairs):
    """(row, col, weight, offset index) of every term of sum_k L_k diag(v_k) R_k.

    `pairs` holds the (L_k, R_k), R_k in CSR.  A term L_k[row, f] R_k[f, col]
    has weight L_k[row, f] * R_k[f, col] and offset index f plus the widths of
    the earlier L's: its position in v = (v_1, v_2, ...) concatenated.
    """
    terms = []
    offset = 0
    for left, right in pairs:
        left = left.tocoo()
        k, pos = _product_pairs(left.col, right.indptr)
        terms.append((left.row[k], right.indices[pos], left.data[k] * right.data[pos], left.col[k] + offset))
        offset += left.shape[1]
    return tuple(map(np.concatenate, zip(*terms)))


def _pattern(major, minor, n):
    """Compressed pattern of the entries (major, minor) of an n x n matrix.

    Returns (slot, indptr, indices, majors): the slot of each entry, shared
    by duplicates, and the compressed arrays (CSR for major = row, CSC for
    major = column) with each slot's major index; slots are sorted by
    (major, minor).  The keys major * n + minor are int64, as n^2 can
    exceed int32; the sparse constructor picks the index dtype.
    """
    keys, slot = np.unique(np.asarray(major, dtype=np.int64) * n + minor, return_inverse=True)
    majors = keys // n
    indptr = np.r_[0, np.cumsum(np.bincount(majors, minlength=n))]
    pattern = sp.csr_matrix((np.zeros(keys.size), keys % n, indptr), shape=(n, n))
    return slot, pattern.indptr, pattern.indices, majors


class _GridStructure:
    """The parts of the finite-volume scheme that depend on the logical grid only
    (and, for the Jacobian, on whether its sonic side is collapsed).

    a-faces join nodes (i, j) and (i+1, j), w-faces join (i, j) and (i, j+1).
    On them live the differences Da_f, Dw_f, the averages Aa_f, Aw_f and the
    divergence incidences Div_a, Div_w; AaDw and AwDa average the nodal
    stencils Dw_n, Da_n of the mesh's LogicalGrid onto the faces.  The
    assembled operator

        A = Div_a C_a1 Da_f + Div_a C_a2 AaDw + Div_w C_w1 AwDa + Div_w C_w2 Dw_f

    (C diagonal face coefficients) has a fixed CSR pattern (indptr,
    indices; slot_rows is the row of each slot): each product term adds
    weight * coef[face] to data[slot], with coef the four coefficient
    vectors concatenated in that order.
    dir_rows are the sonic-side (Dirichlet) rows and interior is 0 on them,
    1 elsewhere.

    The Newton Jacobian has a fixed pattern too, inside the band of
    half-widths (kl, ku) that the natural node order i * n2 + j gives it.
    With D = diag(interior) and S = diag(slope) (see _jacobian),

        J = D (A + M S Q) + (I - D),
        M = Div_a diag(fa) Aa_f + Div_w diag(fw) Aw_f + diag(2 volw),
        Q = I + diag(gx) E Gx + diag(gy) E Gy,

    where Gk = diag(c[k, 0]) Da_n + diag(c[k, 1]) Dw_n (c the mesh's
    stencil_coefficients) and E is the sonic_extension on a collapsed sonic
    side (`degenerate`), the identity otherwise.  M's data sum m_weight *
    coef[m_face] into m_slot, coef = (fa, fw, 2 volw) concatenated; m_cols
    is each M slot's column.  Q's data are q_eye plus q_weight * (gx[q_row]
    c[0][q_src] + gy[q_row] c[1][q_src]) summed into q_slot, c[k] = (c[k, 0],
    c[k, 1]) concatenated.  J's terms are M[t_m] * S Q[t_q] over the (M slot,
    Q slot) pairs of the interior rows, A.data[a_src] and 1 on each
    Dirichlet diagonal; the Dirichlet rows hold their diagonal only.  j_band
    is each term's flat position in J's LAPACK band storage of shape
    (2 kl + ku + 1, N), Fortran order, where the terms are summed: entry
    (r, c) sits in row kl + ku + r - c of column c, and the first kl rows
    are room for the LU's fill.  All arrays are read-only.
    """

    def __init__(self, n1, n2, stretch, degenerate):
        grid = logical_grid(n1, n2, stretch)
        a, w = grid.a, grid.w
        N = n1 * n2
        da = 1.0 / (n1 - 1)
        dw = np.diff(w)
        diff_a, diff_w = _difference_1d(n1), _difference_1d(n2)
        ia, iw = sp.identity(n1, format="csr"), sp.identity(n2, format="csr")
        self.Da_f = sp.kron(diff_a / da, iw, format="csr")
        self.Dw_f = sp.kron(ia, sp.diags(1.0 / dw) @ diff_w, format="csr")
        self.Aa_f = sp.kron(abs(diff_a) / 2.0, iw, format="csr")
        self.Aw_f = sp.kron(ia, abs(diff_w) / 2.0, format="csr")
        self.Div_a = -sp.kron(diff_a.T, iw, format="csr")
        self.Div_w = -sp.kron(ia, diff_w.T, format="csr")
        self.AaDw = (self.Aa_f @ grid.Dw_n).tocsr()
        self.AwDa = (self.Aw_f @ grid.Da_n).tocsr()

        # dual-cell extents, spread over the faces they weight
        self.ea = np.full(n1, da)
        self.ea[[0, -1]] = da / 2.0
        self.ew = np.empty(n2)
        self.ew[1:-1] = (w[2:] - w[:-2]) / 2.0
        self.ew[[0, -1]] = dw[[0, -1]] / 2.0
        self.ew_face_a = np.tile(self.ew, n1 - 1)
        self.ea_face_w = np.repeat(self.ea, n2 - 1)

        # face midpoints (a-faces at (a_mid, w), w-faces at (a, w_mid)), and the
        # (lo, hi) extents of the boundary faces on a = const and w = const
        self.a_mid = a_mid = (a[:-1] + a[1:]) / 2.0
        self.w_mid = w_mid = (w[:-1] + w[1:]) / 2.0
        self.wspan = np.stack([np.r_[w[0], w_mid], np.r_[w_mid, w[-1]]])
        self.aspan = np.stack([np.r_[a[0], a_mid], np.r_[a_mid, a[-1]]])

        rows, cols, self.weight, self.face = _product_terms(
            ((self.Div_a, self.Da_f), (self.Div_a, self.AaDw), (self.Div_w, self.AwDa), (self.Div_w, self.Dw_f))
        )
        self.slot, self.indptr, self.indices, self.slot_rows = _pattern(rows, cols, N)
        self.dir_rows = np.arange(n1) * n2 + (n2 - 1)
        self.interior = np.where(np.arange(N) % n2 == n2 - 1, 0.0, 1.0)

        eye = sp.identity(N, format="csr")
        rows, cols, self.m_weight, self.m_face = _product_terms(
            ((self.Div_a, self.Aa_f), (self.Div_w, self.Aw_f), (eye, eye))
        )
        self.m_slot, _, self.m_cols, m_rows = _pattern(rows, cols, N)

        ext = sonic_extension(n1, n2) if degenerate else eye
        self.q_row, cols, self.q_weight, self.q_src = _product_terms(((ext, grid.Da_n), (ext, grid.Dw_n)))
        nodes = np.arange(N)
        q_slot, q_indptr, q_cols, _ = _pattern(np.r_[nodes, self.q_row], np.r_[nodes, cols], N)
        self.q_eye = np.bincount(q_slot[:N], minlength=q_cols.size).astype(float)
        self.q_slot = q_slot[N:]

        # Q's slots are in row-major order, so a slot is its position in CSR data
        live = np.flatnonzero(self.interior[m_rows] == 1.0)
        k, self.t_q = _product_pairs(self.m_cols[live], q_indptr)
        self.t_m = live[k]
        self.a_src = np.flatnonzero(self.interior[self.slot_rows] == 1.0)
        self.dir_ones = np.ones(self.dir_rows.size)
        rows = np.concatenate([m_rows[self.t_m], self.slot_rows[self.a_src], self.dir_rows])
        cols = np.concatenate([q_cols[self.t_q], self.indices[self.a_src], self.dir_rows])
        kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
        self.j_band = kl + ku + rows - cols + cols * (2 * kl + ku + 1)
        read_only(*vars(self).values())
        self.kl, self.ku = kl, ku


@functools.lru_cache(maxsize=8)
def _grid_structure(n1, n2, stretch, degenerate):
    """The _GridStructure of a logical grid; a pure function of its arguments."""
    return _GridStructure(n1, n2, stretch, degenerate)


def _face_metric(coons, a, w, collapsed):
    """Metric ratios (|x_w|^2, -x_a.x_w, |x_a|^2) / J on the tensor grid of a and w.

    With `collapsed` (a sonic side shrunk to a point), points on w = 1 get
    metric 0: J can vanish there, and the faces on that side join Dirichlet
    nodes only, so no interior row reads them.
    """
    _, xa, xw = coons.eval(a, w)
    jac = xa[..., 0] * xw[..., 1] - xa[..., 1] * xw[..., 0]
    live = ~(collapsed & (w == 1.0))
    return tuple(
        np.divide(num, jac, out=np.zeros_like(jac), where=live).ravel()
        for num in ((xw * xw).sum(-1), -(xa * xw).sum(-1), (xa * xa).sum(-1))
    )


class _Discretization:
    """Finite-volume operators on one mesh; density enters through face coefficients.

    Everything that depends on the logical grid alone (stencils, face
    operators, the patterns of A and of the Jacobian, the Dirichlet rows)
    is the shared, read-only `grid` structure; this object adds the mesh's
    own metric: the face metric ratios g11_f, g12_f (a-faces) and g21_g,
    g22_g (w-faces), and the node volume weights volw = J * Ea * Ew.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.n1, self.n2 = mesh.n1, mesh.n2
        collapsed = mesh.degenerate_sonic
        self.grid = _grid_structure(mesh.n1, mesh.n2, mesh.grid.stretch, collapsed)
        self.g11_f, self.g12_f, _ = _face_metric(mesh.coons, self.grid.a_mid, mesh.grid.w, collapsed)
        _, self.g21_g, self.g22_g = _face_metric(mesh.coons, mesh.grid.a, self.grid.w_mid, collapsed)
        self.volw = (mesh.jac * self.grid.ea[:, None] * self.grid.ew[None, :]).ravel()

    # -- boundary quadrature -------------------------------------------------
    _GPTS = (-0.5773502691896258, 0.5773502691896258)

    def flux_line(self, side, value, state):
        """Prescribed flux rho Dphi . n through the boundary faces on `side` = value.

        side is "a" or "w"; n is the mapped normal in the +side direction,
        (x_w2, -x_w1) on a line a = const and (-x_a2, x_a1) on a line
        w = const, and state(points) -> (rho, Dphi).  Two-point Gauss per
        face span, both points of every span in one evaluation of the map.
        """
        on_a = side == "a"
        lo, hi = self.grid.wspan if on_a else self.grid.aspan
        t = np.concatenate([(lo + hi) / 2.0 + gp * (hi - lo) / 2.0 for gp in self._GPTS])
        aw = ([value], t) if on_a else (t, [value])
        x, xa, xw = (v.reshape(-1, 2) for v in self.mesh.coons.eval(*aw))
        nx, ny = (xw[..., 1], -xw[..., 0]) if on_a else (-xa[..., 1], xa[..., 0])
        rho, g = state(x)
        flux = rho * (g[..., 0] * nx + g[..., 1] * ny)
        return 0.5 * (hi - lo) * flux[:lo.size] + 0.5 * (hi - lo) * flux[lo.size:]

    def assemble(self, rho_nodes):
        """Sparse CSR operator A with frozen nodal densities (no BC rows yet).

        One face-coefficient vector, scattered into the grid's fixed
        pattern by a single bincount.
        """
        g = self.grid
        rho = rho_nodes.ravel()
        ca = g.ew_face_a * (g.Aa_f @ rho)
        cw = g.ea_face_w * (g.Aw_f @ rho)
        coef = np.concatenate([ca * self.g11_f, ca * self.g12_f, cw * self.g21_g, cw * self.g22_g])
        data = np.bincount(g.slot, weights=g.weight * coef[g.face], minlength=g.indices.size)
        N = self.n1 * self.n2
        return sp.csr_matrix((data, g.indices, g.indptr), shape=(N, N))


@dataclass(eq=False)
class MMSProblem:
    """Manufactured solution: phi, gradient, Hessian callables on points (..., 2)."""

    phi: object
    grad: object
    hess: object

    def density(self, pts, params):
        g = self.grad(pts)
        return closure_density((g * g).sum(-1), self.phi(pts), params)

    def source(self, pts, params):
        """div(rho Dphi) + 2 rho of the manufactured field."""
        g = self.grad(pts)
        h = self.hess(pts)
        rho = self.density(pts, params)
        trace = h[..., 0, 0] + h[..., 1, 1]
        hdot = np.einsum("...ij,...j->...i", h, g)
        drho = -(rho ** (2.0 - params.gamma))[..., None] * (g + hdot)
        return rho * (trace + 2.0) + (drho * g).sum(-1)


def _bvp_data(config, mesh, iter_params, mms):
    """Operators, Mach cap, sonic Dirichlet values and right-hand side of the BVP.

    Returns (disc, cap, dirichlet_vals, rhs) with rhs(rho) the right-hand
    side for frozen nodal densities rho: the volume term plus the prescribed
    boundary fluxes, which move there from the operator.
    """
    disc = _Discretization(mesh)
    n1, n2 = mesh.n1, mesh.n2
    pts = mesh.nodes
    cap = _mach_cap(config, pts, iter_params.cutoff_width)
    if mms is None:
        dirichlet_vals = config.state2.potential(pts[:, -1, :])
        s1 = config.state1
        shock_flux = disc.flux_line("a", 0.0, lambda pts: (s1.rho, s1.gradient(pts)))
        wedge_flux = np.zeros(n2)
        sym_flux = np.zeros(n1)
        source_extra = 0.0
    else:
        dirichlet_vals = mms.phi(pts[:, -1, :])
        def state(pts):
            return mms.density(pts, config.params), mms.grad(pts)
        shock_flux = disc.flux_line("a", 0.0, state)
        wedge_flux = disc.flux_line("a", 1.0, state)
        sym_flux = disc.flux_line("w", 0.0, state)
        source_extra = mms.source(pts, config.params).ravel() * disc.volw

    def rhs(rho):
        c = -2.0 * rho.ravel() * disc.volw + source_extra
        # R[0, j] has -Fa[-1, j] = -shock_flux[j]; R[n1-1, j] has +wedge_flux[j];
        # R[i, 0] has -sym_flux[i]
        c[:n2] += shock_flux
        c[(n1 - 1) * n2 :] -= wedge_flux
        c[::n2] += sym_flux
        return c

    return disc, cap, dirichlet_vals, rhs


# The discrete operator at an iterate phi: its gradient, the capped density and
# its cap mask, A(rho), c = rhs(rho) and r = A phi - c (0 on Dirichlet rows).
_Linearization = namedtuple("_Linearization", "phi grad rho active A c r")


def _residual(disc, phi, params, cap, rhs):
    """The _Linearization of phi -> A(rho(phi)) phi - rhs(rho(phi)) at phi."""
    grad = disc.mesh.gradient(phi)
    rho, active = capped_density(phi, grad, params, cap)
    A = disc.assemble(rho)
    c = rhs(rho)
    r = A @ phi.ravel() - c
    r[disc.grid.dir_rows] = 0.0
    return _Linearization(phi, grad, rho, active, A, c, r)


def _residual_scale(disc, rho):
    """Normalisation of the interior residual: max |2 rho volw|."""
    return max(float(np.max(np.abs(2.0 * rho.ravel() * disc.volw))), 1e-300)


def _relative_residual(lin, scale):
    """The max-norm of the interior residual in units of `scale`."""
    return float(np.max(np.abs(lin.r))) / scale


def _roundoff_floor(disc, lin):
    """eps * max over interior rows of |A||phi| + |c|, the rounding error
    of the computed residual; |A| is read off A's data on the grid pattern."""
    g = disc.grid
    x = np.abs(lin.phi.ravel())
    bound = (np.bincount(g.slot_rows, np.abs(lin.A.data) * x[g.indices], minlength=x.size)
             + np.abs(lin.c)) * g.interior
    return np.finfo(float).eps * float(np.max(bound))


def _jacobian(disc, lin, cap, gamma):
    """Exact Jacobian of the residual at lin.phi, identity on the Dirichlet rows.

    J = D (A(rho) + M S Q) + (I - D) with D = diag(interior): M = B(phi) +
    2 diag(volw), where B(phi) rho equals A(rho) phi (A is linear in rho)
    and 2 diag(volw) is -d rhs/d rho, and S Q = drho/dphi.  Off the cap,
    S = -rho^(2-g) and Q = I + diag(phi_x) Gx + diag(phi_y) Gy; where the
    cap is active rho depends on phi alone, so S = -rho^(2-g) / (1 + cap
    (g-1)/2) and Q's row is the identity's.  The terms are gathered and
    summed by one bincount straight into J's LAPACK band storage
    (_GridStructure), which is returned.
    """
    g = disc.grid
    x = lin.phi.ravel()
    fa = g.ew_face_a * (disc.g11_f * (g.Da_f @ x) + disc.g12_f * (g.AaDw @ x))
    fw = g.ea_face_w * (disc.g21_g * (g.AwDa @ x) + disc.g22_g * (g.Dw_f @ x))
    coef = np.concatenate([fa, fw, 2.0 * disc.volw])
    active = lin.active.ravel()
    slope = -lin.rho.ravel() ** (2.0 - gamma) / np.where(active, 1.0 + 0.5 * (gamma - 1.0) * cap.ravel(), 1.0)
    m = np.bincount(g.m_slot, g.m_weight * coef[g.m_face], minlength=g.m_cols.size)
    ms = m * slope[g.m_cols]
    grad = np.where(active[:, None], 0.0, lin.grad.reshape(-1, 2))[g.q_row]
    c = disc.mesh.stencil_coefficients.reshape(2, -1)
    qw = g.q_weight * (grad[:, 0] * c[0][g.q_src] + grad[:, 1] * c[1][g.q_src])
    q = g.q_eye + np.bincount(g.q_slot, qw, minlength=g.q_eye.size)
    weights = np.concatenate([ms[g.t_m] * q[g.t_q], lin.A.data[g.a_src], g.dir_ones])
    band = np.bincount(g.j_band, weights, minlength=(2 * g.kl + g.ku + 1) * x.size)
    return band.reshape(-1, x.size, order="F")


def solve_bvp(config, mesh, phi_init, iter_params, mms=None):
    """Solve the (cutoff-regularized) elliptic BVP on `mesh`, starting from phi_init.

    Dirichlet phi = phi2 on the sonic side, state-(1) mass flux through the
    shock side, zero flux on wedge and symmetry sides.  Newton's method with
    the exact Jacobian, one band LU per step and Armijo backtracking (step
    halving on the residual's 2-norm), until the relative max-norm residual
    is below iter_params.lin_tol or below its roundoff floor, whichever is
    larger; info["stalled"] marks a stop at the floor above lin_tol, and
    info["residual_evals"] counts the line searches' trial residuals.  With
    `mms` given, the manufactured source and boundary data replace the
    physical ones (convergence testing).

    Returns (phi, info); raises NoConvergence (MAX_NEWTON steps, a singular
    Jacobian, or no sufficient decrease in a line search), VacuumReached
    (also when every trial step reaches vacuum), or EllipticityLost (when
    the Mach cap is active outside the cutoff band at the solution with
    Mach^2 > 1 + 1e-6).
    """
    disc, cap, dirichlet_vals, build_rhs = _bvp_data(config, mesh, iter_params, mms)
    params = config.params
    phi = np.array(phi_init, dtype=float).reshape(mesh.n1, mesh.n2).copy()
    phi[:, -1] = dirichlet_vals

    lin = _residual(disc, phi, params, cap, build_rhs)
    scale = _residual_scale(disc, lin.rho)
    res = _relative_residual(lin, scale)
    kl, ku = disc.grid.kl, disc.grid.ku
    its = trials = 0
    while res >= max(iter_params.lin_tol, _roundoff_floor(disc, lin) / scale):
        if its == MAX_NEWTON:
            raise NoConvergence(f"Newton at relative residual {res:.3e} (tol {iter_params.lin_tol:.1e})")
        its += 1
        lu, piv, zero_pivot = lapack.dgbtrf(_jacobian(disc, lin, cap, params.gamma), kl, ku, overwrite_ab=True)
        if zero_pivot > 0:
            raise NoConvergence(f"Newton LU: zero pivot in column {zero_pivot} at residual {res:.3e}")
        step = lapack.dgbtrs(lu, kl, ku, -lin.r, piv)[0]
        del lu  # one band array at a time: the next step builds its own
        # Armijo on the 2-norm: the max norm can stall for good where the
        # largest residual sits next to a node on the Mach cap's kink
        merit = np.linalg.norm(lin.r)
        t = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trials += 1
            try:
                trial = _residual(disc, lin.phi + t * step.reshape(phi.shape), params, cap, build_rhs)
            except VacuumReached as exc:
                failure = exc
            else:
                if np.linalg.norm(trial.r) <= (1.0 - ARMIJO * t) * merit:
                    break
                failure = NoConvergence(f"Newton line search: no decrease from residual {res:.3e}")
            t *= 0.5
        else:
            raise failure
        lin = trial
        res = _relative_residual(lin, scale)
    outside_band = sonic_distance(config, mesh.nodes) > cutoff_band_width(config, iter_params.cutoff_width)
    bad = lin.active & outside_band
    info = {"newton_iters": its, "residual_evals": trials, "residual": res,
            "stalled": res >= iter_params.lin_tol, "cap_outside_band": int(np.count_nonzero(bad))}
    if info["cap_outside_band"] > 0:
        # tolerate marginally sonic points: only raise when Mach^2 exceeds
        # 1 + 1e-6 outside the band
        q2 = np.sum(lin.grad * lin.grad, axis=-1)
        base = bernoulli_base(q2, lin.phi, params)
        mach2 = np.where(base > 0.0, q2 / np.where(base > 0, base, 1.0), np.inf)
        worst = float(np.max(mach2[bad]))
        if worst > 1.0 + 1e-6:
            raise EllipticityLost(
                f"Mach^2 = {worst:.6f} outside the cutoff band at a converged BVP solution"
            )
    return lin.phi, info


# ----------------------------------------------------------------------
# Shock update and the outer fixed-point loop.

def _differences(x, r, earlier):
    """V and dX: the differences of r and of x against every earlier (x_i, r_i)."""
    return np.column_stack([r - ri for _, ri in earlier]), np.column_stack([x - xi for xi, _ in earlier])


def quasi_newton_step(x, r, earlier, prior=None):
    """IQN-IMVJ step (Bogaers et al., CMAME 279, 2014) from x with residual r.

    With B = prior, a model of the inverse Jacobian of r, and V, dX the
    _differences against every earlier (x_i, r_i), the step is -B r - (dX -
    B V) V^+ r.  prior None is B = -I: the IQN-ILS step (Degroote et al.,
    Comput. Struct. 87, 2009) r + W c with W = V + dX and c = lstsq(V, -r).
    """
    b = -np.eye(r.size) if prior is None else prior
    step = -(b @ r)
    if not earlier:
        return step
    v, dx = _differences(x, r, earlier)
    c = np.linalg.lstsq(v, -r, rcond=None)[0]
    return step + (dx - b @ v) @ c


def quasi_newton_model(earlier, prior=None):
    """The model of quasi_newton_step after the iterates `earlier`: B + (dX -
    B V) V^+ with the _differences against the last iterate, which maps every
    difference of r in V to its difference of x (B = prior, None being -I)."""
    x, r = earlier[-1]
    model = -np.eye(r.size) if prior is None else prior
    if len(earlier) < 2:
        return model
    v, dx = _differences(x, r, earlier[:-1])
    return model + (dx - model @ v) @ np.linalg.pinv(v)


def shock_trace(config, mesh, phi):
    """The field on the mesh's shock row, j = 0 at the foot to n2 - 1 at P1:
    (nodes, Dphi, phi - phi1, Dphi1), with state (1) ahead of the shock."""
    nodes = mesh.nodes[0]
    s1 = config.state1
    return nodes, mesh.gradient(phi)[0], phi[0] - s1.potential(nodes), s1.gradient(nodes)


def shock_offsets(pts, w, e):
    """The shock unknown u = (xi1 of the foot, d_1, ..., d_{n-2}) of the nodes
    pts, foot first and P1 last, at the chord fractions w: d_j is node j's
    offset along e from the chord foot -> P1 at fraction w_j, in chord lengths."""
    chord = pts[-1] - pts[0]
    d = (pts[1:-1] - pts[0] - w[1:-1, None] * chord) @ e / np.linalg.norm(chord)
    return np.r_[pts[0, 0], d]


def shock_from_offsets(config, u, w):
    """The shock of the unknown u (see shock_offsets) on config, from the foot
    (u[0], 0) to P1, with its nodes at T_foot + w_j (T_P1 - T_foot): where
    build_square_map samples the mesh's shock row."""
    foot = np.array([u[0], 0.0])
    chord = config.p1 - foot
    d = np.r_[0.0, u[1:], 0.0]
    pts = foot + w[:, None] * chord + np.linalg.norm(chord) * d[:, None] * config.wedge_normal()
    pts[-1] = config.p1
    return config.shock_curve(pts[::-1].copy())


def update_shock(phi, config, shock, mesh, earlier=(), prior=None):
    """Move the shock toward the zero of phi - phi1 by one quasi-Newton step in u.

    phi is extrapolated linearly past the shock from its boundary value and
    gradient; with phi1 quadratic the crossing solves
    s^2/2 + s * d(phi - phi1)/de + (phi - phi1) = 0 in closed form.  The
    plain map moves each interior node of the mesh's shock row by that
    displacement along e, clipped to 0.2 sonic radii, pins the top node to
    P1 (P0 in subsonic regimes), re-pins the foot to the axis by the
    vertical-tangency closure (C1 reflected extension) through the two
    moved nodes above it, and resamples the moved row linearly in T at the
    new chord's fractions.  Its change in the shock unknown u (shock_offsets)
    is the residual r, and u moves by quasi_newton_step(u, r, earlier, prior).
    Returns (new_curve, info) with info["movement"] = max(|change of the
    foot|, chord length * max |change of d|) and info["iterate"] = (u, r).

    Raises GraphPropertyLost / AttachedShockDetected on invalid updates.
    """
    e, w = shock.e, mesh.grid.w
    pts, grad, dphi, grad1 = shock_trace(config, mesh, phi)
    b, c = ((grad - grad1) @ e)[1:-1], dphi[1:-1]
    disc = b * b - 2.0 * c
    live = np.abs(b) > 1e-14
    s = np.where(live, -c / np.where(live, b, 1.0), 0.0)
    s = np.where((disc >= 0.0) & (b > 0.0), np.sqrt(np.maximum(disc, 0.0)) - b, s)
    s[~live & (np.abs(c) < 1e-14)] = 0.0
    # the clip keeps the first steps of a cold start a graph: without it a
    # cold solve at 75 degrees on 33^2 loses the slope bounds
    s_cap = 0.2 * config.sonic_radius
    moved = pts.copy()
    moved[1:-1] += np.clip(s, -s_cap, s_cap)[:, None] * e
    moved[-1] = config.p1

    # vertical-tangency closure at the foot through the two moved nodes above
    (xa_, ya), (xb_, yb) = moved[1], moved[2]
    denom = yb * yb - ya * ya
    if abs(denom) < 1e-30:
        raise GraphPropertyLost("degenerate foot closure: coincident node heights")
    beta = (xb_ - xa_) / denom
    moved[0] = (xa_ - beta * ya * ya, 0.0)

    # T decreases from the foot to P1 along the row
    ep = shock.e_perp
    t = moved @ ep
    if np.any(np.diff(t) >= 0.0):
        raise GraphPropertyLost("foot closure passed the node above it in T")
    t_new = t[0] + w * (t[-1] - t[0])
    s_new = np.interp(t_new, t[::-1], (moved @ e)[::-1])
    u = shock_offsets(pts, w, e)
    r = shock_offsets(s_new[:, None] * e + t_new[:, None] * ep, w, e) - u
    step = quasi_newton_step(u, r, earlier, prior)
    if u[0] + step[0] > -config.attach_eps:
        raise AttachedShockDetected(f"shock foot xi1={u[0] + step[0]:.6f} reached the wedge vertex")
    curve = shock_from_offsets(config, u + step, w)
    # transient iterates may overshoot the converged tangent bounds; only the
    # graph property itself is a hard requirement here (the admissibility
    # checker enforces the strict Lemma-type bounds on converged shocks)
    curve.check_graph(tol=0.5)
    movement = max(abs(step[0]), np.linalg.norm(pts[-1] - pts[0]) * np.max(np.abs(step[1:])))
    return curve, {"movement": float(movement), "iterate": (u, r)}


def _start(sol, grid):
    """What a solve warm-started from sol starts from on the logical grid:
    (u, dev), sol's shock unknown at grid's fractions (shock_offsets) and its
    deviation phi - phi2 on its own mesh, resampled through the (a, w) square
    when the grids differ (grid sequencing)."""
    u = shock_offsets(sol.shock.eval(grid.w)[0], grid.w, sol.shock.e)
    dev = sol.phi - sol.config.state2.potential(sol.mesh.nodes)
    if dev.shape != (grid.n1, grid.n2):
        rgi = RegularGridInterpolator((sol.mesh.grid.a, sol.mesh.grid.w), dev, bounds_error=False, fill_value=None)
        dev = rgi(np.stack(np.meshgrid(grid.a, grid.w, indexing="ij"), axis=-1))
    return u, dev


def _prior(init, iter_params):
    """init's inverse_jacobian if it has n2 - 1 rows, the size of the shock
    unknown on iter_params' grid; else None (so the coarse level of a
    grid-sequenced solve, whose size differs, starts from the identity)."""
    model = getattr(init, "inverse_jacobian", None)
    return model if model is not None and len(model) == iter_params.n2 - 1 else None


def fixed_point_solve(params, theta_w, iter_params=None, init=None):
    """Alternate BVP solves and shock updates until the shock stops moving.

    At theta_w = pi/2 the explicit normal reflection is returned: a flat
    vertical reflected shock at xi1_bar < 0 with the rest state behind it,
    on the strip capped by the rest state's sonic arc, and phi exactly the
    rest state's potential.  One verification pass of the shock update
    (which must not move the exact flat shock) and of the interior residual
    is recorded.  Otherwise the shock is warm-started from `init`, whose
    shock unknown u (_start, at this grid's fractions) is carried to this
    configuration's P1 and wedge normal, or from the cold-start curve.
    Each pass builds the mesh on the current shock, solves the BVP and moves
    the shock by one `update_shock` over all earlier iterates of this solve
    and the _prior from init (metadata["outer_model"] "carried" or "identity");
    the pass after the applied displacement drops below tol_fixed_point solves
    at lin_tol and ends the solve, so the field matches the converged shock.
    Earlier passes solve only as accurately as the next shock correction needs.
    Every BVP starts from the state-(2) potential on its own mesh plus the
    previous field's deviation from its state-(2) potential (zero on a cold
    start; from a coarser grid, resampled once through the logical square), so
    the sonic row starts at its Dirichlet values.  Grid sequencing (n1 and n2
    above 1.5 COARSE_LEVEL) first solves at COARSE_LEVEL^2 from init and
    starts this level from that solution; the coarse level starts from the
    identity, and this level carries the _prior from the caller's init.
    The field returned carries the quasi_newton_model of those iterates.
    metadata["newton_steps"] sums the Newton steps of every BVP of the solve,
    the coarse level's included (outer_iterations and residual_history are
    this level's alone), and metadata["warm_start_gap"] is the largest
    distance, along the graph direction e, of a converged shock node from the
    start shock (the warm start; with grid sequencing, the coarse solution's
    shock).

    Raises NoConvergence after max_outer solves and shock updates, and
    DetachedWedgeAngle, AttachedShockDetected, VacuumReached,
    EllipticityLost, GraphPropertyLost as encountered.
    """
    iter_params = iter_params or IterationParams()
    n1, n2 = iter_params.n1, iter_params.n2

    if abs(theta_w - math.pi / 2.0) < NORMAL_ANGLE_TOL:
        config = build_configuration(params, math.pi / 2.0)
        shock = initial_shock(config, n=max(n2, 65))
        mesh = build_square_map(config, shock, n1, n2)
        phi = config.state2.potential(mesh.nodes)
        _, upd = update_shock(phi, config, shock, mesh)
        # the exact field's own residual, not a discrete solve's: where the
        # Mach cap is active near the sonic arc the rest state is not a
        # solution of the discrete problem
        disc, cap, _, rhs = _bvp_data(config, mesh, iter_params, None)
        lin = _residual(disc, phi, params, cap, rhs)
        res = _relative_residual(lin, _residual_scale(disc, lin.rho))
        return _solution(
            config, shock, mesh, phi, [(1, upd["movement"], res)], iter_params,
            exact=True, rho2_bar=config.state2.rho, xi1_bar=float(shock.points[0, 0]),
            converged=bool(upd["movement"] < iter_params.tol_fixed_point),
            newton_steps=0, outer_model="identity",
        )

    prior = _prior(init, iter_params)
    newton_steps = 0
    # grid sequencing: converge the shock on a coarse grid first
    if min(n1, n2) > 1.5 * COARSE_LEVEL:
        init = fixed_point_solve(params, theta_w, replace(iter_params, n1=COARSE_LEVEL, n2=COARSE_LEVEL), init=init)
        newton_steps = init.metadata["newton_steps"]

    config = build_configuration(params, theta_w)
    if init is not None:
        grid = logical_grid(n1, n2, "sqrt")
        u, dev = _start(init, grid)
        shock = shock_from_offsets(config, u, grid.w)
    else:
        shock = initial_shock(config, n=max(n2, 65))
        dev = np.zeros((n1, n2))

    start = shock
    history = []
    earlier = []  # (S, r) of every earlier iterate, for the quasi-Newton step
    movement = math.inf
    while True:
        mesh = build_square_map(config, shock, n1, n2)
        last = movement < iter_params.tol_fixed_point
        # until the last pass the BVP only needs to be as accurate as the next shock correction
        lin_tol = iter_params.lin_tol if last else max(iter_params.lin_tol, min(1e-5, 1e-3 * movement))
        phi, info = solve_bvp(config, mesh, config.state2.potential(mesh.nodes) + dev,
                              replace(iter_params, lin_tol=lin_tol))
        newton_steps += info["newton_iters"]
        if last:
            break
        shock, upd = update_shock(phi, config, shock, mesh, earlier, prior)
        earlier.append(upd["iterate"])
        movement = upd["movement"]
        history.append((len(history) + 1, movement, info["residual"]))
        dev = phi - config.state2.potential(mesh.nodes)
        if len(history) == iter_params.max_outer and not movement < iter_params.tol_fixed_point:
            raise NoConvergence(
                f"shock movement {movement:.3e} after {iter_params.max_outer} outer iterations "
                f"(tol {iter_params.tol_fixed_point:.1e}) at theta_w={math.degrees(theta_w):.4f} deg"
            )

    return _solution(
        config, shock, mesh, phi, history, iter_params, quasi_newton_model(earlier, prior),
        exact=False,
        outer_model="identity" if prior is None else "carried",
        outer_iterations=len(history),
        newton_steps=newton_steps,
        warm_start_gap=float(np.max(np.abs(shock.s_values - start.graph_value(shock.t_values)[0]))),
        interior_residual=info["residual"],
        cap_outside_band=info["cap_outside_band"],
        converged=True,
    )


def _solution(config, shock, mesh, phi, history, iter_params, model=None, **record):
    """The SolutionField of a solve.  Its metadata are the angle, regime and
    grid that every member records, what this solve recorded, its
    tolerances, and the a-posteriori RH residuals on the shock it returns:
    the scheme imposes only the flux condition, so potential continuity (and
    the pointwise mass jump) are verified after the fact."""
    pts, grad, dphi, grad1 = shock_trace(config, mesh, phi)
    nu = shock.normals(t=pts @ shock.e_perp)
    rho = closure_density((grad * grad).sum(-1), phi[0], config.params)
    mass = rho * (grad * nu).sum(-1) - config.state1.rho * (grad1 * nu).sum(-1)
    meta = {"theta_deg": math.degrees(config.theta_w), "regime": config.regime.value,
            "n1": mesh.n1, "n2": mesh.n2, **record,
            "cutoff_width": iter_params.cutoff_width, "zeta0": ZETA0,
            "tol_fixed_point": iter_params.tol_fixed_point, "lin_tol": iter_params.lin_tol,
            "rh_potential_max": float(np.nanmax(np.abs(dphi))),
            "rh_mass_max": float(np.nanmax(np.abs(mass)))}
    return SolutionField(config=config, shock=shock, mesh=mesh, phi=phi,
                         residual_history=history, metadata=meta, inverse_jacobian=model)


# step failures that a smaller angle step can get past
BRIDGED_FAILURES = (NoConvergence, GraphPropertyLost, EllipticityLost, VacuumReached, FoldedMesh)


@dataclass(eq=False)
class SweepResult:
    """Continuation family with its stopping cause.

    bridges holds (theta, error type name) of each failed step that the
    sweep halved, and restarts of each failed step that it retried without
    its carried outer model, in the order the failures happened.
    """

    members: list
    status: str
    stop_reason: str | None = None
    failed_theta: float | None = None
    bridges: list = field(default_factory=list)
    restarts: list = field(default_factory=list)

    @property
    def thetas(self):
        """The wedge angle of each member."""
        return [m.theta_w for m in self.members]

    @functools.cached_property
    def distances(self):
        """c1_family_distance of each consecutive pair of members, computed on first use."""
        return [c1_family_distance(a, b) for a, b in zip(self.members, self.members[1:])]


def _secant_start(a, b, theta_w):
    """First-order (secant) prediction at theta_w from the members a and b,
    b the nearer; either may be the exact normal reflection.

    With the step ratio rho = (theta_w - theta_b) / (theta_b - theta_a), the
    shock unknown extrapolates, u_b + rho (u_b - u_a), and the field the
    state-(2)-relative deviation, dev_b + rho (dev_b - dev_a), both read by
    _start on b's grid.  The result lives on b's configuration and mesh, so
    fixed_point_solve carries its shock and reads its deviation as it does
    for any warm start, and hands on b's inverse-Jacobian model.
    """
    rho = (theta_w - b.theta_w) / (b.theta_w - a.theta_w)
    (u_a, dev_a), (u_b, dev_b) = (_start(m, b.mesh.grid) for m in (a, b))
    return SolutionField(config=b.config, mesh=b.mesh, phi=b.phi + rho * (dev_b - dev_a),
                         shock=shock_from_offsets(b.config, u_b + rho * (u_b - u_a), b.mesh.grid.w),
                         inverse_jacobian=b.inverse_jacobian)


def continuation_sweep(params, theta_grid, iter_params=None):
    """March the family downward in angle, warm-starting each solve.

    theta_grid must start at pi/2 and decrease through finite angles
    (ValidationError otherwise).  The first step starts from the exact
    normal reflection alone; every later step starts from the secant
    prediction through the two members before it (_secant_start), the exact
    one included.  Each member (and bridge) records metadata["predictor"],
    "transport" or "secant".  A step that fails with one of
    BRIDGED_FAILURES while it carries an outer model (_prior; near a zero
    eigenvalue of dr/du the model can point the wrong way) is retried once
    from the same start with the identity prior, recorded in restarts.  A
    step that still fails is bridged by recursive midpoint solves,
    SWEEP_HALVINGS levels deep, each predicted from the pair it holds, and
    each halving is recorded in the result's bridges.  Stops with the
    error's type name as status at DetachedWedgeAngle, AttachedShockDetected
    or an unbridged failure; the partial family is returned.
    """
    iter_params = iter_params or IterationParams()
    thetas = [float(t) for t in theta_grid]
    if not thetas:
        raise ValidationError("empty angle grid")
    if not all(map(math.isfinite, thetas)):
        raise ValidationError("angle grid holds a non-finite angle")
    if abs(thetas[0] - math.pi / 2.0) >= NORMAL_ANGLE_TOL:
        raise ValidationError("continuation must start at theta_w = pi/2")
    if any(t2 >= t1 for t1, t2 in zip(thetas, thetas[1:])):
        raise ValidationError("angle grid must be strictly decreasing")

    bridges, restarts = [], []

    def solve(init, target):
        try:
            return fixed_point_solve(params, target, iter_params, init=init)
        except BRIDGED_FAILURES as exc:
            if _prior(init, iter_params) is None:
                raise
            restarts.append((target, type(exc).__name__))
        return fixed_point_solve(params, target, iter_params, init=replace(init, inverse_jacobian=None))

    def advance(prev, last, target, depth):
        try:
            sol = solve(last if prev is None else _secant_start(prev, last, target), target)
        except BRIDGED_FAILURES as exc:
            if depth >= SWEEP_HALVINGS:
                raise
            bridges.append((target, type(exc).__name__))
            bridge = advance(prev, last, 0.5 * (last.theta_w + target), depth + 1)
            return advance(last, bridge, target, depth + 1)
        sol.metadata["predictor"] = "transport" if prev is None else "secant"
        return sol

    members = [fixed_point_solve(params, thetas[0], iter_params)]
    for target in thetas[1:]:
        try:
            members.append(advance(members[-2] if len(members) > 1 else None, members[-1], target, 0))
        except (DetachedWedgeAngle, AttachedShockDetected) + BRIDGED_FAILURES as exc:
            return SweepResult(members, type(exc).__name__, str(exc), target, bridges, restarts)
    return SweepResult(members, "completed", bridges=bridges, restarts=restarts)
