"""The tests' reference implementations: quadrature rules on ball
boundaries, nodal densities and traces, and the Nystrom, Poisson and
shell-quadrature oracles.

The package holds every density, trace and field as coefficients on
orthonormal harmonics and measures them in closed form.  These compute
the same quantities a second way, from values at quadrature nodes, so the
tests can compare the two: the Nystrom sums of the double-layer kernel
for the operator's matrix (:func:`apply`, :func:`apply_adjoint`) and the
radiated field (:func:`eval_double_layer`), Poisson-kernel quadrature for
the Dirichlet problems (:func:`poisson_solve`), and radial-shell
quadrature for the volume norms of an automatic budget
(:func:`ball_l2_norm`).  Surface integrals use spectrally accurate rules
for smooth integrands: equispaced trapezoid nodes on circles, and a
Gauss-Legendre (polar) x trapezoid (azimuth) product grid on spheres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fieldcast.fields import _distance, _points, eval_field
from fieldcast.geometry import (MIN_NODES, SEPARATION_RTOL, UNIT_SPHERE_MEASURE, Boundary,
                                frozen_array, surface_harmonics)
from fieldcast.kernels import _dist_and_dot, dlp_kernel, row_blocks
from fieldcast.operator import HarmonicDensity, _same_boundary

# Relative tolerances for quadrature-rule self checks.
SURFACE_MEASURE_RTOL = 1e-12
NODE_ON_BOUNDARY_RTOL = 1e-14

# Azimuth nodes per polar node in the 3D rules of make_rule.
AZIMUTH_PER_POLAR = 2


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes, weights and outward normals on a ball boundary.

    Invariants (enforced by :meth:`validate`): weights sum to the surface
    measure to 1e-12 relative, every node lies on the boundary to
    1e-14 * radius, and every normal equals (node - center) / radius.
    """

    boundary: Boundary
    nodes: np.ndarray    # (n, dim)
    weights: np.ndarray  # (n,)
    normals: np.ndarray  # (n, dim)

    def __post_init__(self):
        for name in ("nodes", "weights", "normals"):
            object.__setattr__(self, name, frozen_array(getattr(self, name)))
        self.validate()

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum approximating the surface integral of the values."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.node_count,):
            raise ValueError(
                f"values shape {values.shape} does not match {self.node_count} nodes"
            )
        return float(self.weights @ values)

    def l2_norm(self, values: np.ndarray) -> float:
        """Quadrature-weighted L2 norm of nodal values."""
        values = np.asarray(values, dtype=float)
        return float(np.sqrt(self.weights @ values**2))

    def validate(self) -> None:
        """Check rule integrity. Raises ValueError on failure."""
        n, d = self.nodes.shape
        if d != self.boundary.dim:
            raise ValueError(f"node dimension {d} != boundary dim {self.boundary.dim}")
        if self.weights.shape != (n,):
            raise ValueError(f"weights shape {self.weights.shape} != ({n},)")
        if self.normals.shape != (n, d):
            raise ValueError(f"normals shape {self.normals.shape} != ({n}, {d})")
        if np.any(self.weights <= 0):
            raise ValueError("non-positive quadrature weights")

        total = float(np.sum(self.weights))
        measure = self.boundary.measure
        if abs(total - measure) > SURFACE_MEASURE_RTOL * measure:
            raise ValueError(
                f"weights sum {total!r} != surface measure {measure!r}"
            )
        # Tolerance: 1e-14 * radius plus the float representation error a
        # node "center + r * normal" necessarily carries from |center|.
        eps = np.finfo(float).eps
        center_norm = float(np.linalg.norm(self.boundary.center))
        tol = NODE_ON_BOUNDARY_RTOL * self.boundary.radius + 8 * eps * (center_norm + self.boundary.radius)
        radii = np.linalg.norm(self.nodes - self.boundary.center, axis=1)  # (n,)
        if np.max(np.abs(radii - self.boundary.radius)) > tol:
            raise ValueError("nodes do not lie on the boundary")
        expected = (self.nodes - self.boundary.center) / self.boundary.radius
        if np.max(np.abs(self.normals - expected)) > tol / self.boundary.radius:
            raise ValueError("normals are not outward unit radial vectors")


def make_circle_rule(center, radius: float, n: int, frame=None) -> QuadratureRule:
    """Equispaced trapezoid rule on a circle.

    Nodes sit at angles 2*pi*j/n, every weight is 2*pi*r/n, normals point
    radially outward.  The rule integrates trigonometric polynomials of
    degree < n exactly, which makes it spectrally accurate for the
    analytic integrands that arise between well separated boundaries, and
    the product of any two circle harmonics of degree <= (n - 1) // 2, the
    boundary's degree.

    Parameters
    ----------
    center : array-like, shape (2,)
    radius : float, > 0
    n : int, >= MIN_NODES[2]
        Node count.
    frame : the boundary's solve frame (:class:`fieldcast.geometry.Boundary`),
        in which the centre, the nodes and the normals are given.
    """
    if n < MIN_NODES[2]:
        raise ValueError(f"circle rule needs n >= {MIN_NODES[2]} nodes, got {n}")
    boundary = Boundary(center=center, radius=radius, dim=2, degree=(n - 1) // 2, frame=frame)

    angles = 2.0 * np.pi * np.arange(n) / n  # (n,)
    normals = np.column_stack([np.cos(angles), np.sin(angles)])  # (n, 2)
    nodes = boundary.center + radius * normals  # (n, 2)
    weights = np.full(n, 2.0 * np.pi * radius / n)  # (n,)
    return QuadratureRule(boundary=boundary, nodes=nodes, weights=weights, normals=normals)


def make_sphere_rule(center, radius: float, n_polar: int, n_azimuth: int,
                     frame=None) -> QuadratureRule:
    """Gauss-Legendre (polar) x trapezoid (azimuth) product rule on a sphere.

    The polar direction uses Gauss-Legendre nodes in cos(theta), the
    azimuth an equispaced grid; weights are r^2 * w_GL * (2*pi/n_azimuth),
    so they sum to 4*pi*r^2 up to roundoff.  The azimuth grid is a circle
    rule, so it takes the circle minimum.  The rule integrates polynomials
    of degree < 2 n_polar in cos(theta) and azimuthal frequencies below
    n_azimuth, so the product of any two surface harmonics of degree <=
    min(n_polar - 1, (n_azimuth - 1) // 2), the boundary's degree.  The
    centre, nodes and normals are in the boundary's ``frame``.
    """
    if n_polar < MIN_NODES[3]:
        raise ValueError(f"sphere rule needs n_polar >= {MIN_NODES[3]}, got {n_polar}")
    if n_azimuth < MIN_NODES[2]:
        raise ValueError(f"sphere rule needs n_azimuth >= {MIN_NODES[2]}, got {n_azimuth}")
    degree = min(n_polar - 1, (n_azimuth - 1) // 2)
    boundary = Boundary(center=center, radius=radius, dim=3, degree=degree, frame=frame)

    t, w_gl = np.polynomial.legendre.leggauss(n_polar)  # cos(theta) nodes, (n_polar,)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth  # (n_azimuth,)
    sin_theta = np.sqrt(1.0 - t**2)  # (n_polar,)

    # Product grid flattened to (n_polar * n_azimuth, 3).
    st = np.repeat(sin_theta, n_azimuth)
    ct = np.repeat(t, n_azimuth)
    ph = np.tile(phi, n_polar)
    normals = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
    nodes = boundary.center + radius * normals
    weights = radius**2 * np.repeat(w_gl, n_azimuth) * (2.0 * np.pi / n_azimuth)
    return QuadratureRule(boundary=boundary, nodes=nodes, weights=weights, normals=normals)


def make_rule(center, radius: float, n: int, dim: int, frame=None) -> QuadratureRule:
    """The standard rule of a boundary: ``n`` circle nodes in 2D, or ``n``
    polar x ``AZIMUTH_PER_POLAR * n`` azimuth nodes in 3D.  Its boundary has
    the degree :func:`fieldcast.geometry.rule_degree` gives ``n``, and the
    solve frame ``frame``, in which its nodes are given."""
    if dim == 2:
        return make_circle_rule(center, radius, n, frame)
    return make_sphere_rule(center, radius, n, AZIMUTH_PER_POLAR * n, frame)


@dataclass(frozen=True)
class Density:
    """Real values at the antenna rule's nodes."""

    rule: QuadratureRule
    values: np.ndarray  # (n,)

    def __post_init__(self):
        values = frozen_array(self.values)
        if values.shape != (self.rule.node_count,):
            raise ValueError(
                f"values shape {values.shape} does not match {self.rule.node_count} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Quadrature-weighted L2 norm over the antenna boundary."""
        return self.rule.l2_norm(self.values)


def basis(rule: QuadratureRule) -> np.ndarray:
    """(n, M): :func:`fieldcast.geometry.surface_harmonics` of degrees 1 .. L,
    the rule's boundary's degree, at its nodes over delta^((dim-1)/2), in
    their column order: the basis of
    :class:`fieldcast.operator.HarmonicDensity`, orthonormal in the rule's
    weights."""
    scale = rule.boundary.radius ** (-(rule.boundary.dim - 1) / 2)
    return surface_harmonics(rule.normals, rule.boundary.degree) * scale


def nodal(h: HarmonicDensity, rule: QuadratureRule) -> Density:
    """The coefficient density's values at the nodes of a rule on its
    boundary, for the Nystrom oracles."""
    if not _same_boundary(rule.boundary, h.boundary):
        raise ValueError("rule is not on the density's antenna boundary")
    return Density(rule=rule, values=basis(rule) @ h.coefficients)


@dataclass(frozen=True)
class ControlTrace:
    """Values at each control rule's nodes, regions first, outer sphere last:
    the traces of the Nystrom oracles :func:`apply` and :func:`apply_adjoint`."""

    blocks: list[np.ndarray]
    rules: list[QuadratureRule]

    def __post_init__(self):
        object.__setattr__(self, "blocks", [frozen_array(b) for b in self.blocks])
        shapes = [b.shape for b in self.blocks]
        if shapes != [(rule.node_count,) for rule in self.rules]:
            raise ValueError(f"block shapes {shapes} do not match the control rules' nodes")

    @property
    def concatenated(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def norm(self) -> float:
        """Product-space norm: root of the summed weighted block norms."""
        return float(np.sqrt(xi_inner(self, self)))


def _same_rule(a: QuadratureRule, b: QuadratureRule) -> bool:
    """Same boundary, nodes and weights."""
    return a is b or (_same_boundary(a.boundary, b.boundary) and np.array_equal(a.nodes, b.nodes)
                      and np.array_equal(a.weights, b.weights))


def _check_same(s: list, t: list, same) -> None:
    """Raise unless the traces' rules ``s`` and ``t`` pair off as ``same``."""
    if len(s) != len(t):
        raise ValueError("control traces have different block counts")
    if not all(map(same, s, t)):
        raise ValueError("control traces are defined on different boundaries")


def xi_inner(s: ControlTrace, t: ControlTrace) -> float:
    """Product-space inner product: sum of weighted surface inner products."""
    _check_same(s.rules, t.rules, _same_rule)
    total = 0.0
    for a, b, rule in zip(s.blocks, t.blocks, s.rules):
        total += float(rule.weights @ (a * b))
    return total


def _kernel_blocks(antenna: QuadratureRule, controls: list[QuadratureRule]):
    """The nodal double-layer kernel dlp_kernel(x_i, y_j, nu_j), x_i over all
    control nodes and y_j over the antenna nodes, one block of antenna nodes
    at a time: (cols, kernel (cols, m)), BLOCK_PAIRS pairs or fewer each."""
    x = np.concatenate([r.nodes for r in controls])[None]  # (1, m, dim)
    for cols in row_blocks(antenna.node_count, x.shape[1]):
        yield cols, dlp_kernel(x, antenna.nodes[cols, None], antenna.normals[cols, None],
                               antenna.boundary.dim)


def apply(controls: list[QuadratureRule], h: Density) -> ControlTrace:
    """Double-layer traces of a nodal density at the nodes of every control
    rule, by Nystrom quadrature over its antenna rule: sum_j dlp_kernel(x_i,
    y_j, nu_j) w_j h_j.  The oracle for the closed-form matrix; it stores no
    matrix."""
    wh = h.rule.weights * h.values  # (n,)
    trace = np.zeros(sum(r.node_count for r in controls))  # (m,)
    for cols, kernel in _kernel_blocks(h.rule, controls):
        trace += wh[cols] @ kernel
    ends = np.cumsum([r.node_count for r in controls])[:-1]
    return ControlTrace(blocks=np.split(trace, ends), rules=list(controls))


def apply_adjoint(antenna: QuadratureRule, t: ControlTrace) -> Density:
    """Adjoint of :func:`apply` in the weighted inner products.

    Nystrom quadrature of the adjoint kernel over the trace's control rules:
    value j at node j of the ``antenna`` rule is sum_i dlp_kernel(x_i, y_j,
    nu_j) W_i t_i, the exact discrete adjoint of :func:`apply`.  It stores
    no matrix.
    """
    weighted = np.concatenate([r.weights for r in t.rules]) * t.concatenated  # (m,)
    values = np.empty(antenna.node_count)  # (n,)
    for cols, kernel in _kernel_blocks(antenna, t.rules):
        values[cols] = kernel @ weighted
    return Density(rule=antenna, values=values)


def eval_double_layer(g: Density, x) -> np.ndarray | float:
    """Field radiated by an antenna density: the double-layer potential, by
    Nystrom quadrature of its kernel over the antenna rule.

    The oracle for :func:`fieldcast.fields.radiated_field`, which it misses
    near the antenna, where the kernel is nearly singular.  Evaluation
    inside or within a 1e-6 relative ring of the antenna sphere is rejected.
    The points are the user's, turned into the rule's solve frame, as
    :func:`fieldcast.fields.radiated_field` turns them.

    Parameters
    ----------
    g : Density
        Antenna density.
    x : array-like, shape (dim,) or (p, dim)
    """
    rule = g.rule
    pts, scalar = _points(rule.boundary.dim, x)
    pts = rule.boundary.to_solve(pts)
    clearance = rule.boundary.radius * (1.0 + SEPARATION_RTOL)
    y, nu = rule.nodes[None, :, :], rule.normals[None, :, :]
    wg = rule.weights * g.values
    out = np.empty(pts.shape[0])
    for rows in row_blocks(pts.shape[0], rule.node_count):
        if np.any(_distance(pts[rows], rule.boundary.center) < clearance):
            raise ValueError(
                "double-layer evaluation too close to (or inside) the antenna boundary"
            )
        out[rows] = dlp_kernel(pts[rows, None, :], y, nu, rule.boundary.dim) @ wg
    return float(out[0]) if scalar else out


def ball_l2_norm(f, center, radius: float, dim: int,
                 n_shells: int = 32, n_surface: int = 128) -> float:
    """L2 norm of a field over a solid ball, by radial-shell quadrature.

    Gauss-Legendre in the shell radius, the standard surface rule on each
    shell; spectrally accurate for fields smooth on the closed ball.
    """
    t, w = np.polynomial.legendre.leggauss(n_shells)
    radii = 0.5 * radius * (t + 1.0)  # (n_shells,) in (0, radius)
    w = 0.5 * radius * w
    total = 0.0
    for r_shell, w_shell in zip(radii, w):
        rule = make_rule(center, r_shell, n_surface, dim)
        vals = np.asarray(eval_field(f, rule.nodes), dtype=float)
        total += w_shell * float(rule.weights @ vals**2)
    return float(np.sqrt(total))


def phi(x, y, dim: int) -> np.ndarray | float:
    """Fundamental solution Phi(x, y) of the Laplacian.

    (1/2pi) ln(1/|x-y|) in 2D, (1/4pi)/|x-y| in 3D.
    """
    dist, _ = _dist_and_dot(x, y, None, dim)
    if dim == 2:
        out = -np.log(dist) / UNIT_SPHERE_MEASURE[2]
    elif dim == 3:
        out = 1.0 / (UNIT_SPHERE_MEASURE[3] * dist)
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)


def adjoint_kernel(x, nu_x, y, dim: int) -> np.ndarray | float:
    """Normal derivative of Phi in the observation point: dPhi(x,y)/dnu_x.

    Equal to (y - x).nu_x / (omega_d |x - y|^d); by the symmetry of Phi
    this is dlp_kernel with the roles of the two points swapped.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    dist, dot = _dist_and_dot(x, y, nu_x, dim)
    out = -dot / (UNIT_SPHERE_MEASURE[dim] * dist**dim)
    return out if out.ndim else float(out)


def poisson_solve(rule: QuadratureRule, data: np.ndarray, x, side: str) -> np.ndarray | float:
    """Dirichlet solution on either side of a sphere via Poisson-kernel quadrature.

    For boundary data f on the sphere of radius R* centred at y0,

        interior:  u(x) = (R*^2 - |x-y0|^2) / (omega_d R*) * sum_j w_j f_j / |x - y_j|^d
        exterior:  u(x) = (|x-y0|^2 - R*^2) / (omega_d R*) * sum_j w_j f_j / |x - y_j|^d

    The exterior solution is the one bounded at infinity in 2D and
    decaying in 3D.  The quadrature is spectrally accurate for smooth data
    when the evaluation point keeps a healthy distance from the sphere
    (radius ratio <= ~0.5 interior, >= ~2 exterior at default node counts).

    Parameters
    ----------
    rule : QuadratureRule
        Rule over the data sphere.
    data : ndarray, shape (n,)
        Boundary values at the rule's nodes.
    x : array-like, shape (dim,) or (p, dim)
        Evaluation point(s), strictly off the sphere and on the stated side.
    side : "interior" or "exterior"
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    dim = rule.boundary.dim
    data = np.asarray(data, dtype=float)
    if data.shape != (rule.node_count,):
        raise ValueError(
            f"data shape {data.shape} does not match {rule.node_count} nodes"
        )

    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)  # (p, dim)
    if pts.shape[-1] != dim:
        raise ValueError(f"points must have trailing dimension {dim}, got {x.shape}")

    r_star = rule.boundary.radius
    rho = np.linalg.norm(pts - rule.boundary.center, axis=-1)  # (p,)
    on_tol = 1e-12 * r_star
    if np.any(np.abs(rho - r_star) <= on_tol):
        raise ValueError("evaluation point lies on the data sphere")
    if side == "interior" and np.any(rho >= r_star):
        raise ValueError("interior evaluation requested at an exterior point")
    if side == "exterior" and np.any(rho <= r_star):
        raise ValueError("exterior evaluation requested at an interior point")

    diff = pts[:, None, :] - rule.nodes[None, :, :]  # (p, n, dim)
    dist = np.linalg.norm(diff, axis=-1)  # (p, n)
    kernel = 1.0 / dist**dim
    front = (r_star**2 - rho**2) / (UNIT_SPHERE_MEASURE[dim] * r_star)  # (p,)
    if side == "exterior":
        front = -front
    out = front * (kernel @ (rule.weights * data))  # (p,)
    return float(out[0]) if scalar else out
