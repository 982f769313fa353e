"""Upper half-plane geometry: Moebius maps, geodesic rays, horoballs, excursions.

This is the float kernel the tests compare the exact trajectory engine
(``cuspflow.excursions``) against: it measures horoball crossings of a ray
in double precision from the geometry alone, and ``twist_count`` gives the
paper's twist from the two base-point angles.  It shares no code with the
engine.

Conventions
-----------
* Points are ``UhpPoint(x, y)`` with ``y > 0``; boundary points are real
  numbers or ``math.inf``.
* A horoball tangent at a finite point ``p`` with Euclidean diameter ``d``
  is the open disc ``{z : Im z / |z - p|^2 > 1/d}``.  A horoball "tangent
  at infinity" with diameter parameter ``d`` is the region ``{y > 1/d}``,
  so it shrinks as ``d -> 0`` like the finite-tangency ones.
* A geodesic ray is stored as a matrix ``g`` in SL(2, R) with
  ``g(i) = base`` and ``g(inf) = endpoint``; the unit-speed parameterization
  is ``gamma(t) = g . (i e^t)``.  Times in this module are hyperbolic
  arclength.

The two excursion measurements:

* ``excursion_exact`` maps the tangency to infinity, where the horoball
  becomes ``{y >= c}`` and the closest-point projection is vertical; the
  horocyclic length between the entry and exit projections is ``|dx| / c``.
* ``excursion_angle`` is the angle ratio ``phi_max / phi`` measured at the
  ray's base.  ``phi`` is the angle between the ray and the ray aimed
  straight at the tangency; ``phi_max`` is the full opening angle of the
  cone of directions that enter the horoball (twice the angle to one
  tangent ray).  With the base normalized to ``i`` and the horoball at
  apparent height ``h`` the half-opening ``psi`` satisfies
  ``sin(psi) = 1/h`` exactly, and the exact excursion is

      E = 2 (sin psi / sin phi) sqrt(1 - sin^2 phi / sin^2 psi),

  so ``phi_max / phi`` tracks ``E`` up to a bounded additive error on deep
  crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import mpmath

Boundary = Union[float, int]  # real number, or math.inf for the cusp at infinity

DET_TOL = 1e-12


class UnboundedExcursionError(ValueError):
    """The excursion never leaves the horoball (ray aimed at the tangency)."""


class InvalidMatrixError(ValueError):
    """Matrix is not (numerically) in SL(2, R)."""


class Mat2(NamedTuple):
    """2x2 real matrix acting on the half-plane by Moebius transformation."""

    a: float
    b: float
    c: float
    d: float

    def det(self):
        return self.a * self.d - self.b * self.c

    def mul(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "Mat2":
        det = self.det()
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply_boundary(self, t: Boundary) -> Boundary:
        a, b, c, d = self
        if t == math.inf:
            return a / c if c != 0 else math.inf
        den = c * t + d
        if den == 0:
            return math.inf
        return (a * t + b) / den

    def apply_point(self, z: "UhpPoint") -> "UhpPoint":
        a, b, c, d = self
        x, y = z.x, z.y
        den = (c * x + d) ** 2 + (c * y) ** 2
        wx = ((a * x + b) * (c * x + d) + a * c * y * y) / den
        wy = self.det() * y / den
        return UhpPoint(wx, wy)


@dataclass(frozen=True)
class UhpPoint:
    """Point of the upper half-plane, y strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")
        if not self.y > 0:
            raise ValueError(f"point must lie strictly above the boundary, y={self.y}")


@dataclass(frozen=True)
class Horoball:
    """Horoball with tangency point, Euclidean diameter and an area weight.

    ``weight`` is the flat area of the cylinder the horoball represents,
    in (0, 1]; ``label`` identifies the core curve.
    """

    tangency: Boundary
    diameter: float
    weight: float = 1.0
    label: str = ""

    def __post_init__(self):
        # rejecting non-finite diameters reports precision exhaustion in
        # transform chains instead of letting nan propagate silently
        if not self.diameter > 0 or not math.isfinite(self.diameter):
            raise ValueError(f"diameter must be positive and finite, got {self.diameter}")
        if not 0 < self.weight <= 1:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")

    def transform(self, m: Mat2) -> "Horoball":
        """Image horoball under a Moebius map (exact closed forms)."""
        a, b, c, d = m
        if self.tangency == math.inf:
            if c * c == 0:  # covers denormal underflow, not just exact zero
                return Horoball(math.inf, self.diameter / (a * a), self.weight, self.label)
            return Horoball(a / c, self.diameter / (c * c), self.weight, self.label)
        den = c * self.tangency + d
        if den * den == 0:
            return Horoball(math.inf, c * c * self.diameter, self.weight, self.label)
        return Horoball(
            (a * self.tangency + b) / den,
            self.diameter / (den * den),
            self.weight,
            self.label,
        )


@dataclass(frozen=True)
class ExcursionGeometry:
    """Entry/exit times of one horoball crossing plus the base-point angles.

    ``t_exit`` is ``math.inf`` exactly when the ray's endpoint is the
    tangency point.  Times are hyperbolic arclength along the ray.
    """

    t_entry: float
    t_exit: float
    phi: float
    phi_max: float

    @property
    def unbounded(self) -> bool:
        return self.t_exit == math.inf


def mobius_apply(m, z: UhpPoint) -> UhpPoint:
    """Apply a unit-determinant 2x2 matrix to a half-plane point."""
    m = as_mat2(m)
    if abs(m.det() - 1) > DET_TOL:
        raise InvalidMatrixError(f"determinant {m.det()} is not 1 within {DET_TOL}")
    return m.apply_point(z)


def as_mat2(m) -> Mat2:
    if isinstance(m, Mat2):
        return m
    try:
        (a, b), (c, d) = m
    except (TypeError, ValueError):
        a, b, c, d = m
    return Mat2(a, b, c, d)


@dataclass(frozen=True)
class GeodesicRay:
    """Unit-speed geodesic ray from ``base`` toward a boundary ``endpoint``."""

    base: UhpPoint
    endpoint: Boundary
    matrix: Mat2

    def point_at(self, t) -> UhpPoint:
        return self.matrix.apply_point(UhpPoint(0 * t, math.exp(t)))

    def transform(self, m: Mat2) -> "GeodesicRay":
        return geodesic_ray(m.apply_point(self.base), m.apply_boundary(self.endpoint))


def geodesic_ray(base: UhpPoint, endpoint: Boundary) -> GeodesicRay:
    """Build the ray from ``base`` to ``endpoint`` (a real number or inf).

    The matrix is assembled from the translation-dilation taking ``base``
    to ``i`` followed by the rotation about ``i`` taking ``inf`` to the
    pulled-back endpoint; rotations about ``i`` are ``[[cos, -sin], [sin,
    cos]]`` and send ``inf`` to ``cot(angle)``.
    """
    if endpoint != math.inf and not math.isfinite(endpoint):
        raise ValueError(f"endpoint must be real or inf, got {endpoint}")
    x0, y0 = base.x, base.y
    ys = math.sqrt(y0)
    h = Mat2(1 / ys, -x0 / ys, 0 * x0, ys)
    if endpoint == math.inf:
        alpha = 0.0
    else:
        zeta = (endpoint - x0) / y0
        alpha = math.atan2(1, zeta)
    k = Mat2(math.cos(alpha), -math.sin(alpha), math.sin(alpha), math.cos(alpha))
    g = h.inv().mul(k)
    return GeodesicRay(base, endpoint, g)


def dist(z: UhpPoint, w: UhpPoint):
    """Hyperbolic distance, via the numerically stable asinh form."""
    dx = z.x - w.x
    dy = z.y - w.y
    chord = math.sqrt(dx * dx + dy * dy)
    return 2 * math.asinh(chord / (2 * math.sqrt(z.y * w.y)))


def crossing_roots(C, D, h_w):
    """Crossing data of the standard ray picture against ``{Im w >= h_w}``.

    ``(C, D)`` is the bottom row of the matrix M in SL(2, R) carrying the
    unit-speed ray t -> M(i e^t); then ``Im w(t) = e^t / (C^2 e^{2t} + D^2)``
    and the crossing times solve ``C^2 h u^2 - u + D^2 h = 0`` in
    ``u = e^t``.  Returns ``(x, u_minus, u_plus)`` where ``x = (2 C D h)^2``
    is the tangency discriminant complement (miss iff x > 1), or ``None``
    on a miss.  ``u_plus`` is ``None`` when C == 0 (ray runs into the cusp:
    no exit).  The roots use the cancellation-free quadratic forms.
    """
    if C == 0:
        return (0 * D, h_w * D * D, None)
    x = 2 * C * D * h_w
    x = x * x
    if x > 1:
        return None
    s = math.sqrt(1 - x)
    u_minus = 2 * D * D * h_w / (1 + s)
    u_plus = (1 + s) / (2 * C * C * h_w)
    return (x, u_minus, u_plus)


def chord_excursion_length(x):
    """Horocyclic entry-to-exit distance from the discriminant complement x."""
    return 2 * math.sqrt((1 - x) / x)


def _bottom_row(ray: GeodesicRay, h: Horoball):
    g = ray.matrix
    if h.tangency == math.inf:
        return g.c, g.d
    return g.a - h.tangency * g.c, g.b - h.tangency * g.d


def _aimed_at_tangency(ray: GeodesicRay, h: Horoball) -> bool:
    # exact symbolic test; the numeric bottom-row entry only vanishes up to
    # roundoff when the endpoint coincides with the tangency
    return ray.endpoint == h.tangency


def angles_from_row(C, D, h_w, aimed=False):
    """(phi, phi_max) from the bottom row of the tangency-at-infinity frame.

    Normalizing the base to ``i``, the ray to the tangency pulls back to the
    boundary point ``-D/C``, so ``phi = 2 atan2(|C|, |D|)``; the horoball's
    apparent height is ``h_w (C^2 + D^2)`` and the full cone opening is
    ``phi_max = 2 asin(1/h_app)``.
    """
    if aimed or C == 0:
        phi = 0.0
    else:
        phi = 2 * math.atan2(abs(C), abs(D))
    inv_h_app = 1 / (h_w * (C * C + D * D))
    if inv_h_app >= 1:
        phi_max = math.pi  # base on or inside the horoball
    else:
        phi_max = 2 * math.asin(inv_h_app)
    return phi, phi_max


def _angles(ray: GeodesicRay, h: Horoball):
    C, D = _bottom_row(ray, h)
    return angles_from_row(C, D, 1 / h.diameter, aimed=_aimed_at_tangency(ray, h))


def intersect(ray: GeodesicRay, h: Horoball) -> Optional[ExcursionGeometry]:
    """Entry/exit times of the ray in the open horoball, or None on a miss.

    ``t_exit`` is marked unbounded exactly when the ray's endpoint is the
    tangency point.  An entry that happened before the ray's start is
    clamped to ``t_entry = 0`` (base inside or on the boundary).
    """
    C, D = _bottom_row(ray, h)
    h_w = 1 / h.diameter
    if _aimed_at_tangency(ray, h):
        C = 0 * C
    roots = crossing_roots(C, D, h_w)
    if roots is None:
        return None
    x, u_minus, u_plus = roots
    if u_plus is None:
        t_entry = math.log(u_minus) if u_minus > 0 else -math.inf
        phi, phi_max = _angles(ray, h)
        return ExcursionGeometry(max(t_entry, 0.0), math.inf, phi, phi_max)
    if u_plus < 1:
        return None  # the geodesic's crossing lies entirely before the base
    t_entry = max(math.log(u_minus), 0.0)
    t_exit = math.log(u_plus)
    phi, phi_max = _angles(ray, h)
    return ExcursionGeometry(t_entry, t_exit, phi, phi_max)


def excursion_exact(ray: GeodesicRay, h: Horoball):
    """Horocyclic length between the entry and exit boundary points.

    Computed in the model with the tangency at infinity, where the
    projection is vertical and the length is ``|dx| / h_w``.  Raises
    ``UnboundedExcursionError`` when the ray never exits (partial
    excursion) and ``ValueError`` when the ray misses the horoball.
    """
    C, D = _bottom_row(ray, h)
    h_w = 1 / h.diameter
    if _aimed_at_tangency(ray, h):
        raise UnboundedExcursionError("ray runs into the tangency point; excursion is partial")
    roots = crossing_roots(C, D, h_w)
    if roots is None:
        raise ValueError("ray misses the horoball")
    x, u_minus, u_plus = roots
    if u_plus is None:
        raise UnboundedExcursionError("ray runs into the tangency point; excursion is partial")
    if u_plus < 1:
        raise ValueError("crossing lies entirely before the ray's base")
    if x == 1:
        return 0.0 * x
    if u_minus >= 1:
        return chord_excursion_length(x)
    # Base starts inside: measure from the base's projection instead.
    g = ray.matrix
    if h.tangency == math.inf:
        A, B = g.a, g.b
    else:
        A, B = -g.c, -g.d
    xs = _horizontal_at(A, B, C, D, 1.0)
    xe = _horizontal_at(A, B, C, D, u_plus)
    return abs(xe - xs) * h_w


def _horizontal_at(A, B, C, D, u):
    """Re of (A i u + B) / (C i u + D)."""
    return (A * C * u * u + B * D) / (C * C * u * u + D * D)


def excursion_angle(geom: ExcursionGeometry):
    """Angle-ratio excursion estimate ``phi_max / phi``."""
    if geom.phi == 0:
        raise UnboundedExcursionError("ray aimed exactly at the tangency point")
    if geom.phi < 0 or geom.phi > geom.phi_max:
        raise ValueError(f"angles out of range: phi={geom.phi}, phi_max={geom.phi_max}")
    return geom.phi_max / geom.phi


def twist_count(area, eps, phi, phi_max):
    """Twists across one excursion, the paper's angle form, computed in
    mpmath at the working precision:

        (2 A / eps) (sin phi_max / sin phi) sqrt(1 - sin^2 phi / sin^2 phi_max)
    """
    if phi == 0:
        raise UnboundedExcursionError("phi = 0: ray aimed at the tangency")
    if phi < 0 or phi > phi_max:
        raise ValueError(f"need 0 < phi <= phi_max, got phi={phi}, phi_max={phi_max}")
    s1 = mpmath.sin(phi)
    s2 = mpmath.sin(phi_max)
    ratio_sq = (s1 * s1) / (s2 * s2)
    radicand = 1 - ratio_sq
    if radicand < 0:
        radicand = 0 * radicand
    return (2 * area / eps) * (s2 / s1) * mpmath.sqrt(radicand)
