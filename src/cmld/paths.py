"""Optimal-path layer: local rate, explicit minimizers, and path costs.

State points x = (x0, (x_k)) carry an active half-edge density x0 >= 0 and
sleeping masses x_k.  With r(x) = x0^+ + sum_k k x_k, the natural jump
distribution is mu(0|x) = x0^+/r, mu(k|x) = k x_k / r (a point mass at 0
when x = 0).  The local rate of a velocity profile (beta_k), beta_k in
[-1, 0], is the KL divergence

    L(x, beta) = sum_{k>=0} nu(k) log(nu(k)/mu(k|x)),
    nu(0) = 1 + sum_k beta_k,  nu(k) = -beta_k,

infinite when sum_k beta_k < -1 or nu charges a degree of zero mass.

Between endpoints x1 -> x2 with drop z = x1 - x2, the normalized segment
has duration varsigma = (r(x1) - r(x2))/2 and the transition root beta in
[0, 1) solves

    sum_k k z_k = (1 - beta^2) sum_k k z_k/(1 - beta^k) + x2_0 - beta^2 x1_0

(beta = 0 in the degenerate case x2_0 = 0, z_1 = 0).  The minimizing
trajectory and its closed-form cost

    H~(z) + H~(x2) - H~(x1) + K~(x1, x2)

are implemented below; the quadrature in :func:`path_cost` must agree with
the closed form to 1e-6 on any valid segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _clean_weights, _transition_root
from .errors import DomainError, PreconditionError
from .fluid import FluidPath

_MASS_TOL = 1e-12

CASE_I = "case_i"
CASE_II = "case_ii"

J2_TOLERANCE = 1e-6  # admits grid discretization error at ~1e3 points
_TAIL_FRACTION = 0.05
_GL_NODES = 64
_GL_PANELS = 4
_NU_FLOOR = 1e-8  # below this a velocity entry is treated as exactly zero


@dataclass(frozen=True)
class StatePoint:
    """Fluid exploration state (x0, (x_k))."""

    x0: float
    xk: dict[int, float]

    def __post_init__(self) -> None:
        if self.x0 < -_MASS_TOL:
            raise DomainError(f"x0 must be nonnegative, got {self.x0}")
        object.__setattr__(self, "x0", max(float(self.x0), 0.0))
        object.__setattr__(self, "xk", _clean_weights(self.xk, "StatePoint"))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.xk)

    def mass(self, k: int) -> float:
        return self.xk.get(k, 0.0)

    def r(self) -> float:
        return max(self.x0, 0.0) + math.fsum(k * v for k, v in self.xk.items())


@dataclass(frozen=True)
class LocalVelocity:
    """Velocity profile (beta_k), beta_k in [-1, 0] for k >= 1."""

    betak: dict[int, float]

    def __post_init__(self) -> None:
        for k, v in self.betak.items():
            if int(k) < 1:
                raise DomainError(f"degree {k!r} is not a positive integer")
            if not -1.0 - _MASS_TOL <= v <= _MASS_TOL:
                raise DomainError(f"beta_{k} = {v} outside [-1, 0]")


@dataclass(frozen=True)
class PathSegmentSpec:
    """A validated endpoint pair with its transition root and duration."""

    x1: StatePoint
    x2: StatePoint
    varsigma: float
    beta: float
    case: str

    @property
    def varsigma_tilde(self) -> float:
        return self.varsigma / (1.0 - self.beta * self.beta)

    def z(self, k: int) -> float:
        return self.x1.mass(k) - self.x2.mass(k)


def varsigma(x1: StatePoint, x2: StatePoint) -> float:
    """Normalized segment duration (r(x1) - r(x2)) / 2."""
    return 0.5 * (x1.r() - x2.r())


def _drop(x1: StatePoint, x2: StatePoint) -> dict[int, float]:
    z = {}
    for k in sorted(set(x1.degrees) | set(x2.degrees)):
        d = x1.mass(k) - x2.mass(k)
        if d < -_MASS_TOL:
            raise DomainError(f"x2 exceeds x1 at degree {k}: drop {d} < 0")
        if d > 0.0:
            z[k] = d
    return z


def beta_general(x1: StatePoint, x2: StatePoint) -> tuple[float, str]:
    """Transition root for the segment x1 -> x2 and the construction case.

    ``core._transition_root(z, x1_0, x2_0)`` for the drop z = x1 - x2.
    Case (i): x2_0 = 0 and z_1 = 0 give beta = 0 exactly.  Case (ii)
    requires sum_k k z_k + z_0 > 2 sum_k z_k; beta is then the unique zero
    of the strictly increasing ``core._transition_fn(z, x1_0, x2_0)``.
    """
    z = _drop(x1, x2)
    case = CASE_I if x2.x0 == 0.0 and z.get(1, 0.0) == 0.0 else CASE_II
    return _transition_root(z, x1.x0, x2.x0), case


def make_segment_spec(x1: StatePoint, x2: StatePoint) -> PathSegmentSpec:
    """Validate endpoints, solve for the root, and package the segment."""
    beta, case = beta_general(x1, x2)
    vs = varsigma(x1, x2)
    if vs < -_MASS_TOL:
        raise DomainError(f"segment duration varsigma = {vs} is negative")
    return PathSegmentSpec(x1=x1, x2=x2, varsigma=max(vs, 0.0), beta=beta, case=case)


def _segment_grid(vs: float, n: int) -> np.ndarray:
    """Uniform body plus a quadratically graded tail over the last 20%.

    The minimizer's velocities behave like sqrt(t2 - t) at the right
    endpoint when beta = 0; grading the tail keeps piecewise-linear
    resampling second-order accurate there.
    """
    n_tail = max(n // 3, 2)
    n_body = max(n - n_tail, 2)
    split = 0.8 * vs
    body = np.linspace(0.0, split, n_body, endpoint=False)
    w = np.linspace(1.0, 0.0, n_tail)
    tail = vs - 0.2 * vs * w * w
    return np.unique(np.concatenate([body, tail]))


def minimizer_path(spec: PathSegmentSpec, grid: np.ndarray | None = None,
                   grid_points: int = 4501) -> FluidPath:
    """The explicit minimizing trajectory of the segment on [0, varsigma].

    zeta_k(t) = x1_k - z~_k [1 - (1 - t/varsigma~)^{k/2}] with
    z~_k = z_k/(1 - beta^k) and varsigma~ = varsigma/(1 - beta^2); zeta_0
    and psi follow from the unit exploration pace.  Hits x1 at 0 and x2 at
    varsigma; when varsigma = 0 the path is the single point x1 at 0.
    """
    vs = spec.varsigma
    if vs == 0.0:
        degrees = spec.x1.degrees
        zk = [[spec.x1.mass(k) for k in degrees]]
        return FluidPath(grid=np.array([0.0]), degrees=degrees,
                         zeta0=np.array([spec.x1.x0]), zetak=zk, psi=np.zeros(1),
                         meta=_segment_meta(spec))
    if grid is None:
        grid = _segment_grid(vs, grid_points)
    grid = np.asarray(grid, dtype=float)

    beta = spec.beta
    vst = spec.varsigma_tilde
    degrees = tuple(sorted(set(spec.x1.degrees) | set(spec.x2.degrees)))
    ks = np.array(degrees, dtype=float)
    p1 = np.array([spec.x1.mass(k) for k in degrees])
    zk = np.array([spec.z(k) for k in degrees])
    ztil = np.where(zk > 0.0, zk / (1.0 - beta ** ks), 0.0)

    u = np.clip(grid / vst, 0.0, 1.0)
    factor = (1.0 - u)[:, None] ** (0.5 * ks)[None, :]
    zetak = p1[None, :] - ztil[None, :] * (1.0 - factor)
    drained = (p1 - zetak) @ ks
    zeta0 = spec.x1.x0 + drained - 2.0 * grid
    psi = drained - 2.0 * grid  # psi(0) = 0
    return FluidPath(grid=grid, degrees=degrees, zeta0=np.maximum(zeta0, 0.0),
                     zetak=zetak, psi=psi, meta=_segment_meta(spec))


def _segment_meta(spec: PathSegmentSpec) -> dict:
    return {
        "varsigma": spec.varsigma,
        "varsigma_tilde": spec.varsigma_tilde if spec.varsigma > 0.0 else 0.0,
        "beta": spec.beta,
        "case": spec.case,
    }


def local_rate_L(x: StatePoint, v: LocalVelocity) -> float:
    """KL-form local rate; +inf when the profile is inadmissible at x.

    One node of :func:`_rate_integrand` at zeta = x, zeta' = beta.
    """
    degrees = sorted(set(x.degrees) | set(v.betak))
    zetak = np.array([x.mass(k) for k in degrees]).reshape(-1, 1)
    dzetak = np.array([v.betak.get(k, 0.0) for k in degrees]).reshape(-1, 1)
    return float(_rate_integrand(np.array([x.x0]), zetak, dzetak,
                                 np.array(degrees, dtype=float))[0])


def _rate_integrand(zeta0: np.ndarray, zetak: np.ndarray, dzetak: np.ndarray,
                    ks: np.ndarray) -> np.ndarray:
    """Vectorized L(zeta(t), zeta'(t)) along a unit-pace path.

    ``zetak`` and ``dzetak`` hold one row per degree in ``ks``; row 0 of
    nu and mu is degree 0, and mu is the point mass at 0 where r = 0.
    Velocity entries at or below the noise floor are treated as zero so
    that finite-difference jitter at endpoints where a mass vanishes
    cannot produce spurious infinities; by the same floor, the rate is
    infinite where sum_k nu_k exceeds 1 by more than it.
    """
    z0 = np.maximum(zeta0, 0.0)
    r = z0 + ks @ zetak
    empty = r <= 0.0
    nu_k = np.maximum(-dzetak, 0.0)
    nu0 = 1.0 - nu_k.sum(axis=0)
    nu = np.vstack([np.maximum(nu0, 0.0), nu_k])
    mu = np.vstack([z0, ks[:, None] * np.maximum(zetak, 0.0)]) / np.where(empty, 1.0, r)
    mu[:, empty] = 0.0
    mu[0, empty] = 1.0
    live = nu > _NU_FLOOR
    bad = live & (mu <= 0.0)
    ok = live & ~bad
    ratio = np.where(ok, nu / np.where(ok, mu, 1.0), 1.0)
    out = np.sum(np.where(ok, nu * np.log(ratio), 0.0), axis=0)
    out[np.any(bad, axis=0) | (nu0 < -_NU_FLOOR)] = math.inf
    return out


def _check_unit_pace(path: FluidPath) -> None:
    r = path.r()
    slopes = np.diff(r) / np.diff(path.grid)
    residual = float(np.max(np.abs(slopes + 2.0)))
    if residual > J2_TOLERANCE:
        raise PreconditionError(
            f"path is not unit-pace: max |dr/dt + 2| = {residual} > {J2_TOLERANCE}"
        )


@functools.cache
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, sqrt(_TAIL_FRACTION)].

    Built on first use, not at import, so that ``import cmld`` does not load
    ``numpy.polynomial``; the arrays are read-only as every call shares them.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_GL_NODES)
    panel_edges = np.linspace(0.0, math.sqrt(_TAIL_FRACTION), _GL_PANELS + 1)
    a, b = panel_edges[:-1, None], panel_edges[1:, None]
    s = (0.5 * (b - a) * nodes + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * weights).ravel()
    s.flags.writeable = w.flags.writeable = False
    return s, w


def path_cost(path: FluidPath, t1: float | None = None, t2: float | None = None) -> float:
    """Integral of the local rate along a unit-pace path segment.

    The final 5% of the interval is integrated in the variable
    s = sqrt((t2 - t)/(t2 - t1)) with composite 64-point Gauss-Legendre
    panels, which removes the integrable logarithmic singularity that
    appears when the active mass vanishes at the right endpoint.
    """
    if t1 is None:
        t1 = float(path.grid[0])
    if t2 is None:
        t2 = float(path.grid[-1])
    if t2 < t1:
        raise DomainError(f"empty interval [{t1}, {t2}]")
    if t2 == t1:
        return 0.0
    seg = path.slice(t1, t2)
    _check_unit_pace(seg)

    ks = np.array(seg.degrees, dtype=float)
    _, dzetak = seg.derivatives()

    # body on [t1, t_split]: 2-point Gauss per grid interval; nodes are
    # strictly interior, so a mass vanishing exactly at an endpoint never
    # enters a logarithm
    span = t2 - t1
    t_split = t2 - _TAIL_FRACTION * span
    edges = np.append(seg.grid[seg.grid < t_split - 1e-15], t_split)
    left, right = edges[:-1], edges[1:]
    half = 0.5 * (right - left)
    mid = 0.5 * (right + left)
    g2 = 1.0 / math.sqrt(3.0)

    # tail in s = sqrt((t2 - t)/span): dt = 2 * span * s ds removes the
    # logarithmic endpoint singularity
    s, w = _tail_rule()

    t_nodes = np.concatenate([mid - half * g2, mid + half * g2, t2 - span * s * s])
    w_nodes = np.concatenate([half, half, w * 2.0 * span * s])
    vals = _rate_integrand(*_interp_state(seg, dzetak, t_nodes), ks)
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.sum(w_nodes * vals))


def _interp_state(seg: FluidPath, dzetak: np.ndarray,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta_0, zeta_k and zeta_k' at times t; the last two one row per degree."""
    stacked = np.vstack([seg.zeta0, seg.zetak.T, dzetak.T])
    vals = np.array([np.interp(t, seg.grid, row) for row in stacked])
    d = seg.zetak.shape[1]
    return vals[0], vals[1:d + 1], vals[d + 1:]


def _h_tilde(x0: float, xk: dict[int, float]) -> float:
    """H~(x) = sum x_k log x_k - (s/2) log(s/2), s = x0 + sum k x_k."""
    s = 0.5 * (x0 + math.fsum(k * v for k, v in xk.items()))
    if s < -_MASS_TOL:
        raise DomainError("H~ requires x0 + sum k x_k >= 0")
    total = math.fsum(v * math.log(v) for v in xk.values() if v > 0.0)
    if s > 0.0:
        total -= s * math.log(s)
    return total


def cost_closed_form(x1: StatePoint, x2: StatePoint) -> float:
    """Closed-form segment cost H~(z) + H~(x2) - H~(x1) + K~(x1, x2)."""
    spec = make_segment_spec(x1, x2)
    beta = spec.beta
    z = _drop(x1, x2)
    z0 = x1.x0 - x2.x0
    k_tilde = 0.0
    if beta > 0.0:
        k_tilde += spec.varsigma * math.log1p(-beta * beta)
        k_tilde -= math.fsum(v * math.log1p(-beta ** k) for k, v in z.items())
        k_tilde += x2.x0 * math.log(beta)
    return (_h_tilde(z0, z) + _h_tilde(x2.x0, x2.xk) - _h_tilde(x1.x0, x1.xk)
            + k_tilde)
