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

are implemented below.  :func:`path_cost` integrates the local rate on two
routes, with one quadrature rule each: in closed form for paths from
:func:`minimizer_path`, which carry their segment, and from the grid by
finite differences for any other path.  On 8400 random valid segments the
first agrees with the closed-form cost to 2.2e-12; the second, given the
same minimizers on their default 4501-point grids, to 1.16e-6 (median
8.4e-9).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, _clean_weights, _degree, _transition_root
from .errors import DomainError, PreconditionError
from .fluid import FluidPath

CASE_I = "case_i"
CASE_II = "case_ii"

J2_TOLERANCE = 1e-6  # admits grid discretization error at ~1e3 points
_SEG_NODES = 10  # closed-form route: 29 panels of 10 points in s,
_SEG_PANELS = 29
_SEG_GRADING = 0.5  # halving in width toward t2
_NU_FLOOR = 1e-8  # below this a velocity entry is treated as exactly zero


@dataclass(frozen=True)
class StatePoint:
    """Fluid exploration state (x0, (x_k))."""

    x0: float
    xk: dict[int, float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got {self.x0}")
        if self.x0 < -PROB_TOL:
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
            _degree(k, "LocalVelocity")
            if not -1.0 - PROB_TOL <= v <= PROB_TOL:
                raise DomainError(f"beta_{k} = {v} outside [-1, 0]")


@dataclass(frozen=True)
class PathSegmentSpec:
    """A validated endpoint pair with its drop, transition root and duration.

    ``z`` holds the positive entries of the drop x1_k - x2_k, and
    ``degrees`` the sorted union of both endpoints' degrees.
    """

    x1: StatePoint
    x2: StatePoint
    varsigma: float
    beta: float
    case: str
    z: dict[int, float]
    degrees: tuple[int, ...]

    @property
    def varsigma_tilde(self) -> float:
        return self.varsigma / (1.0 - self.beta * self.beta)

    def cost_closed_form(self) -> float:
        """Closed-form segment cost H~(z) + H~(x2) - H~(x1) + K~(x1, x2),
        from the transition root already solved."""
        x1, x2, beta = self.x1, self.x2, self.beta
        z0 = x1.x0 - x2.x0
        k_tilde = 0.0
        if beta > 0.0:
            k_tilde += self.varsigma * math.log1p(-beta * beta)
            k_tilde -= math.fsum(v * math.log1p(-beta ** k) for k, v in self.z.items())
            k_tilde += x2.x0 * math.log(beta)
        return (_h_tilde(z0, self.z) + _h_tilde(x2.x0, x2.xk) - _h_tilde(x1.x0, x1.xk)
                + k_tilde)


def make_segment_spec(x1: StatePoint, x2: StatePoint) -> PathSegmentSpec:
    """Validate endpoints and decide the segment once: its drop z = x1 - x2,
    transition root, case and duration varsigma = (r(x1) - r(x2))/2.

    The root is ``core._transition_root(z, x1_0, x2_0)``.  Case (i):
    x2_0 = 0 and z_1 = 0 give beta = 0 exactly.  Case (ii) requires
    sum_k k z_k + z_0 > 2 sum_k z_k; beta is then the unique zero of the
    strictly increasing ``core._transition_fn(z, x1_0, x2_0)``.
    """
    degrees = tuple(sorted(set(x1.degrees) | set(x2.degrees)))
    z = {}
    for k in degrees:
        d = x1.mass(k) - x2.mass(k)
        if d < -PROB_TOL:
            raise DomainError(f"x2 exceeds x1 at degree {k}: drop {d} < 0")
        if d > 0.0:
            z[k] = d
    beta = _transition_root(z, x1.x0, x2.x0)
    case = CASE_I if x2.x0 == 0.0 and z.get(1, 0.0) == 0.0 else CASE_II
    vs = 0.5 * (x1.r() - x2.r())
    if vs < -PROB_TOL:
        raise DomainError(f"segment duration varsigma = {vs} is negative")
    return PathSegmentSpec(x1=x1, x2=x2, varsigma=max(vs, 0.0), beta=beta, case=case,
                           z=z, degrees=degrees)


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


def _segment_state(spec: PathSegmentSpec,
                   rest: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zeta_0, zeta_k and zeta_k' of the segment's minimizer at the times
    t = varsigma - rest.

    The minimizer zeta_k(t) = x1_k - z~_k [1 - (1 - t/varsigma~)^{k/2}],
    z~_k = z_k/(1 - beta^k), is written from the right endpoint as
    zeta_k = x2_k + z_k g_k, where w = 1 - t/varsigma~ and

        g_k = (w^{k/2} - beta^k)/(1 - beta^k)

    rises from 0 at x2 to 1 at x1 (g_k = (rest/varsigma)^{k/2} when
    beta = 0).  Then zeta_k' = -z_k dg_k/drest and zeta_0 = x2_0 + 2 rest
    - sum_k k z_k g_k follows from the unit exploration pace (returned
    unclamped).  With c = 1/beta^2 - 1, w = beta^2 (1 + c rest/varsigma),
    and w^{k/2} - beta^k = w^{k/2} (1 - (1 + c rest/varsigma)^{-k/2}) is
    taken through log1p/expm1: zeta - x2 keeps its relative precision as
    t -> varsigma, where masses may vanish.  The last two arrays hold one
    column per degree in ``spec.degrees``; rest is clipped to
    [0, varsigma].  Requires varsigma > 0.
    """
    return _unit_state(spec, rest, 1.0)


def _unit_state(spec: PathSegmentSpec, rest: np.ndarray,
                lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_segment_state` of the segment with every mass, and so its
    duration, scaled by ``lam``, a power of two; ``rest`` is in the
    scaled segment's time.

    beta does not depend on scale, so the states scale by lam and the
    velocities not at all.  Each product with lam is exact, so the states
    are the unscaled ones times lam and the velocities the unscaled ones,
    bit for bit, wherever neither under- nor overflows.
    """
    ks = np.array(spec.degrees, dtype=float)
    half = 0.5 * ks
    x2 = np.array([lam * spec.x2.mass(k) for k in spec.degrees])
    z = np.array([lam * spec.z.get(k, 0.0) for k in spec.degrees])
    vs, beta = lam * spec.varsigma, spec.beta
    rest = np.clip(rest, 0.0, vs)
    x = (rest / vs)[:, None]
    if beta > 0.0:
        c = (1.0 - beta) * (1.0 + beta) / (beta * beta)
        log_a, log_a1 = np.log1p(c * x), math.log1p(c)  # log(w/beta^2), and at t = 0
        w_half = np.exp(half * (log_a - log_a1))  # w^{k/2}
        ztil = z / -np.expm1(-half * log_a1)  # z_k/(1 - beta^k)
        drop = (ztil * w_half) * -np.expm1(-half * log_a)
        dzetak = (-half * c / vs * ztil) * w_half / (1.0 + c * x)
    else:
        drop = z * x ** half
        # case (i): z_1 = 0, so degree 1 takes exponent 0 in place of the
        # -1/2 that is infinite at t = varsigma
        dzetak = (-half / vs * z) * x ** np.maximum(half - 1.0, 0.0)
    return lam * spec.x2.x0 + 2.0 * rest - drop @ ks, x2 + drop, dzetak


class SegmentPath(FluidPath):
    """A :class:`FluidPath` sampled from a segment's minimizer on first read.

    ``spec`` lets :func:`path_cost` evaluate the trajectory in closed form
    instead of differencing the grid.  It is an attribute, not a ``meta``
    entry, because ``meta`` is written out as JSON.  ``grid``, ``zeta0``,
    ``zetak`` and ``psi`` are built together, and checked as any
    :class:`FluidPath`'s are, when the first of them is read; a cost on
    the closed-form route reads none of them.  A slice of this path is a
    plain :class:`FluidPath`.
    """

    def __init__(self, spec: PathSegmentSpec, grid_points: int) -> None:
        self.spec = spec
        self.degrees = spec.degrees if spec.varsigma > 0.0 else spec.x1.degrees
        self.tau_markers = {}
        self.meta = _segment_meta(spec)
        self._grid_points = grid_points

    def __getattr__(self, name: str):
        # reached only for a name missing from the instance: one of the four
        # arrays before the first read, or a name the path does not have
        if name not in ("grid", "zeta0", "zetak", "psi"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        spec = self.spec
        if spec.varsigma == 0.0:
            grid, zeta0, psi = np.array([0.0]), np.array([spec.x1.x0]), np.zeros(1)
            zetak = [[spec.x1.mass(k) for k in self.degrees]]
        else:
            grid = _segment_grid(spec.varsigma, self._grid_points)
            zeta0, zetak, _ = _segment_state(spec, spec.varsigma - grid)
            zeta0, psi = np.maximum(zeta0, 0.0), zeta0 - spec.x1.x0
        self.__dict__.update(grid=grid, zeta0=zeta0, zetak=zetak, psi=psi)
        FluidPath.__post_init__(self)
        return self.__dict__[name]


def minimizer_path(spec: PathSegmentSpec, grid_points: int = 4501) -> SegmentPath:
    """The explicit minimizing trajectory of the segment on [0, varsigma].

    Samples :func:`_segment_state` on ``grid_points`` points of
    :func:`_segment_grid`; psi = zeta_0 - x1_0 and zeta_0 is clamped at 0.
    Hits x2 at varsigma exactly and x1 at 0 to rounding; when varsigma = 0
    the path is the single point x1 at 0.  ``grid_points`` below 4 (two
    body and two tail points) raises :class:`DomainError`.

    The samples are taken when the path's ``grid``, ``zeta0``, ``zetak`` or
    ``psi`` is first read, not here (:class:`SegmentPath`), so
    ``path_cost(minimizer_path(spec))`` builds no grid.
    """
    if grid_points < 4:
        raise DomainError(f"grid_points must be at least 4, got {grid_points}")
    return SegmentPath(spec, grid_points)


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
                    ks: np.ndarray, floor: float = _NU_FLOOR,
                    slack: float = _NU_FLOOR) -> np.ndarray:
    """Vectorized L(zeta(t), zeta'(t)) along a unit-pace path.

    ``zetak`` and ``dzetak`` hold one row per degree in ``ks``; row 0 of
    nu and mu is degree 0, and mu is the point mass at 0 where r = 0.
    Velocity entries at or below ``floor`` are treated as zero so that
    finite-difference jitter at endpoints where a mass vanishes cannot
    produce spurious infinities; the rate is infinite where sum_k nu_k
    exceeds 1 by more than ``slack`` (a number or one per node), or where
    some zeta_k' exceeds it, since no chain puts a vertex back to sleep;
    nu_0 is clamped at 0 below that.  nu and mu fill one buffer in place,
    and the ratio, its log and the product are taken on live lanes only.
    The sums over degrees read their rows in ``dzetak``'s memory order
    (Fortran for the closed-form route's transposes), which fixes their
    rounding: numpy adds a Fortran-ordered column pairwise from 8 terms on.
    """
    order = "F" if np.isfortran(dzetak) else "C"
    nu, mu = np.empty((2, len(ks) + 1, dzetak.shape[1]))
    r = np.maximum(zeta0, 0.0, out=mu[0]) + ks @ zetak
    empty = r <= 0.0
    rising = np.any(np.negative(dzetak, out=nu[1:]) < -slack, axis=0)  # some zeta_k' > slack
    np.maximum(nu[1:], 0.0, out=nu[1:])
    nu0 = 1.0 - np.asarray(nu[1:], order=order).sum(axis=0)
    np.maximum(nu0, 0.0, out=nu[0])
    np.multiply(ks[:, None], np.maximum(zetak, 0.0, out=mu[1:]), out=mu[1:])
    mu /= np.where(empty, 1.0, r)
    mu[:, empty] = 0.0
    mu[0, empty] = 1.0
    live = nu > floor
    bad = live & (mu <= 0.0)
    ok = live & ~bad
    np.log(np.divide(nu, mu, out=mu, where=ok), out=mu, where=ok)
    np.multiply(nu, mu, out=mu, where=ok)
    mu[~ok] = 0.0
    out = np.asarray(mu, order=order).sum(axis=0)
    out[np.any(bad, axis=0) | (nu0 < -slack) | rising] = math.inf
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
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, 1].

    ``_SEG_PANELS`` panels of ``_SEG_NODES`` points, with edges
    ``_SEG_GRADING``^j, j = panels - 1, ..., 0, after 0.  Built on first
    use, not at import, so that ``import cmld`` does not load
    ``numpy.polynomial``; the arrays are read-only as every call shares them.
    """
    from numpy.polynomial.legendre import leggauss

    x, wx = leggauss(_SEG_NODES)
    edges = np.append(0.0, _SEG_GRADING ** np.arange(_SEG_PANELS - 1.0, -1.0, -1.0))
    a, b = edges[:-1, None], edges[1:, None]
    s = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * wx).ravel()
    s.flags.writeable = w.flags.writeable = False
    return s, w


def path_cost(path: FluidPath, t1: float | None = None, t2: float | None = None) -> float:
    """Integral of the local rate along a unit-pace path segment.

    Two routes, one quadrature rule each.  A path from
    :func:`minimizer_path` carries its segment: its state and velocity are
    evaluated in closed form (:func:`_segment_state`) at the nodes of one
    composite Gauss-Legendre rule in s = sqrt((t2 - t)/(t2 - t1)), which
    removes the integrable logarithmic singularity that appears when the
    active mass vanishes at t2, and [t1, t2] may be any subinterval of
    [0, varsigma].  Any other path (``lln_path``, a CSV, a user-built grid)
    is integrated from its grid by 2-point Gauss on every grid interval,
    with velocities from finite differences, and t1, t2 must be grid points.
    A bound that is not finite, or t1 = t2 outside the route's domain,
    raises :class:`DomainError`; an empty interval inside it costs 0.

    t1 and t2 default to the path's ends: for a minimizer its segment's, 0
    and varsigma, which are also its grid's, so the cost builds no grid.
    """
    segment = isinstance(path, SegmentPath)
    if t1 is None:
        t1 = 0.0 if segment else float(path.grid[0])
    if t2 is None:
        t2 = path.spec.varsigma if segment else float(path.grid[-1])
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise DomainError(f"bounds must be finite, got [{t1}, {t2}]")
    if t2 < t1:
        raise DomainError(f"empty interval [{t1}, {t2}]")
    if segment:
        return _segment_cost(path.spec, t1, t2)
    if t2 == t1 and not np.any(np.abs(path.grid - t1) <= 1e-9):  # FluidPath.slice's tolerance
        raise DomainError(f"{t1} is not a grid point")
    return 0.0 if t2 == t1 else _grid_cost(path, t1, t2)


def _integrate(weights: np.ndarray, vals: np.ndarray) -> float:
    if not np.all(np.isfinite(vals)):
        return math.inf
    return float(np.sum(weights * vals))


def _segment_cost(spec: PathSegmentSpec, t1: float, t2: float) -> float:
    """Closed-form route: 29 panels of 10 Gauss-Legendre nodes in s, halving
    in width toward t2.  Every node is placed by its time left before t2,
    so none rounds onto t2."""
    tol = 1e-9 * max(1.0, spec.varsigma)
    if t1 < -tol or t2 > spec.varsigma + tol:
        raise DomainError(f"[{t1}, {t2}] is not inside [0, {spec.varsigma}]")
    if t2 == t1:
        return 0.0
    t2 = min(t2, spec.varsigma)
    span = t2 - min(max(t1, 0.0), t2)
    s, w = _gl_rule()
    # the cost is homogeneous of degree one in the state, so the integrand
    # is read on the segment scaled by the power of two that puts varsigma
    # in [1/2, 1) (a subnormal one as near as 2^1023 takes it), where a tiny
    # mass neither underflows nor divides to inf; varsigma = (r(x1) -
    # r(x2))/2 is 0 or above 2^-55 r(x1), so no scaled state overflows.  The
    # weights keep the unscaled span.
    lam = math.ldexp(1.0, min(-math.frexp(spec.varsigma)[1], 1023))
    rest = lam * (spec.varsigma - t2) + (lam * span) * s * s
    zeta0, zetak, dzetak = _unit_state(spec, rest, lam)
    # exact velocities need no noise floor: at the 1e-8 default, dropping
    # a small wake rate near t2 costs up to 6e-11 in case (i) on 8400
    # random segments
    vals = _rate_integrand(zeta0, zetak.T, dzetak.T, np.array(spec.degrees, dtype=float),
                           floor=0.0)
    return _integrate(2.0 * span * s * w, vals)


def _grid_cost(path: FluidPath, t1: float, t2: float) -> float:
    """Grid route: central-difference velocities at the 2-point Gauss nodes
    of every grid interval.  The nodes sit at the fixed fractions
    (1 -+ 1/sqrt(3))/2 of each interval, where the piecewise-linear path is
    a fixed blend of the interval's ends; a node value y_i + s_i (t - t_i),
    s_i the interval's slope, is formed as ``np.interp`` forms it, without
    its search for the interval.  The nodes are strictly interior, so a
    mass vanishing exactly at a grid point never enters a logarithm."""
    seg = path.slice(t1, t2)
    _check_unit_pace(seg)
    _, dzetak = seg.derivatives()
    rows = np.vstack([seg.zeta0, seg.zetak.T, dzetak.T, _wake_error(dzetak)])
    half = 0.5 * np.diff(seg.grid)
    mid, g2 = seg.grid[:-1] + half, 1.0 / math.sqrt(3.0)
    vals = np.empty((len(rows), 2, len(half)))  # lower nodes, then upper ones
    slope = np.divide(np.diff(rows, axis=1), np.diff(seg.grid), out=vals[:, 1])
    np.multiply(slope, (mid - half * g2) - seg.grid[:-1], out=vals[:, 0])
    slope *= (mid + half * g2) - seg.grid[:-1]
    vals += rows[:, None, :-1]
    vals = vals.reshape(len(rows), -1)
    del rows, dzetak  # freed before the integrand's buffers are taken
    d = len(seg.degrees)
    ks = np.array(seg.degrees, dtype=float)
    rates = _rate_integrand(vals[0], vals[1:d + 1], vals[d + 1:-1], ks,
                            slack=np.maximum(vals[-1], _NU_FLOOR))
    return _integrate(np.concatenate([half, half]), rates)


def _wake_error(dzetak: np.ndarray) -> np.ndarray:
    """Error of the differenced sum_k nu_k at each grid point.

    Its largest change over the two grid intervals on either side is of
    the order of both the truncation error and the rounding noise of the
    difference quotients; four times that change is the estimate, so a
    grid path may overshoot sum_k nu_k = 1 by this much before its rate is
    infinite.  (The tests' three minimizers with beta ~ 0.97-0.99,
    evaluated forward in t, overshoot by less than 0.3 of it.)
    """
    jumps = np.abs(np.diff(np.maximum(-dzetak, 0.0) @ np.ones(dzetak.shape[1])))
    j = np.concatenate([jumps[:1], jumps[:1], jumps, jumps[-1:], jumps[-1:]])
    return 4.0 * np.maximum.reduce([j[:-3], j[1:-2], j[2:-1], j[3:]])


def _h_tilde(x0: float, xk: dict[int, float]) -> float:
    """H~(x) = sum x_k log x_k - (s/2) log(s/2), s = x0 + sum k x_k.

    s/2 >= varsigma >= -1e-12 for a drop that :func:`make_segment_spec`
    accepted, and s <= 0 adds no term."""
    s = 0.5 * (x0 + math.fsum(k * v for k, v in xk.items()))
    total = math.fsum(v * math.log(v) for v in xk.values() if v > 0.0)
    if s > 0.0:
        total -= s * math.log(s)
    return total


def cost_closed_form(x1: StatePoint, x2: StatePoint) -> float:
    """Closed-form segment cost H~(z) + H~(x2) - H~(x1) + K~(x1, x2); a
    caller that holds the segment's spec calls its ``cost_closed_form``."""
    return make_segment_spec(x1, x2).cost_closed_form()
