"""Generating functions, criticality, and zero-cost fluid trajectories.

For a degree distribution p with mean mu:

    G0(z) = sum_k p_k z^k,   G1(z) = sum_k k p_k z^{k-1} / mu,

criticality nu = sum_k k(k-1) p_k / mu.  When sum_k k(k-2) p_k > 0 a giant
component exists and rho is the unique fixed point G1(rho) = rho in [0, 1);
for sum_k k(k-2) p_k <= 0 the survival root is reported as the sentinel 1
("no giant"), which also makes the giant fraction 1 - G0(rho) vanish.

The zero-cost trajectory explores the graph at unit pace along one
profile zeta_k(t) = p_k y(t)^k: y = sqrt(1 - 2t/mu) until tau = mu(1-rho^2)/2
(the giant is exhausted), then y = rho f_rho(t - tau), with f_s the inverse
of F_s(u) = G0(s) - G0(su).  Without a giant the sentinel rho = 1 gives
tau = 0, so the profile is p_k f_1(t)^k throughout.  rho is found by
:func:`cmld.core.bisect_increasing`, the package's one root finder; f_s
needs no bracket, since G0 has nonnegative coefficients and so is convex
and increasing on [0, 1]: :func:`inverse_Fs` descends onto it by Newton
steps from u = 1.

Up to tau, zeta_0 = sum_k k (p_k - zeta_k) - 2t by unit pace and psi = zeta_0.
After tau there is no active mass and psi = sum_k (k - 2)(p_k rho^k - zeta_k),
which stays zero; so zeta_0 = Gamma(psi) holds on any grid up to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DegreeDistribution, bisect_increasing
from .errors import DomainError
from .fluid import FluidPath


def gen_G0(p: DegreeDistribution, z: float) -> float:
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"G0 requires z in [0, 1], got {z}")
    return math.fsum(v * z ** k for k, v in p.weights.items())


def gen_G1(p: DegreeDistribution, z: float) -> float:
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"G1 requires z in [0, 1], got {z}")
    mu = p.mu
    return math.fsum(k * v * z ** (k - 1) for k, v in p.weights.items()) / mu


def criticality_nu(p: DegreeDistribution) -> float:
    """Mean forward degree nu = sum k(k-1) p_k / sum k p_k."""
    return p.moment(2) / p.mu - 1.0


def _kk2(p: DegreeDistribution) -> float:
    return math.fsum(k * (k - 2) * v for k, v in p.weights.items())


def survival_rho(p: DegreeDistribution) -> float:
    """Fixed point G1(rho) = rho governing the giant component.

    Returns the sentinel 1.0 in the subcritical/critical regime (no giant),
    0.0 when p_1 = 0, and otherwise the unique root in (0, 1), solved on
    [0, 1], of

        f(z) = mu (z - G1(z)) / (1 - z) = z sum_{k>=3} k p_k S_{k-2}(z) - p_1,

    with S_j(z) = 1 + z + ... + z^{j-1}: the root at z = 1 divided out, so
    f does not cancel near 1.  f is increasing, from -p_1 at 0 to
    sum_k k (k - 2) p_k > 0 at 1.  f also returns its slope
    sum_k k p_k (S_{k-2} + z S_{k-2}'), with S_j and S_j' = S_{j-1} +
    z S_{j-1}' walked up the degrees by Horner's rule, so
    :func:`cmld.core.bisect_increasing` takes Newton steps.
    """
    if _kk2(p) <= 0.0:
        return 1.0
    p1 = p.pk(1)
    if p1 == 0.0:
        return 0.0
    kp = [k * p.pk(k) for k in range(3, p.max_degree + 1)]  # k p_k from k = 3

    def f(z: float) -> tuple[float, float]:
        value = slope = s = ds = 0.0  # s, ds: S_{k-2}(z) and S_{k-2}'(z), from k = 2
        for c in kp:
            s, ds = 1.0 + z * s, s + z * ds
            value += c * s
            slope += c * (s + z * ds)
        return z * value - p1, slope

    return bisect_increasing(f, 0.0, 1.0)


def giant_fraction(p: DegreeDistribution) -> float:
    """Vertex fraction 1 - G0(rho) of the giant component (0 without one)."""
    return 1.0 - gen_G0(p, survival_rho(p))


def _g0_and_slope(p: DegreeDistribution, s: float, u):
    """G0(su) and its slope s G0'(su) in u, for a float or an array u."""
    z = s * u
    terms = [(k, v, z ** (k - 1)) for k, v in p.weights.items()]
    return sum(v * w * z for _, v, w in terms), s * sum(k * v * w for k, v, w in terms)


def inverse_Fs(p: DegreeDistribution, s: float, t):
    """f_s(t): inverse of F_s(u) = G0(s) - G0(su) for t <= G0(s), else 0.

    t is a float or an array of times; a float t gives a float.  Lanes with
    t = 0 return 1 and lanes with t >= G0(s), an infinite t among them,
    return 0 exactly; a negative or NaN time raises :class:`DomainError`.

    The times in (0, G0(s)) are solved together, with no bracket, by Newton
    descent on h(u) = G0(su) - (G0(s) - t) from u = 1, where h = t > 0,
    with the slope s G0'(su).  G0 has nonnegative coefficients, so h is
    convex and increasing on [0, 1]: each Newton point lies at or above the
    root, and a lane falls monotonically.  A lane moves while h > 0 and its
    Newton point is lower than u, so each moving lane strictly decreases
    every round and the loop ends when none moves.  A lane whose last step
    overshot the root by a rounding, leaving h < 0, takes one Newton step
    back up.
    """
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must lie in (0, 1], got {s}")
    tt = np.asarray(t, dtype=float)
    if np.any(np.isnan(tt)):
        raise DomainError("t must be a number, got nan")
    if np.any(tt < 0.0):
        raise DomainError(f"t must be nonnegative, got {tt.min()}")
    g0s = gen_G0(p, s)
    u = np.where(tt <= 0.0, 1.0, 0.0)
    open_ = (tt > 0.0) & (tt < g0s)
    h = tt[open_]
    target = g0s - h
    x, dh = np.ones(h.shape), np.full(h.shape, _g0_and_slope(p, s, 1.0)[1])
    lane = np.arange(h.size)  # the lanes still moving
    while lane.size:
        step = x[lane] - h[lane] / dh[lane]
        down = step < x[lane]
        lane, step = lane[down], step[down]
        x[lane] = step
        value, dh[lane] = _g0_and_slope(p, s, step)
        h[lane] = value - target[lane]
        lane = lane[h[lane] > 0.0]
    back = h < 0.0
    x[back] -= h[back] / dh[back]
    u[open_] = x
    return float(u) if u.ndim == 0 else u


def _refined_grid(T: float, grid_points: int, special: float) -> np.ndarray:
    """Uniform grid of spacing h with x4 density within 5h of ``special``.

    The fine points are special + j h/4, so ``special`` is a grid point.
    They replace the base points within 5h + h/8 of ``special``, and fine
    points within h/8 of 0 or T are dropped, so no two points are closer
    than h/8 unless ``special`` itself is that close to an end.
    """
    base = np.linspace(0.0, T, grid_points)
    if not 0.0 < special < T:
        return base
    h = T / (grid_points - 1)
    fine = special + 0.25 * h * np.arange(-20, 21)
    fine = fine[(fine > 0.125 * h) & (fine < T - 0.125 * h)]
    keep = np.abs(base - special) > 5.125 * h
    keep[[0, -1]] = True
    return np.unique(np.concatenate([base[keep], fine, [special]]))


def lln_path(p: DegreeDistribution, T: float | None = None, grid_points: int = 1001,
             grid: np.ndarray | None = None) -> FluidPath:
    """The unique zero-cost fluid trajectory on [0, T], T >= mu/2.

    Without ``grid``, the grid is ``grid_points`` uniform points with four
    times the density within five spacings of tau, and tau itself
    (:func:`_refined_grid`); when 0 < tau < T it therefore holds more points
    than asked, 1032 for p = {1: .5, 3: .5} at 1001.  Every grid point
    after tau is solved by one call of :func:`inverse_Fs`, whose Newton
    descent runs all of them together.  The returned path carries tau
    markers and summary scalars (mu, nu, rho, tau, giant fraction) in
    ``meta``.
    """
    mu = p.mu
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise DomainError("grid must be a nonempty 1-D array of times")
        if not np.all(np.isfinite(grid)):
            raise DomainError("grid holds a non-finite time")
        if grid[0] < 0.0:
            raise DomainError(f"grid starts at {grid[0]} < 0")
        T = float(grid[-1])
    elif grid_points < 2:
        raise DomainError(f"grid_points must be at least 2, got {grid_points}")
    if T is None:
        raise DomainError("either T or an explicit grid is required")
    if not math.isfinite(T):
        raise DomainError(f"horizon T = {T} is not finite")
    if T < 0.5 * mu - 1e-12:
        raise DomainError(f"horizon T = {T} shorter than mu/2 = {0.5 * mu}")

    nu = criticality_nu(p)
    rho = survival_rho(p)
    ks = np.array(p.degrees, dtype=float)
    pk = np.array([p.weights[int(k)] for k in ks])
    tau = 0.5 * mu * (1.0 - rho * rho)
    tau_zeta = tau + gen_G0(p, rho)

    if grid is None:
        grid = _refined_grid(T, grid_points, tau)

    before = grid <= tau
    y = np.empty(len(grid))
    y[before] = np.sqrt(np.maximum(1.0 - 2.0 * grid[before] / mu, 0.0))
    y[~before] = rho * inverse_Fs(p, rho, grid[~before] - tau) if rho > 0.0 else 0.0
    zetak = pk[None, :] * y[:, None] ** ks[None, :]
    zeta0 = np.zeros(len(grid))
    zeta0[before] = np.maximum((pk - zetak[before]) @ ks - 2.0 * grid[before], 0.0)
    psi = np.where(before, zeta0, (pk * rho ** ks - zetak) @ (ks - 2.0))
    markers = {"tau_zeta": tau_zeta}
    if rho < 1.0:
        markers["tau"] = tau
    meta = {
        "mu": mu,
        "nu": nu,
        "rho": rho,
        "tau": tau,
        "giant_fraction": 1.0 - gen_G0(p, rho),
    }
    return FluidPath(grid=grid, degrees=p.degrees, zeta0=zeta0, zetak=zetak,
                     psi=psi, tau_markers=markers, meta=meta)
