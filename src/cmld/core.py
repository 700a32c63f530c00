"""Static decay-rate formulas for component degree profiles.

All logarithms are natural and every rate is reported in nats per vertex.
Sign convention: functions return the nonnegative decay rate; the
corresponding large-n limit of (1/n) log P is the negative of the returned
value.  Conventions 0 log 0 = 0 and 0 log(x/0) = 0 hold throughout, while
x log(x/0) = +inf for x > 0.

The central objects are the entropy-like functional

    H(r) = sum_k r_k log r_k - (1/2 sum_k k r_k) log(1/2 sum_k k r_k),

the root beta(q) in [0,1) coupling edge and vertex budgets of a profile
with q_1 > 0, and the correction

    K(q) = (1/2 sum_k k q_k) log(1 - beta^2) - sum_k q_k log(1 - beta^k).

The rate for observing a component with degree profile q inside a graph
with degree distribution p is H(q) + H(p-q) - H(p) + K(q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, FeasibilityError

PROB_TOL = 1e-12

BOUND_TWO_SIDED = "two_sided"
BOUND_LOWER_ONLY = "lower_only"

_BISECT_LO = 1e-15
_BISECT_HI = 1.0 - 1e-15
_BISECT_MAX_ITER = 200
_SIZE_SCAN_POINTS = 16  # scan of the component-size root bracket


def _clean_weights(weights: Mapping[int, float], what: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for k, v in weights.items():
        kk = int(k)
        if kk < 1 or kk != float(k):
            raise DomainError(f"{what}: degree {k!r} is not a positive integer")
        v = float(v)
        if v < -PROB_TOL:
            raise DomainError(f"{what}: negative weight {v} at degree {kk}")
        if v > 0.0:
            out[kk] = v
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class DegreeDistribution:
    """Finite-support probability weights p_k on degrees k >= 1."""

    weights: dict[int, float]

    def __post_init__(self) -> None:
        w = _clean_weights(self.weights, "DegreeDistribution")
        total = math.fsum(w.values())
        if abs(total - 1.0) > PROB_TOL:
            raise DomainError(f"DegreeDistribution: weights sum to {total}, not 1")
        object.__setattr__(self, "weights", w)

    @property
    def max_degree(self) -> int:
        return max(self.weights)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.weights)

    def pk(self, k: int) -> float:
        return self.weights.get(k, 0.0)

    def moment(self, m: int) -> float:
        return math.fsum((k ** m) * v for k, v in self.weights.items())

    @property
    def mu(self) -> float:
        """Mean degree; twice the edge density."""
        return self.moment(1)


@dataclass(frozen=True)
class SubProfile:
    """A sub-distribution 0 <= q <= p of a reference degree distribution."""

    weights: dict[int, float]
    reference: DegreeDistribution

    def __post_init__(self) -> None:
        w = _clean_weights(self.weights, "SubProfile")
        for k, v in w.items():
            if v > self.reference.pk(k) + PROB_TOL:
                raise DomainError(
                    f"SubProfile violates q <= p: q_{k} = {v} > p_{k} = {self.reference.pk(k)}"
                )
        object.__setattr__(self, "weights", w)

    def qk(self, k: int) -> float:
        return self.weights.get(k, 0.0)

    @property
    def edge_mass(self) -> float:
        return math.fsum(k * v for k, v in self.weights.items())

    @property
    def vertex_mass(self) -> float:
        return math.fsum(self.weights.values())

    @property
    def feasible(self) -> bool:
        """Strictly more edge mass than twice the vertex mass."""
        return self.edge_mass > 2.0 * self.vertex_mass

    def complement(self) -> dict[int, float]:
        """p - q as a plain weight map."""
        out = {}
        for k, pk in self.reference.weights.items():
            d = pk - self.qk(k)
            if d > 0.0:
                out[k] = d
        return out


@dataclass(frozen=True)
class RateBreakdown:
    """Term-by-term decomposition of a component-profile decay rate (nats)."""

    beta: float
    H_q: float
    H_pq: float
    H_p: float
    K: float
    I1: float
    feasible: bool
    bound_kind: str  # BOUND_TWO_SIDED when p_1 = 0, else BOUND_LOWER_ONLY

    def as_dict(self) -> dict:
        return {
            "beta": self.beta,
            "H_q": self.H_q,
            "H_pq": self.H_pq,
            "H_p": self.H_p,
            "K": self.K,
            "rate": self.I1,
            "limit": -self.I1,
            "feasible": self.feasible,
            "bound_kind": self.bound_kind,
            "sign_convention": "rate >= 0; lim (1/n) log P = -rate",
        }


def _weights_of(r) -> dict[int, float]:
    if isinstance(r, (DegreeDistribution, SubProfile)):
        return r.weights
    return _clean_weights(r, "weights")


def entropy_H(r) -> float:
    """H(r) = sum r_k log r_k - s log s with s = (1/2) sum k r_k."""
    w = _weights_of(r)
    if not w:
        return 0.0
    s = 0.5 * math.fsum(k * v for k, v in w.items())
    terms = [v * math.log(v) for v in w.values() if v > 0.0]
    if s > 0.0:
        terms.append(-s * math.log(s))
    return math.fsum(terms)


def _transition_fn(w: Mapping[int, float], x10: float, x20: float):
    """The strictly increasing function whose zero is the transition root,

        F(a) = -w_1 - x20/a + a x10 + sum_{k>=3} k w_k (a - a^{k-1})/(1 - a^k),

    for drop weights w between states with active masses x10 and x20;
    beta(q) is the zero for w = q and x10 = x20 = 0.
    """
    w1 = w.get(1, 0.0)
    hi = [(k, k * v) for k, v in w.items() if k >= 3 and v > 0.0]

    def F(a: float) -> float:
        acc = -w1 - x20 / a + a * x10
        for k, kv in hi:
            acc += kv * (a - a ** (k - 1)) / (1.0 - a ** k)
        return acc

    return F


def bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of an increasing function on [lo, hi] by bisection.

    The shared root finder of the package; a decreasing function is passed
    negated.  Expects f(lo) <= 0 <= f(hi) and does not evaluate the ends;
    callers that need the bracket checked do so themselves.  The bracket
    is halved, a zero at the midpoint moving the upper end, until it is at
    most 1e-15 wide, its midpoint no longer lies strictly inside, or 200
    halvings have run; the midpoint is returned.  This leaves residuals
    well inside the documented 1e-12.
    """
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 or not lo < mid < hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_of_q(q) -> float:
    """The unique root beta(q) in [0,1); zero when q_1 = 0.

    Requires q_1 = 0 or strictly more edge mass than twice the vertex mass.
    """
    w = _weights_of(q)
    if w.get(1, 0.0) == 0.0:
        return 0.0
    edge = math.fsum(k * v for k, v in w.items())
    vert = math.fsum(w.values())
    if not edge > 2.0 * vert:
        raise FeasibilityError(
            f"profile with q_1 > 0 violates sum k q_k > 2 sum q_k ({edge} <= {2.0 * vert})"
        )
    F = _transition_fn(w, 0.0, 0.0)
    flo, fhi = F(_BISECT_LO), F(_BISECT_HI)
    if flo > 0.0 or fhi < 0.0:
        raise FeasibilityError(
            f"bisection bracket invalid: F({_BISECT_LO})={flo}, F({_BISECT_HI})={fhi}")
    return bisect_increasing(F, _BISECT_LO, _BISECT_HI)


def _k_correction(w: Mapping[int, float], beta: float) -> float:
    """K for weights w at their root beta; exactly zero when beta = 0."""
    if beta == 0.0:
        return 0.0
    s = 0.5 * math.fsum(k * v for k, v in w.items())
    out = s * math.log1p(-beta * beta)
    out -= math.fsum(v * math.log1p(-beta ** k) for k, v in w.items())
    return out


def K_of_q(q) -> float:
    """Correction K(q); exactly zero when q_1 = 0."""
    w = _weights_of(q)
    return _k_correction(w, beta_of_q(w))


def rate_component_degree(p: DegreeDistribution, q) -> RateBreakdown:
    """Decay rate for a component with degree profile close to n*q."""
    sub = q if isinstance(q, SubProfile) else SubProfile(_weights_of(q), p)
    if sub.reference is not p and sub.reference.weights != p.weights:
        raise DomainError("SubProfile reference does not match p")
    if not sub.feasible:
        raise FeasibilityError(
            "profile violates sum k q_k > 2 sum q_k "
            f"({sub.edge_mass} <= {2.0 * sub.vertex_mass})"
        )
    beta = beta_of_q(sub)
    K = _k_correction(sub.weights, beta)
    H_q = entropy_H(sub)
    H_pq = entropy_H(sub.complement())
    H_p = entropy_H(p)
    I1 = H_q + H_pq - H_p + K
    kind = BOUND_TWO_SIDED if p.pk(1) == 0.0 else BOUND_LOWER_ONLY
    return RateBreakdown(beta, H_q, H_pq, H_p, K, I1, sub.feasible, kind)


def rate_d_regular(D: int, qD: float) -> float:
    """Rate for a component of size about n*qD in a D-regular graph.

    The one-component case of :func:`rate_conjectured_multi`:
    (1 - D/2)(qD log qD + (1-qD) log(1-qD)) >= 0, symmetric under
    qD <-> 1 - qD.
    """
    if not 0.0 < qD <= 1.0:
        raise DomainError(f"qD must lie in (0, 1], got {qD}")
    # 1 - big is exact for big in [0.5, 1], so (D, q) and (D, 1-q) see
    # bit-identical inputs
    return rate_conjectured_multi(D, [max(qD, 1.0 - qD)])


def rate_d_regular_subgraph(p: DegreeDistribution, D: int, qD: float) -> float:
    """Rate for a D-regular component of size about n*qD under general p with p_1 = 0."""
    if p.pk(1) > 0.0:
        raise FeasibilityError("D-regular-subgraph rate requires p_1 = 0")
    if D < 3:
        raise DomainError(f"D >= 3 required, got {D}")
    pD = p.pk(D)
    if pD <= 0.0:
        raise DomainError(f"p_{D} must be positive")
    if not 0.0 < qD <= pD + PROB_TOL:
        raise DomainError(f"qD must lie in (0, p_{D}] = (0, {pD}], got {qD}")
    qD = min(qD, pD)
    mu = p.mu

    def xlogx(x: float) -> float:
        return x * math.log(x) if x > 0.0 else 0.0

    vertex_part = xlogx(qD) + xlogx(pD - qD) - xlogx(pD)
    edge_part = xlogx(0.5 * D * qD) + xlogx(0.5 * (mu - D * qD)) - xlogx(0.5 * mu)
    return vertex_part - edge_part


def rate_conjectured_largest(D: int, x: float) -> float:
    """Conjectured rate for the largest component to have size about n*x.

    Equals ``rate_conjectured_multi(D, [x] * floor(1/x))``, written in
    closed form so that its cost does not grow like 1/x.  Output is
    conjectural and is flagged as such wherever it is emitted.
    """
    if D < 3:
        raise DomainError(f"D >= 3 required, got {D}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    k = math.floor(1.0 / x)
    xk = min(x * k, 1.0)
    ent = xk * math.log(x)
    if xk < 1.0:
        ent += (1.0 - xk) * math.log(1.0 - xk)
    return (1.0 - 0.5 * D) * ent


def rate_conjectured_multi(D: int, sizes: Iterable[float]) -> float:
    """Conjectured rate for simultaneous components of the given size fractions
    in a D-regular graph.  Conjectural; flagged in emitted output."""
    if D < 3:
        raise DomainError(f"D >= 3 required, got {D}")
    qs = [float(s) for s in sizes]
    if any(not 0.0 < s <= 1.0 for s in qs):
        raise DomainError("component size fractions must lie in (0, 1]")
    rest = 1.0 - math.fsum(qs)
    if rest < -PROB_TOL:
        raise FeasibilityError("component size fractions sum to more than 1")
    qs.append(max(rest, 0.0))
    ent = math.fsum(s * math.log(s) for s in qs if s > 0.0)
    return (1.0 - 0.5 * D) * ent


def _logistic(x: float) -> float:
    """1 / (1 + e^-x) without overflow for either sign of x."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def rate_component_size(p: DegreeDistribution, r: float) -> tuple[float, dict[int, float]]:
    """Minimal rate over profiles q with vertex mass r; requires p_1 = p_2 = 0.

    Returns the positive rate and the minimizing profile.  The minimum of
    H(q) + H(p-q) - H(p) under sum_k q_k = r is interior, so it is a
    stationary point.  Setting the gradient to zero gives

        log(q_k / (p_k - q_k)) - (k/2) log(s_q / s_{p-q}) = const,

    with s half the edge mass, i.e. q_k = p_k sigma(u + k t) for the
    logistic sigma and t = (1/2) log(s_q / s_{p-q}).  For fixed t the
    vertex mass is strictly increasing in u, which fixes u(t); what is left
    is the scalar equation

        g(t) = log s_q - log s_{p-q} - 2t = 0.

    Both parts have mean degree in [k_min, k_max], so every root lies in
    [c - w, c + w] with c = (1/2) log(r / (sum p - r)) and
    w = (1/2) log(k_max / k_min); g >= 0 at the left end and <= 0 at the
    right.  The objective is not convex and g may have several roots, so
    the bracket is scanned at a fixed number of points, every sign change
    is bisected, and the root of least objective is returned.
    """
    if p.pk(1) > 0.0 or p.pk(2) > 0.0:
        raise DomainError("component-size rate requires p_1 = p_2 = 0")
    if not 0.0 < r <= 1.0 + PROB_TOL:
        raise DomainError(f"size fraction r must lie in (0, 1], got {r}")
    total = math.fsum(p.weights.values())
    if r > total + PROB_TOL:
        raise FeasibilityError(f"no feasible q: r = {r} exceeds sum p_k = {total}")
    r = min(r, total)
    if r == total:
        return 0.0, dict(p.weights)

    H_p = entropy_H(p)
    ks = p.degrees
    pk = [p.weights[k] for k in ks]
    if len(ks) == 1:
        q = {ks[0]: r}
        return entropy_H(q) + entropy_H({ks[0]: pk[0] - r}) - H_p, q

    logit_r = math.log(r / (total - r))

    def exponents(t: float) -> list[float]:
        """u(t) + k t for each degree, with u(t) fixing the vertex mass at r."""
        kt = [k * t for k in ks]

        def mass_gap(u: float) -> float:
            return sum(v * _logistic(u + x) for v, x in zip(pk, kt)) - r

        u = bisect_increasing(mass_gap, logit_r - max(kt), logit_r - min(kt))
        return [u + x for x in kt]

    def g(t: float) -> float:
        xs = exponents(t)
        s_q = sum(k * v * _logistic(x) for k, v, x in zip(ks, pk, xs))
        s_pq = sum(k * v * _logistic(-x) for k, v, x in zip(ks, pk, xs))
        return math.log(s_q) - math.log(s_pq) - 2.0 * t

    c = 0.5 * logit_r
    w = 0.5 * math.log(ks[-1] / ks[0])
    ts = [c - w + 2.0 * w * i / (_SIZE_SCAN_POINTS - 1) for i in range(_SIZE_SCAN_POINTS)]
    gs = [g(t) for t in ts]
    # a root at an end of the bracket can round to the wrong sign there
    gs[0], gs[-1] = max(gs[0], 0.0), min(gs[-1], 0.0)
    best_val, best_q = math.inf, None
    for a, b, ga, gb in zip(ts, ts[1:], gs, gs[1:]):
        if (ga > 0.0 and gb > 0.0) or (ga < 0.0 and gb < 0.0):
            continue
        root = bisect_increasing(g if ga <= gb else lambda t: -g(t), a, b)
        xs = exponents(root)
        q = {k: v * _logistic(x) for k, v, x in zip(ks, pk, xs)}
        pq = {k: v * _logistic(-x) for k, v, x in zip(ks, pk, xs)}
        val = entropy_H(q) + entropy_H(pq) - H_p
        if val < best_val:
            best_val, best_q = val, q
    return best_val, best_q
