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

SIGN_NOTE = "rate >= 0; lim (1/n) log P = -rate"

BOUND_TWO_SIDED = "two_sided"
BOUND_LOWER_ONLY = "lower_only"

_BISECT_MAX_ITER = 200
_SIZE_SCAN_POINTS = 16  # scan of a wide component-size root bracket


def _degree(k, what: str) -> int:
    """``k`` as an int; DomainError unless it is a positive integer (2.5 is
    not truncated to 2)."""
    try:
        kk = int(k)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, a non-number
        kk = 0
    if kk < 1 or kk != k:
        raise DomainError(f"{what}: degree {k!r} is not a positive integer")
    return kk


def _clean_weights(weights: Mapping[int, float], what: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for k, v in weights.items():
        kk = _degree(k, what)
        v = float(v)
        if not math.isfinite(v):
            raise DomainError(f"{what}: weight {v} at degree {kk} is not finite")
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
        try:
            total = math.fsum(w.values())
        except OverflowError:  # finite weights whose sum passes the double range
            total = math.inf
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
        return rate_record(self.I1, {"beta": self.beta, "H_q": self.H_q, "H_pq": self.H_pq,
                                     "H_p": self.H_p, "K": self.K},
                           feasible=self.feasible, bound_kind=self.bound_kind)


def rate_record(rate: float, inputs: dict, **after) -> dict:
    """The record of a decay rate: ``inputs``, the rate and its limit
    (1/n) log P = -rate, the fields ``after``, then the sign convention."""
    return {**inputs, "rate": rate, "limit": -rate, **after, "sign_convention": SIGN_NOTE}


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

        F(a) = -w_1 - x20/a + a x10 + sum_{k>=3} k w_k a S_{k-2}(a) / S_k(a),

    for drop weights w between states with active masses x10 and x20;
    beta(q) is the zero for w = q and x10 = x20 = 0.  Each term is
    k w_k (a - a^{k-1}) / (1 - a^k) with the common root at a = 1 divided
    out, leaving the partial sums S_i(a) = 1 + a + ... + a^{i-1}, which do
    not cancel near 1.  So F is continuous on (0, 1] and F(1) = sum_k k w_k
    + x10 - x20 - 2 sum_k w_k, the feasibility margin.

    F returns (F(a), F'(a)), so :func:`bisect_increasing` takes Newton
    steps.  One pass up the degrees walks S_i and S_i' = S_{i-1} + a
    S_{i-1}' by Horner's rule.  With u = a S_{k-2} = S_{k-1} - 1 and S_k =
    1 + a (1 + u), the slope of a term is k w_k ((1 + a) u' - u (1 + u)) /
    S_k^2.
    """
    w1 = w.get(1, 0.0)
    kw = [k * w.get(k, 0.0) for k in range(3, max(w, default=0) + 1)]  # k w_k from k = 3

    def F(a: float) -> tuple[float, float]:
        value = -w1 - x20 / a + a * x10
        slope = x20 / (a * a) + x10
        s = ds = 0.0  # S_{k-2}(a) and S_{k-2}'(a), from k = 2
        for kv in kw:
            s, ds = 1.0 + a * s, s + a * ds
            u, du = a * s, s + a * ds
            sk = 1.0 + a * (1.0 + u)
            value += kv * u / sk
            slope += kv * ((1.0 + a) * du - u * (1.0 + u)) / (sk * sk)
        return value, slope

    return F


def bisect_increasing(f, lo: float, hi: float) -> float:
    """Root of an increasing function on [lo, hi] by Newton steps kept
    inside a bisection bracket; the package's one root finder.

    f returns (value, slope); a decreasing function is passed negated, and
    a function with no useful slope returns slope 0.0, which gives plain
    halving.  Expects f(lo) <= 0 <= f(hi) and does not evaluate the ends;
    callers that need the bracket checked do so themselves.  Each value
    moves an end of the bracket to the point evaluated: the lower end if
    it is negative, else the upper end.  The next point is the Newton step
    x - value / slope when the slope is positive and the step lands
    strictly inside the bracket, and the midpoint otherwise.

    The search returns the point evaluated where f is zero or where the
    Newton step moves it by at most 1e-15 relative.  Otherwise it returns
    the midpoint once the bracket is at most 1e-15 min(1, max(-lo, hi))
    wide, once the midpoint no longer lies strictly inside, or after 200
    points.  The width bound is absolute for a bracket reaching beyond
    unit size, such as the Clopper-Pearson bracket [-745, 0], and relative
    to the larger end below that, so a root of 1e-20 on [0, 1] is found to
    1e-15 relative and not returned as a midpoint near 1e-16.
    """
    x = None  # the next point: a Newton step, or None for the midpoint
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * min(1.0, max(-lo, hi)) or not lo < mid < hi:
            break
        if x is None:
            x = mid
        value, slope = f(x)
        if value == 0.0:
            return x
        lo, hi = (x, hi) if value < 0.0 else (lo, x)
        if slope > 0.0:
            step = value / slope
            if abs(step) <= 1e-15 * abs(x):
                return x
            x -= step
            if lo < x < hi:
                continue
        x = None
    return 0.5 * (lo + hi)


def _transition_root(w: Mapping[int, float], x10: float, x20: float) -> float:
    """The zero in [0, 1) of ``_transition_fn(w, x10, x20)``; 0 when w_1 = x20 = 0.

    Otherwise requires x10 - x20 + sum_k k w_k > 2 sum_k w_k, which is
    F(1) > 0; with F -> -inf (x20 > 0) or F(0+) = -w_1 < 0 at the left,
    the bracket is exactly [0, 1].
    """
    if w.get(1, 0.0) == 0.0 and x20 == 0.0:
        return 0.0
    edge = x10 - x20 + math.fsum(k * v for k, v in w.items())
    vert = math.fsum(w.values())
    if not edge > 2.0 * vert:
        raise FeasibilityError("no transition root: requires w_1 = x2_0 = 0 or "
                               f"sum k w_k + x1_0 - x2_0 > 2 sum w_k ({edge} <= {2 * vert})")
    return bisect_increasing(_transition_fn(w, x10, x20), 0.0, 1.0)


def beta_of_q(q) -> float:
    """The unique root beta(q) in [0,1), ``_transition_root(q, 0, 0)``; 0 when q_1 = 0."""
    return _transition_root(_weights_of(q), 0.0, 0.0)


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
    """Rate for a D-regular component of size about n*qD under general p with p_1 = 0.

    H(q) + H(p-q) - H(p) at q = {D: qD}; K = 0 because p_1 = 0 forces beta = 0.
    """
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
    return entropy_H({D: qD}) + entropy_H({**p.weights, D: pD - qD}) - entropy_H(p)


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


def _logistic_pair(x: float) -> tuple[float, float]:
    """(sigma(x), sigma(-x)) from one :func:`_logistic` call: the smaller
    of the two, and 1 minus it, which keeps the digits of both."""
    if x <= 0.0:
        small = _logistic(x)
        return small, 1.0 - small
    small = _logistic(-x)
    return 1.0 - small, small


def rate_component_size(p: DegreeDistribution, r: float) -> tuple[float, dict[int, float]]:
    """Minimal rate over profiles q with vertex mass r; requires p_1 = p_2 = 0.

    Returns the positive rate and the minimizing profile.  The minimum of
    H(q) + H(p-q) - H(p) under sum_k q_k = r is interior, so it is a
    stationary point.  Setting the gradient to zero gives

        log(q_k / (p_k - q_k)) - (k/2) log(s_q / s_{p-q}) = const,

    with s half the edge mass, i.e. q_k = p_k sigma(u + k t) for the
    logistic sigma and t = (1/2) log(s_q / s_{p-q}).  For fixed t the
    vertex mass M(u) = sum_k p_k sigma_k is strictly increasing in u, with
    slope M' = sum_k p_k sigma'_k where sigma'_k = sigma_k (1 - sigma_k),
    which fixes u(t).  It is solved as log M - log(sum p - M) =
    log r - log(sum p - r), whose slope is M' (1/M + 1/(sum p - M)): this
    is nearly linear in u in both tails, where M - r itself is
    exponential and Newton steps on it crawl.  What is left is the scalar
    equation

        g(t) = log s_q - log s_{p-q} - 2t = 0.

    Differentiating u(t) implicitly gives

        g'(t) = S' (1/s_q + 1/s_{p-q}) - 2,
        S' = sum_k k^2 p_k sigma'_k - (sum_k k p_k sigma'_k)^2 / sum_k p_k sigma'_k,

    with s here the full edge masses.  Both equations are solved by
    :func:`bisect_increasing` with these slopes, so its Newton steps do
    most of the work.  Both parts have mean degree in [k_min, k_max], so
    every root lies in [c - w, c + w] with c = (1/2) log(r / (sum p - r))
    and w = (1/2) log(k_max / k_min); g >= 0 at the left end and <= 0 at
    the right.  Two facts decide which roots are solved.

    The minima are the zeros where g falls.  Along the family the
    objective phi(t) = H(q) + H(p-q) - H(p) has phi'(t) = -g(t) s_q'(t),
    s_q = (1/2) sum_k k q_k, since sum_k q_k' = 0 and
    log(q_k / (p_k - q_k)) = u + k t; and 2 s_q' = S' > 0 for a support of
    two or more degrees.  So phi falls while g > 0 and rises while g < 0,
    and only intervals with g >= 0 at the left and <= 0 at the right are
    solved, as roots of -g.

    One root when (k_max - k_min)^2 < 8 k_min.  With W = sum_k p_k sigma'_k
    and R = sum p - r,

        S' = W Var_w(k) <= W (k_max - k_min)^2 / 4   (Popoviciu, w_k = p_k sigma'_k / W),
        W = sum_k p_k (sigma_k - sigma_k^2) <= r R / (r + R)   (Jensen on sigma^2),
        s_q >= k_min r and s_{p-q} >= k_min R   (full edge masses),
        g'(t) <= (k_max - k_min)^2 / (4 k_min) - 2.

    Then g falls strictly and the scan is the bracket's two ends.  Wider
    supports are scanned at 16 points, every interval where g falls is
    solved, and the root of least objective is returned, since the
    objective need not be convex.  At r = (1/2) sum p the objective is
    symmetric under q <-> p - q, so minimizers can come in mirror pairs of
    equal rate; which of the two is returned is not specified.
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

    def profile(t: float) -> list[tuple[float, float]]:
        """(sigma(x_k), sigma(-x_k)) for x_k = u(t) + k t, with u(t)
        fixing the vertex mass at r."""
        kt = [k * t for k in ks]

        def mass_logit(u: float) -> tuple[float, float]:
            mass = rest = slope = 0.0
            for v, x in zip(pk, kt):
                a, b = _logistic_pair(u + x)
                mass += v * a
                rest += v * b
                slope += v * a * b
            return math.log(mass) - math.log(rest) - logit_r, slope * (1.0 / mass + 1.0 / rest)

        u = bisect_increasing(mass_logit, logit_r - max(kt), logit_r - min(kt))
        return [_logistic_pair(u + x) for x in kt]

    def minus_g(t: float) -> tuple[float, float]:
        """-g(t) and its slope: increasing wherever g falls."""
        s_q = s_pq = d0 = d1 = d2 = 0.0
        for k, v, (a, b) in zip(ks, pk, profile(t)):
            s_q += k * v * a
            s_pq += k * v * b
            d = v * a * b  # p_k sigma'_k
            d0 += d
            d1 += k * d
            d2 += k * k * d
        slope = 2.0 - (d2 - d1 * d1 / d0) * (1.0 / s_q + 1.0 / s_pq) if d0 > 0.0 else math.nan
        return math.log(s_pq) - math.log(s_q) + 2.0 * t, slope

    c = 0.5 * logit_r
    w = 0.5 * math.log(ks[-1] / ks[0])
    n = 2 if (ks[-1] - ks[0]) ** 2 < 8 * ks[0] else _SIZE_SCAN_POINTS
    ts = [c - w + 2.0 * w * i / (n - 1) for i in range(n)]
    # g >= 0 at the left end and <= 0 at the right, so neither end can
    # skip an interval and neither is evaluated (a root at an end can round
    # to the wrong sign there)
    hs = [0.0, *(minus_g(t)[0] for t in ts[1:-1]), 0.0]
    best_val, best_q = math.inf, None
    for a, b, ha, hb in zip(ts, ts[1:], hs, hs[1:]):
        if ha > 0.0 or hb < 0.0:  # g does not fall across [a, b]
            continue
        sig = profile(bisect_increasing(minus_g, a, b))
        q = {k: v * s for k, v, (s, _) in zip(ks, pk, sig)}
        pq = {k: v * s for k, v, (_, s) in zip(ks, pk, sig)}
        val = entropy_H(q) + entropy_H(pq) - H_p
        if val < best_val:
            best_val, best_q = val, q
    return best_val, best_q
