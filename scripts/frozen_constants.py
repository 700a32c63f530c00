#!/usr/bin/env python3
"""Regenerate the test constants marked "frozen from a 50-digit evaluation".

Each constant is evaluated from its defining series with mpmath at 50
significant digits, at the exact decimal inputs and at the transition root
solved to that precision; none of the package's float code is used.

    K_EXPECTED, I1_MIXED_EXPECTED, DREG_SUB_EXPECTED   tests/test_core.py
    COST_ACTIVE_ENDPOINTS                              tests/test_paths.py

Prints one JSON object mapping each name to its 50-digit decimal string;
the frozen float is that string rounded to the nearest double.

    python scripts/frozen_constants.py
"""

import json

import mpmath as mp

mp.mp.dps = 50


def weights(w):
    return {k: mp.mpf(v) for k, v in w.items()}


def entropy_H(r):
    """H(r) = sum r_k log r_k - s log s with s = (1/2) sum k r_k."""
    s = sum(k * v for k, v in r.items()) / 2
    return sum(v * mp.log(v) for v in r.values() if v > 0) - s * mp.log(s)


def h_tilde(x0, xk):
    """H~(x) = sum x_k log x_k - s log s with s = (x0 + sum k x_k)/2."""
    s = (x0 + sum(k * v for k, v in xk.items())) / 2
    total = sum(v * mp.log(v) for v in xk.values() if v > 0)
    return total - s * mp.log(s) if s > 0 else total


def transition_root(w, x10=0, x20=0):
    """Zero in (0, 1) of F(a) = -w_1 - x20/a + a x10 + sum_{k>=3} k w_k (a - a^{k-1})/(1 - a^k)."""
    def F(a):
        acc = -w.get(1, 0) - x20 / a + a * x10
        return acc + sum(k * v * (a - a ** (k - 1)) / (1 - a ** k)
                         for k, v in w.items() if k >= 3)

    eps = mp.mpf(10) ** -40
    return mp.findroot(F, (eps, 1 - eps), solver="anderson")


def k_correction(w, beta):
    """K = (1/2 sum_k k w_k) log(1 - beta^2) - sum_k w_k log(1 - beta^k)."""
    s = sum(k * v for k, v in w.items()) / 2
    return s * mp.log(1 - beta ** 2) - sum(v * mp.log(1 - beta ** k) for k, v in w.items())


def constants():
    # profile q = {1: .1, 3: .3} in p = {1: .5, 3: .5}; its root is 4 - sqrt(15)
    p13 = weights({1: "0.5", 3: "0.5"})
    q13 = weights({1: "0.1", 3: "0.3"})
    beta = transition_root(q13)
    K = k_correction(q13, beta)
    p_minus_q = {k: p13[k] - q13[k] for k in p13}
    I1 = entropy_H(q13) + entropy_H(p_minus_q) - entropy_H(p13) + K

    # a 3-regular component of size n/4 in p = {3: .5, 4: .5}; K = 0 as p_1 = 0
    p34 = weights({3: "0.5", 4: "0.5"})
    dreg = (entropy_H(weights({3: "0.25"})) + entropy_H(weights({3: "0.25", 4: "0.5"}))
            - entropy_H(p34))

    # segment (1, {3: 1}) -> (0.5, {3: 0.5}): drop z = {3: 0.5}, z_0 = 0.5
    x10, x1k = mp.mpf(1), weights({3: 1})
    x20, x2k = mp.mpf("0.5"), weights({3: "0.5"})
    z = {k: x1k[k] - x2k[k] for k in x1k}
    r1 = x10 + sum(k * v for k, v in x1k.items())
    r2 = x20 + sum(k * v for k, v in x2k.items())
    varsigma = (r1 - r2) / 2
    b = transition_root(z, x10, x20)
    k_tilde = (varsigma * mp.log(1 - b ** 2) - sum(v * mp.log(1 - b ** k) for k, v in z.items())
               + x20 * mp.log(b))
    cost = h_tilde(x10 - x20, z) + h_tilde(x20, x2k) - h_tilde(x10, x1k) + k_tilde

    return {"K_EXPECTED": K, "I1_MIXED_EXPECTED": I1, "DREG_SUB_EXPECTED": dreg,
            "COST_ACTIVE_ENDPOINTS": cost}


def main():
    print(json.dumps({name: mp.nstr(v, 50) for name, v in constants().items()}, indent=1))


if __name__ == "__main__":
    main()
