import json
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def _no_kept_lane_buffers():
    """Start each test with no lane buffers kept on its thread, so a direct
    kernel call's memory measurement counts its own buffers in any order."""
    from cmld import estimate

    estimate._lanes.buffers = None


@pytest.fixture(scope="session")
def frozen_constants() -> dict[str, float]:
    """The 50-digit values of scripts/frozen_constants.py, rounded to doubles."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "frozen_constants.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True)
    return {name: float(v) for name, v in json.loads(out.stdout).items()}


@pytest.fixture(scope="session")
def exact_rel_err():
    """The relative error of a Clopper-Pearson bound, by an exact binomial sum."""
    return _exact_rel_err


def _exact_rel_err(x: float, k: int, n: int, level: float) -> float:
    """Relative error of x as the root of P(Bin(n, x) >= k) = level.

    One Newton step on the binomial tail, summed at 40 digits over its
    shorter side, with d/dx P(Bin(n, x) >= k) = n C(n-1, k-1) x^(k-1)
    (1-x)^(n-k).  The Clopper-Pearson bounds are these roots: the lower at
    k = hits and level 0.025, the upper at k = hits + 1 and level 0.975.
    """
    import mpmath as mp

    with mp.workdps(40):
        x = mp.mpf(x)
        j0, j1 = (k, n) if n - k < k else (0, k - 1)
        term = mp.binomial(n, j0) * x ** j0 * (1 - x) ** (n - j0)
        total = term
        for j in range(j0 + 1, j1 + 1):
            term *= (n - j + 1) * x / (j * (1 - x))
            total += term
        tail = total if j0 == k else 1 - total
        slope = n * mp.binomial(n - 1, k - 1) * x ** (k - 1) * (1 - x) ** (n - k)
        return float((tail - level) / slope / x)


@pytest.fixture(scope="session")
def inverse_Fs_rel_err():
    """The relative error of u as f_s(t), against a 50-digit root."""
    return _inverse_Fs_rel_err


def _inverse_Fs_rel_err(p, s: float, t: float, u: float) -> float:
    """Relative error of u as the root of G0(s u) = G0(s) - t in (0, 1].

    G0(s) is the float that ``inverse_Fs`` compares t with, taken exactly;
    times near it leave targets of a few ulps of G0(s), which only that
    float defines.  The root is found at 50 digits by Newton steps from
    u = 1, which fall monotonically onto it since G0 is convex.
    """
    import mpmath as mp

    from cmld import gen_G0

    with mp.workdps(50):
        w = [(k, mp.mpf(v)) for k, v in p.weights.items()]
        s_, target = mp.mpf(s), mp.mpf(gen_G0(p, s)) - mp.mpf(t)
        root = mp.mpf(1)
        for _ in range(2000):
            z = s_ * root
            value = sum(v * z ** k for k, v in w) - target
            step = value / (s_ * sum(k * v * z ** (k - 1) for k, v in w))
            root -= step
            if abs(step) <= mp.mpf(10) ** -45 * root:
                break
        return float((u - root) / root)
