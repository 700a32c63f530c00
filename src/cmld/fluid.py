"""Grid representation of deterministic fluid trajectories.

A :class:`FluidPath` stores (zeta_0, (zeta_k), psi) sampled on a strictly
increasing time grid.  Paths are interpreted as piecewise linear between
grid points; derivatives are taken by central differences (one-sided at the
ends).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError


def reflect(psi: np.ndarray) -> np.ndarray:
    """One-dimensional reflection at zero on a grid.

    Gamma(psi)(t) = psi(t) - min(0, inf_{s<=t} psi(s)), computed exactly by
    a running minimum.  Requires psi[0] = 0.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.size == 0:
        return psi.copy()
    if psi[0] != 0.0:
        raise PreconditionError(f"reflection requires psi(0) = 0, got {psi[0]}")
    return psi - np.minimum(np.minimum.accumulate(psi), 0.0)


@dataclass
class FluidPath:
    """Fluid exploration state sampled on a time grid.

    ``zetak[i, j]`` is the sleeping mass of degree ``degrees[j]`` at time
    ``grid[i]``; ``zeta0`` is the active half-edge density and ``psi`` the
    unreflected driver.  ``tau_markers`` holds special times when defined
    and ``meta`` carries emit-time scalars (criticality, costs, ...).
    """

    grid: np.ndarray
    degrees: tuple[int, ...]
    zeta0: np.ndarray
    zetak: np.ndarray  # shape (len(grid), len(degrees))
    psi: np.ndarray
    tau_markers: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.zeta0 = np.asarray(self.zeta0, dtype=float)
        self.zetak = np.asarray(self.zetak, dtype=float)
        if self.zetak.ndim == 1:
            self.zetak = self.zetak.reshape(-1, 1)
        self.psi = np.asarray(self.psi, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        n = len(self.grid)
        if self.zeta0.shape != (n,) or self.psi.shape != (n,):
            raise DomainError("zeta0/psi must match the grid length")
        if self.zetak.shape != (n, len(self.degrees)):
            raise DomainError("zetak must have shape (len(grid), len(degrees))")

    def zeta(self, k: int) -> np.ndarray:
        """Sleeping-mass trajectory of degree k (zeros if untracked)."""
        if k == 0:
            return self.zeta0
        if k in self.degrees:
            return self.zetak[:, self.degrees.index(k)]
        return np.zeros_like(self.grid)

    def r(self) -> np.ndarray:
        """r(zeta(t)) = zeta_0(t)^+ + sum_k k zeta_k(t) on the grid."""
        ks = np.array(self.degrees, dtype=float)
        return np.maximum(self.zeta0, 0.0) + self.zetak @ ks

    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(dzeta0/dt, dzetak/dt) by central differences on the grid."""
        d0 = np.gradient(self.zeta0, self.grid)
        dk = np.gradient(self.zetak, self.grid, axis=0)
        return d0, dk

    def slice(self, t1: float, t2: float) -> "FluidPath":
        """Restriction to grid points inside [t1, t2]; endpoints must be on the grid."""
        tol = 1e-9 * max(1.0, abs(t2 - t1))
        mask = (self.grid >= t1 - tol) & (self.grid <= t2 + tol)
        if mask.sum() < 2:
            raise DomainError(f"[{t1}, {t2}] contains fewer than two grid points")
        idx = np.nonzero(mask)[0]
        if abs(self.grid[idx[0]] - t1) > tol or abs(self.grid[idx[-1]] - t2) > tol:
            raise DomainError(f"[{t1}, {t2}] endpoints must coincide with grid points")
        return FluidPath(
            grid=self.grid[idx],
            degrees=self.degrees,
            zeta0=self.zeta0[idx],
            zetak=self.zetak[idx],
            psi=self.psi[idx],
            tau_markers=dict(self.tau_markers),
            meta=dict(self.meta),
        )

    def check_invariants(self, tol: float = 1e-9) -> None:
        """Raise PreconditionError if a structural invariant fails.

        Checks zeta_k >= 0 and non-increasing, r non-increasing, and, for
        paths whose zeta_0 and psi start within tol of 0, zeta_0 = Gamma(psi)
        on the grid.
        """
        if np.any(self.zetak < -tol):
            raise PreconditionError("zeta_k < 0 on the grid")
        if np.any(np.diff(self.zetak, axis=0) > tol):
            raise PreconditionError("some zeta_k increases along the grid")
        r = self.r()
        if np.any(np.diff(r) > tol):
            raise PreconditionError("r(zeta) increases along the grid")
        if abs(self.zeta0[0]) <= tol and abs(self.psi[0]) <= tol:
            gamma = reflect(self.psi - self.psi[0])
            if np.max(np.abs(gamma - self.zeta0)) > tol:
                raise PreconditionError("zeta_0 deviates from the reflection of psi")
