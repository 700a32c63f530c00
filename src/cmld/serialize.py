"""File formats: JSON degree/state inputs, CSV trajectories, JSONL estimates.

CSV values use 17 significant digits so that every emitted file re-parses
into the originating values exactly.  Trajectory columns are t, zeta_0,
zeta_k for each tracked degree k in the path's order, then psi; the header
names the tracked degrees.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .core import DegreeDistribution, SubProfile
from .errors import DomainError
from .estimate import EstimateResult
from .explore import DegreeSequence
from .fluid import FluidPath
from .paths import StatePoint


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _degree_weights(data, path: str | Path) -> dict[int, float]:
    """The {k: w_k} map of a parsed {"degrees": {"k": w_k}} object."""
    if not isinstance(data, dict) or "degrees" not in data:
        raise DomainError(f"{path}: expected an object with a 'degrees' map")
    return {int(k): float(v) for k, v in data["degrees"].items()}


def load_degree_distribution(path: str | Path) -> DegreeDistribution:
    """Read {"degrees": {"k": p_k}} from JSON."""
    with open(path) as f:
        return DegreeDistribution(_degree_weights(json.load(f), path))


def load_degree_input(path: str | Path) -> DegreeDistribution | DegreeSequence:
    """A degree file holds either a distribution {"degrees": {...}} or a
    plain JSON array of per-vertex degrees (an explicit sequence)."""
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, list):
        return DegreeSequence(tuple(data))
    return DegreeDistribution(_degree_weights(data, path))


def load_sub_profile(path: str | Path, reference: DegreeDistribution) -> SubProfile:
    """Sub-profiles share the degree-file schema {"degrees": {...}}."""
    with open(path) as f:
        return SubProfile(_degree_weights(json.load(f), path), reference)


def load_state_point(path: str | Path) -> StatePoint:
    """Read {"x0": real, "xk": {"k": x_k}} from JSON."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or "x0" not in data or "xk" not in data:
        raise DomainError(f"{path}: expected an object with 'x0' and 'xk'")
    return StatePoint(float(data["x0"]), {int(k): float(v) for k, v in data["xk"].items()})


def fluid_path_to_csv(path_obj: FluidPath, path: str | Path) -> None:
    """Columns t, zeta_0, zeta_k for k in degrees, psi at full double precision."""
    header = ["t", "zeta_0"] + [f"zeta_{k}" for k in path_obj.degrees] + ["psi"]
    data = np.column_stack([path_obj.grid, path_obj.zeta0, path_obj.zetak, path_obj.psi])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([_fmt(x) for x in row] for row in data)


def fluid_path_from_csv(path: str | Path) -> FluidPath:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader if row]
    names = header[2:-1]
    if (header[:2] != ["t", "zeta_0"] or header[-1] != "psi"
            or not all(h.startswith("zeta_") and h[5:].isdecimal() for h in names)):
        raise DomainError(f"{path}: not a trajectory CSV")
    data = np.array(rows).reshape(-1, len(header))
    return FluidPath(
        grid=data[:, 0],
        degrees=tuple(int(h[5:]) for h in names),
        zeta0=data[:, 1],
        zetak=data[:, 2:-1],
        psi=data[:, -1],
    )


def write_sidecar(meta: dict, path: str | Path) -> None:
    clean = {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
             for k, v in meta.items()}
    with open(path, "w") as f:
        json.dump(clean, f, indent=2)
        f.write("\n")


def estimate_to_json_line(res: EstimateResult) -> str:
    return json.dumps(res.as_dict())


def estimates_to_csv(results: list[EstimateResult], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "p_hat", "ci_low", "ci_high", "per_n_rate"])
        for r in results:
            rate = _fmt(r.per_n_rate) if np.isfinite(r.per_n_rate) else "inf"
            w.writerow([r.n, _fmt(r.p_hat), _fmt(r.ci_low), _fmt(r.ci_high), rate])
