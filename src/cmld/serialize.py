"""File formats: JSON degree/state inputs, CSV trajectories, JSONL estimates.

Every JSON input passes one reader, which checks only its shape: text that
is not UTF-8 or not JSON, a missing field, a list where a map belongs, a
value that is not a number or a key that does not spell a number in JSON's
grammar, with ASCII digits and leading zeros allowed (``"03"``, ``"3.0"``
and ``"1e0"`` pass; ``"1_0"``, ``" 3 "`` and ``"inf"`` do not), is a
ValueError naming the file.  Degrees and weights are judged by the objects
built from them, through ``core._degree`` and ``core._clean_weights``.

CSV values use 17 significant digits so that every emitted file re-parses
into the originating values exactly.  Trajectory columns are t, zeta_0,
zeta_k for each tracked degree k in the path's order, then psi; the header
names each degree k >= 1 once, in ASCII digits.  A trajectory CSV that is
empty or not UTF-8, has another header, no rows, a ragged row, or a value
that is not a finite number is, like a malformed JSON file, a ValueError
naming the file.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .core import DegreeDistribution, SubProfile
from .estimate import EstimateResult
from .explore import DegreeSequence
from .fluid import FluidPath
from .paths import StatePoint


_NUMBER_KEY = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_DEGREE_COLUMN = re.compile(r"zeta_0*[1-9][0-9]*")  # a positive degree in ASCII digits


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_json(path: str | Path):
    """The JSON value in ``path``, every number in it read as a float."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f, parse_int=float)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: {exc}") from None


def _weights(data, key: str, path: str | Path) -> dict[float, float]:
    """data[key], a map of numbers, with its keys read as the JSON numbers they spell."""
    m = data.get(key) if isinstance(data, dict) else None
    if (isinstance(m, dict) and all(isinstance(v, float) for v in m.values())
            and all(_NUMBER_KEY.fullmatch(k) for k in m)):
        return {float(k): v for k, v in m.items()}
    raise ValueError(f"{path}: expected an object whose '{key}' maps degrees to numbers")


def load_degree_distribution(path: str | Path) -> DegreeDistribution:
    """Read {"degrees": {"k": p_k}} from JSON."""
    return DegreeDistribution(_weights(_read_json(path), "degrees", path))


def load_degree_input(path: str | Path) -> DegreeDistribution | DegreeSequence:
    """A degree file holds either a distribution {"degrees": {...}} or a
    plain JSON array of per-vertex degrees (an explicit sequence)."""
    data = _read_json(path)
    if not isinstance(data, list):
        return DegreeDistribution(_weights(data, "degrees", path))
    if not all(isinstance(d, float) for d in data):
        raise ValueError(f"{path}: expected a degree sequence of numbers only")
    return DegreeSequence(tuple(data))


def load_sub_profile(path: str | Path, reference: DegreeDistribution) -> SubProfile:
    """Sub-profiles share the degree-file schema {"degrees": {...}}."""
    return SubProfile(_weights(_read_json(path), "degrees", path), reference)


def load_state_point(path: str | Path) -> StatePoint:
    """Read {"x0": real, "xk": {"k": x_k}} from JSON."""
    data = _read_json(path)
    xk = _weights(data, "xk", path)  # data is an object from here on
    if not isinstance(data.get("x0"), float):
        raise ValueError(f"{path}: expected an object whose 'x0' is a number")
    return StatePoint(data["x0"], xk)


def fluid_path_to_csv(path_obj: FluidPath, path: str | Path) -> None:
    """Columns t, zeta_0, zeta_k for k in degrees, psi at full double precision."""
    header = ["t", "zeta_0"] + [f"zeta_{k}" for k in path_obj.degrees] + ["psi"]
    data = np.column_stack([path_obj.grid, path_obj.zeta0, path_obj.zetak, path_obj.psi])
    # the bytes of csv.writer rows of _fmt cells: a number needs no quoting
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        f.write("".join([line % tuple(row) for row in data.tolist()]))


def fluid_path_from_csv(path: str | Path) -> FluidPath:
    with open(path, newline="", encoding="utf-8") as f:
        try:
            rows = [row for row in csv.reader(f) if row]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    header = rows[0] if rows else []
    names = header[2:-1]
    degrees = {int(h[5:]) for h in names if _DEGREE_COLUMN.fullmatch(h)}
    if header[:2] != ["t", "zeta_0"] or header[-1:] != ["psi"] or len(degrees) != len(names):
        raise ValueError(f"{path}: not a trajectory CSV")
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: a row of {len(row)} values under {len(header)} columns")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]]).reshape(-1, len(header))
    except ValueError as exc:  # a value that is not a number
        raise ValueError(f"{path}: {exc}") from None
    if len(data) == 0:
        raise ValueError(f"{path}: a header without rows")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: a value that is not finite")
    return FluidPath(
        grid=data[:, 0],
        degrees=tuple(int(h[5:]) for h in names),
        zeta0=data[:, 1],
        zetak=data[:, 2:-1],
        psi=data[:, -1],
    )


def _json(payload: dict, indent: int | None) -> str:
    """The one rule for JSON output: each non-finite float value is written
    as null, since JSON has no Infinity or NaN."""
    clean = {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
             for k, v in payload.items()}
    return json.dumps(clean, indent=indent, allow_nan=False)


def json_text(payload: dict) -> str:
    """``payload`` as the JSON document that stdout and sidecars carry."""
    return _json(payload, 2)


def json_line(payload: dict) -> str:
    """``payload`` as a one-line JSON record, as ``estimate`` prints them."""
    return _json(payload, None)


def write_sidecar(meta: dict, path: str | Path) -> None:
    with open(path, "w") as f:
        f.write(json_text(meta) + "\n")


def estimates_to_csv(results: list[EstimateResult], path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["n", "p_hat", "ci_low", "ci_high", "per_n_rate"])
        for r in results:
            w.writerow([r.n, _fmt(r.p_hat), _fmt(r.ci_low), _fmt(r.ci_high), _fmt(r.per_n_rate)])
