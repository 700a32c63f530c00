#!/usr/bin/env python3
"""Run one cmld benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rare-regular --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # the three workloads in turn

Run from the repository root; the package is imported from ``src/``.

A run sets up (``import cmld``, inputs, one untimed warm-up call), then
repeats passes of the workload until ``--seconds`` would be exceeded, and
checks every pass's outputs.  With ``--trace 0`` it reports the bounded
end-to-end metrics: the median pass time and the median of
``SETUP_SAMPLES`` set-ups (the others in fresh interpreters), both
rescaled to nominal machine speed (``harness.SpeedClock``), and the peak
RSS.  With ``--trace 1`` it reports the per-layer metrics instead: it
runs all three workloads, alternating untraced and traced passes, so that
every layer is measured on the workload that exercises it.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it name every metric, the raw and workload-scoped ones too, and the
run's provenance.  A full record, spans included, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as hz  # noqa: E402  (stdlib only: keeps import cmld inside the set-up timer)

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _load_workloads():
    if not (hz.SRC / "cmld" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cmld package under {hz.SRC}; run from a full checkout")
    sys.path.insert(0, str(hz.SRC))
    import workloads

    return workloads


def set_up(name: str, seed: int, tiny: bool, tracer: hz.Tracer, checks: hz.Checks,
           clock: hz.SpeedClock):
    """Import cmld, build the inputs and make the warm-up call.

    Returns the workload and the set-up time, raw and rescaled to nominal
    machine speed by reference-kernel samples taken right after it.
    """
    t0 = time.perf_counter()
    wl = _load_workloads().make(name, seed, tracer, checks, clock, tiny)
    wl.warm_up()
    raw = time.perf_counter() - t0
    refs = [hz.reference_kernel() for _ in range(2)]
    return wl, {"raw": raw, "norm": raw * hz.REF_NOMINAL_S / hz.median(refs)}


def _child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          cwd=hz.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench child {args} failed:\n{proc.stderr}")
    return proc.stdout


def setup_in_fresh_interpreter(name: str, seed: int, tiny: bool) -> dict:
    out = _child(["--workload", name, "--seed", str(seed), "--setup-probe"]
                 + (["--tiny"] if tiny else []))
    return json.loads(out.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_passes(wl, tracer: hz.Tracer, clock: hz.SpeedClock, seconds: float,
                trace: bool) -> tuple[list[dict], dict, dict]:
    """Passes until ``seconds`` would be exceeded; traced runs alternate
    untraced and traced passes.  Returns the passes and their raw and
    rescaled times, keyed by whether the pass was traced."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    norm_walls: dict[bool, list[float]] = {False: [], True: []}
    passes: list[dict] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        tracer.enabled = traced
        gc.collect()  # every pass starts from the same collector state
        t0 = time.perf_counter()
        clock.start()
        with tracer.span("bench.pass"):
            passes.append(wl.run_pass(i))
        raw, norm = clock.stop()
        walls[traced].append(raw)
        norm_walls[traced].append(norm)
        i += 1
        if (i >= (2 if trace else 1)
                and time.perf_counter() - start + time.perf_counter() - t0 > seconds):
            break
    return passes, walls, norm_walls


def _per_layer(name: str, seed: int, seconds: float, tiny: bool, checks: hz.Checks,
               run_id: str, tweak) -> tuple[dict, list[dict]]:
    """Every per-layer metric, and the spans.

    Each layer is measured on the workload that exercises it, so a traced
    run runs all three workloads, each for a third of ``seconds``, whichever
    one it was asked for; ``tweak`` applies to that one.
    """
    layer: dict[str, float] = {}
    self_s = dict.fromkeys(hz.LAYERS, 0.0)
    spans: list[dict] = []
    refs: list[float] = []
    traced_wall = overhead = 0.0
    for w in hz.WORKLOADS:
        tracer, clock = hz.Tracer(False, run_id), hz.SpeedClock()
        wl, _ = set_up(w, seed, tiny, tracer, checks, clock)
        if tweak is not None and w == name:
            tweak(wl)
        passes, walls, norm_walls = _run_passes(wl, tracer, clock,
                                                seconds / len(hz.WORKLOADS), trace=True)
        tracer.enabled = True
        found = {**wl.layer_metrics(passes), **wl.probes()}
        clash = set(found) & set(layer)
        if clash:
            raise KeyError(f"per-layer metrics measured twice: {sorted(clash)}")
        layer.update(found)
        for k, v in tracer.self_times().items():
            self_s[k] += v
        traced_wall += hz.median(walls[True])
        overhead += hz.median(norm_walls[True]) - hz.median(norm_walls[False])
        spans += tracer.as_records()
        refs += clock.refs
    layer["mem.peak_rss_mib"] = hz.peak_rss_mib()
    layer["machine.ref_ms"] = hz.median(refs) * 1e3
    layer.update({f"self_s.{k}": v for k, v in self_s.items()})
    layer["trace.wall_s"] = traced_wall
    layer["trace.overhead_s"] = overhead
    layer["trace.spans"] = len(spans)
    unknown = set(layer) - {m for m, _, _ in hz.PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from harness.PER_LAYER: {sorted(unknown)}")
    return {m: _metric(layer[m], unit) for m, unit, _ in hz.PER_LAYER}, spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 tweak=None) -> dict:
    """One benchmark run; returns the result line plus the run record.

    ``tweak`` is applied to the workload after set-up (the self-test uses it
    to give a check a wrong expected value).
    """
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    checks = hz.Checks()
    if trace:
        metrics, spans = _per_layer(name, seed, seconds, tiny, checks, run_id, tweak)
        record = {"workload": name, "trace": 1, "run_id": run_id, **hz.provenance(seed),
                  "reported": {}, "spans": spans}
    else:
        tracer, clock = hz.Tracer(False, run_id), hz.SpeedClock()
        wl, setup_main = set_up(name, seed, tiny, tracer, checks, clock)
        if tweak is not None:
            tweak(wl)
        passes, walls, norm_walls = _run_passes(wl, tracer, clock, seconds, trace=False)
        rss = hz.peak_rss_mib()  # before the set-up probes, which are children too
        setups = [setup_main] + [setup_in_fresh_interpreter(name, seed, tiny)
                                 for _ in range(SETUP_SAMPLES - 1)]
        values = {"norm_wall_s": hz.median(norm_walls[False]),
                  "setup_s": hz.median([s["norm"] for s in setups]), "peak_rss_mib": rss}
        metrics = {m: _metric(values[m], unit) for m, unit, _ in hz.END_TO_END}
        reported = {"wall_s": hz.median(walls[False]),
                    "setup_raw_s": hz.median([s["raw"] for s in setups]),
                    **wl.scoped(passes)}
        record = {"workload": name, "trace": 0, "run_id": run_id, **hz.provenance(seed),
                  "params": wl.params(), "passes": len(passes),
                  "pass_wall_s": walls[False], "pass_norm_wall_s": norm_walls[False],
                  "ref_s": clock.refs, "setup_s": setups, **wl.provenance_extra(passes),
                  "reported": reported}
    record["reported"]["fail_frac"] = checks.fail_frac
    record["reported"] = {m: _metric(record["reported"][m], unit)
                          for m, unit, _ in hz.REPORTED if m in record["reported"]}
    record["failures"] = checks.failures
    record["result"] = {"correct": checks.failed == 0, "attempted": checks.attempted,
                        "failed": checks.failed, "metrics": metrics}
    return record


def write_record(record: dict) -> Path:
    hz.OUT.mkdir(exist_ok=True)
    path = hz.OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def print_run(record: dict) -> None:
    name = record["workload"]
    rows = {**record["reported"], **record["result"]["metrics"]}
    for metric, m in rows.items():
        print(f"{name:<13} {metric:<32} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"{name:<13} FAILED {failure}")
    prov = {k: record[k] for k in ("seed", "version", "git_commit", "cpu_model", "nproc",
                                   "affinity", "workers", "cores_available", "python",
                                   "numpy", "scipy", "params", "passes") if k in record}
    print("provenance " + json.dumps(prov, default=str))


def run_all(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Every workload in a fresh interpreter; one combined result line.

    One traced run already covers all three workloads."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in hz.WORKLOADS[:1] if trace else hz.WORKLOADS:
        out = _child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace))] + (["--tiny"] if tiny else []))
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*hz.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=hz.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print it and exit (used by a run)")
    args = ap.parse_args(argv)

    if args.setup_probe:
        _, setup_s = set_up(args.workload, args.seed, args.tiny,
                            hz.Tracer(False, "setup-probe"), hz.Checks(), hz.SpeedClock())
        print(json.dumps(setup_s))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.tiny)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.tiny)
        write_record(record)
        print_run(record)
        result = record["result"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
