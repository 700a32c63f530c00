"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness as hz
import run

BENCH = json.loads((hz.ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_matches_harness():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(hz.WORKLOADS)
    assert _units("end_to_end") == {m: u for m, u, _ in hz.END_TO_END}
    assert _units("per_layer") == {m: u for m, u, _ in hz.PER_LAYER}
    better = {m["name"]: m["better"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert better == {m: b for m, _, b in hz.END_TO_END + hz.PER_LAYER}


SCOPED = {
    "rare-regular": {"reps_per_s", "relerr_x_sqrt_cpu_s"},
    "mixed-sim": {"reps_per_s", "steps_per_s"},
    "theory": set(),
}


@pytest.mark.parametrize("seed", [hz.DEFAULT_SEED, hz.HELD_OUT_SEED])
@pytest.mark.parametrize("workload", hz.WORKLOADS)
def test_untraced_run_names_every_metric_and_passes_its_checks(workload, seed):
    record = run.run_workload(workload, seed, seconds=0, trace=False, tiny=True)
    result = record["result"]
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["reported"]["fail_frac"]["value"] == 0.0
    units = {m: u for m, u, _ in hz.REPORTED}
    assert ({m: v["unit"] for m, v in record["reported"].items()}
            == {m: units[m] for m in {"wall_s", "setup_raw_s", "fail_frac"} | SCOPED[workload]})
    assert record["seed"] == seed and record["workers"] <= record["cores_available"]


def test_traced_run_measures_every_layer():
    record = run.run_workload("theory", hz.DEFAULT_SEED, seconds=0, trace=True, tiny=True)
    assert record["result"]["failed"] == 0, record["failures"]
    metrics = record["result"]["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == _units("per_layer")
    times = {m for m, v in metrics.items() if v["unit"] in ("s", "ms", "us", "ns")}
    assert all(metrics[m]["value"] > 0 for m in times - {"trace.overhead_s"})
    spans = record["spans"]
    assert all(s["run_id"] == record["run_id"] for s in spans)
    assert {s["name"].split(".", 1)[0] for s in spans} == set(hz.LAYERS)


WRONG = {
    "rare-regular": lambda wl: setattr(wl, "SLOPE_BAND", (0.9, 1.0)),
    "mixed-sim": lambda wl: setattr(wl, "giant", 0.5),
    "theory": lambda wl: setattr(wl, "FROZEN_K", (({1: 0.1, 3: 0.3}, 0.5, 1e-6),)),
}


@pytest.mark.parametrize("workload", hz.WORKLOADS)
def test_wrong_expected_value_raises_fail_frac(workload):
    record = run.run_workload(workload, hz.DEFAULT_SEED, seconds=0, trace=False, tiny=True,
                              tweak=WRONG[workload])
    assert not record["result"]["correct"]
    assert record["reported"]["fail_frac"]["value"] > 0.0


def test_tracer_self_time_subtracts_children():
    tracer = hz.Tracer(True, "t")
    with tracer.span("bench.outer"):
        with tracer.span("core.inner"):
            pass
    spans = {s.name: s for s in tracer.spans}
    self_s = tracer.self_times()
    assert self_s["core"] == pytest.approx(spans["core.inner"].seconds)
    assert self_s["bench"] == pytest.approx(spans["bench.outer"].seconds
                                            - spans["core.inner"].seconds)
    assert spans["core.inner"].parent == spans["bench.outer"].id


def _bench_copy(tmp_path, with_package: bool) -> subprocess.CompletedProcess:
    shutil.copy(hz.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(hz.HERE, tmp_path / "perfbench", ignore=ignore)
    if with_package:
        shutil.copytree(hz.SRC, tmp_path / "src", ignore=ignore)
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mixed-sim",
                           "--seed", "1", "--seconds", "0", "--trace", "0", "--tiny"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)


def test_fails_without_the_package(tmp_path):
    proc = _bench_copy(tmp_path, with_package=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runs_in_a_fresh_checkout(tmp_path):
    proc = _bench_copy(tmp_path, with_package=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
