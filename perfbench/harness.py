"""Benchmark plumbing: spans, output checks, metric names, provenance.

Importing this module imports neither numpy nor cmld, so that ``run.py``
can time ``import cmld`` as part of set-up.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("rare-regular", "mixed-sim", "theory")
DEFAULT_SEED = 20240810
HELD_OUT_SEED = 7

# (name, unit, better).  Bounded metrics, reported by every untraced run.
# Times are rescaled to a nominal machine speed (see SpeedClock): on the
# shared 2-core machine this was tuned on, raw pass times drift by 30-50%
# within minutes, far beyond any bound a regression check could use.
END_TO_END = (
    ("norm_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Printed by name in every untraced run but not bounded: the raw times, and
# the workload-scoped figures, which exist on some workloads only (fail_frac
# is 0 when the program is right, and is printed by traced runs too).  The
# per-layer metrics carry the scoped ones as estimate.* and explore.*.
REPORTED = (
    ("wall_s", "s", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("reps_per_s", "1/s", "higher"),
    ("relerr_x_sqrt_cpu_s", "sqrt_s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("fail_frac", "ratio", "lower"),
)

LAYERS = ("core", "lln", "paths", "fluid", "explore", "rng", "estimate", "serialize", "bench")

# Every traced run measures every one of these, each on the workload that
# exercises its layer (``.wide``: the mixed-sim estimate).
PER_LAYER = (
    *((f"estimate.us_per_rep.n{n}", "us", "lower") for n in (12, 16, 20, 24)),
    ("estimate.us_per_rep.wide", "us", "lower"),
    *((f"estimate.hits.n{n}", "count", "higher") for n in (12, 16, 20, 24)),
    ("estimate.hits.wide", "count", "higher"),
    *((f"estimate.hit_ratio.n{n}", "ratio", "higher") for n in (12, 16, 20, 24)),
    ("estimate.hit_ratio.wide", "ratio", "higher"),
    ("estimate.cpu_s", "s", "lower"),
    ("estimate.worker_idle_frac", "ratio", "lower"),
    ("estimate.scaling_eff", "ratio", "higher"),
    ("estimate.pool_overhead_s", "s", "lower"),
    ("estimate.reps_per_s", "1/s", "higher"),
    ("estimate.relerr_x_sqrt_cpu_s", "sqrt_s", "lower"),
    ("estimate.shard_rows", "count", "lower"),
    ("estimate.shard_degrees", "count", "lower"),
    ("estimate.reps_per_s.wide", "1/s", "higher"),
    ("estimate.shard_rows.wide", "count", "lower"),
    ("estimate.shard_degrees.wide", "count", "lower"),
    ("rng.vector_draw_ns", "ns", "lower"),
    ("rng.scalar_draw_ns", "ns", "lower"),
    ("explore.eea_run_s", "s", "lower"),
    ("explore.sample_multigraph_s", "s", "lower"),
    ("explore.empirical_path_ms", "ms", "lower"),
    ("explore.extract_components_ms", "ms", "lower"),
    ("explore.n_steps", "count", "lower"),
    ("explore.steps_per_s", "1/s", "higher"),
    ("lln.lln_path_ms", "ms", "lower"),
    ("lln.lln_path_sub_ms", "ms", "lower"),
    ("core.rate_component_size_s", "s", "lower"),
    ("core.rate_component_size_calls", "count", "lower"),
    ("core.rate_component_degree_us", "us", "lower"),
    ("core.beta_of_q_us", "us", "lower"),
    ("core.K_of_q_us", "us", "lower"),
    ("core.rate_d_regular_subgraph_us", "us", "lower"),
    ("paths.make_segment_spec_us", "us", "lower"),
    ("paths.minimizer_path_ms", "ms", "lower"),
    ("paths.path_cost_ms", "ms", "lower"),
    ("paths.cost_closed_form_us", "us", "lower"),
    ("paths.max_quad_err", "abs", "lower"),
    ("fluid.check_invariants_ms", "ms", "lower"),
    ("serialize.csv_roundtrip_ms", "ms", "lower"),
    ("serialize.csv_bytes", "bytes", "lower"),
    ("mem.peak_rss_mib", "MiB", "lower"),
    ("machine.ref_ms", "ms", "lower"),
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


REF_NOMINAL_S = 0.010  # the reference kernel's time at nominal machine speed
_REF_ARRAYS: list = []


def reference_kernel() -> float:
    """Seconds taken by a fixed computation that uses no cmld code.

    Three parts of about 3 ms each at nominal speed: a pure-Python float
    loop (like the scalar chain and the generating functions), many numpy
    calls on a tiny array (like the optimisers) and arithmetic on a 4 MB
    array (like the lockstep kernel).  A slow machine state slows these
    kinds of work by different factors, so the sum tracks a mixed workload
    better than any one part.
    """
    import numpy as np

    def kernel(small, big) -> None:
        acc, z = 0.0, 0.7
        for i in range(20_000):
            acc += 0.3 * z ** (i % 11) + (i % 7) * 0.5
        for _ in range(1200):
            small = np.minimum(np.sqrt(small * 1.0001 + 1.0), 1e9)
        np.sqrt(big * 1.0001 + 1.0)

    if not _REF_ARRAYS:
        _REF_ARRAYS.extend([np.arange(8, dtype=np.float64),
                            np.arange(500_000, dtype=np.float64)])
        kernel(*_REF_ARRAYS)  # first touch of the temporaries' memory
    t0 = time.perf_counter()
    kernel(*_REF_ARRAYS)
    return time.perf_counter() - t0


class SpeedClock:
    """Times the segments of a pass, each rescaled to nominal machine speed.

    The machine's speed switches every second or so (other tenants share
    its cores), so a reference-kernel sample is taken at every segment
    boundary and each segment is scaled by the mean of the samples on its
    two sides: ``norm = sum(seg * REF_NOMINAL_S / ref)``.  The samples are
    not part of the segment times.
    """

    def __init__(self):
        self.refs: list[float] = []
        self._segs: list[float] = []
        self._pass_refs: list[float] = []
        self._t = 0.0

    def start(self) -> None:
        self._segs = []
        self._pass_refs = [reference_kernel()]
        self._t = time.perf_counter()

    def mark(self) -> None:
        """End the current segment and start the next one."""
        self._segs.append(time.perf_counter() - self._t)
        self._pass_refs.append(reference_kernel())
        self._t = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw seconds, normalised seconds) of the pass."""
        self.mark()
        self.refs.extend(self._pass_refs)
        refs = self._pass_refs
        norm = sum(seg * 2.0 * REF_NOMINAL_S / (a + b)
                   for seg, a, b in zip(self._segs, refs, refs[1:]))
        return sum(self._segs), norm


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans around the benchmark's calls into each cmld module.

    Spans stay in memory; ``run.py`` writes them out once the run ends.  A
    disabled tracer records nothing, so untraced runs pay one function
    call per module call.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.run_id)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s is not None and s.name == name]

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        done = [s for s in self.spans if s is not None]
        covered: dict[int, float] = {}
        for s in done:  # children of one span run one after another
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        out = {layer: 0.0 for layer in LAYERS}
        for s in done:
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - covered.get(s.id, 0.0)
        return out

    def as_records(self) -> list[dict]:
        return [s.__dict__ for s in self.spans if s is not None]


class Checks:
    """Output checks of one run; ``fail_frac`` is failed over attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mib() -> float:
    """Highest RSS of this process and of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def pool_workers() -> tuple[int, int, int]:
    """(workers, nproc, cores in this process's affinity); never more
    workers than cores."""
    nproc = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0))
    return min(nproc, affinity), nproc, affinity


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    """Machine and software fields common to every run record."""
    import numpy
    import scipy

    import cmld

    workers, nproc, cores = pool_workers()
    return {
        "version": cmld.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)),
        "workers": workers,
        "cores_available": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }
