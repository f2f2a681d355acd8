"""qbclink benchmark: one workload, checked outputs, metrics as one JSON line.

    python3 bench/run.py --workload fading_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it runs the
same operations untraced and then traced, and reports the per-layer metrics.
Every metric is also printed on its own line with its unit.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 16
# wall_s and setup_s are scaled to a host on which the calibration kernel
# takes this long (see README.md)
CALIBRATION_S = 0.015
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# (module, function, span name or a function of the call's arguments)
TRACED = [
    ("qbclink.channel", "decompose_channel", "channel.decompose_channel"),
    ("qbclink.channel", "sample_double_rayleigh", "channel.sample_double_rayleigh"),
    ("qbclink.rng", "substream", "rng.substream"),
    ("qbclink.qi", "pmimo_snr", "qi.pmimo_snr"),
    ("qbclink.qi", "pmimo_interference", "qi.pmimo_interference"),
    ("qbclink.qi", "emimo_snr", "qi.emimo_snr"),
    ("qbclink.montecarlo", "run_rank_sweep", "montecarlo.run_rank_sweep"),
    ("qbclink.montecarlo", "empirical_cdf", "montecarlo.empirical_cdf"),
    ("qbclink.montecarlo", "raw_csv_lines", "montecarlo.csv_lines"),
    ("qbclink.montecarlo", "summary_csv_lines", "montecarlo.csv_lines"),
    ("qbclink.montecarlo", "cdf_csv_lines", "montecarlo.csv_lines"),
    ("qbclink.mesh", "clements_decompose",
     lambda u, *a, **k: f"mesh.clements_decompose.n{len(u)}"),
    ("qbclink.mesh", "reconstruct", lambda m: f"mesh.reconstruct.n{m.dimension}"),
    ("qbclink.mesh", "mesh_to_text", "mesh.text"),
    ("qbclink.mesh", "mesh_from_text", "mesh.text"),
    ("qbclink.gaussian", "propagate", "gaussian.propagate"),
    ("qbclink.gaussian", "emimo_setup", "gaussian.emimo_setup"),
    ("qbclink.gaussian", "pmimo_setup", "gaussian.pmimo_setup"),
    ("qbclink.io", "parse_scalar", "io"),
    ("qbclink.io", "load_config", "io"),
    ("qbclink.io", "read_matrix", "io"),
    ("qbclink.io", "write_matrix", "io"),
    ("qbclink.cli", "main", "cli.main"),
    ("qbclink.cli", "run_oracle_checks", "cli.run_oracle_checks"),
]
ROOT_SPAN = "bench.op"

# per-layer metric -> span whose self seconds per operation it reports
SELF_TIMES = {
    "channel.decompose_channel.self_s": "channel.decompose_channel",
    "channel.sample_double_rayleigh.self_s": "channel.sample_double_rayleigh",
    "rng.substream.self_s": "rng.substream",
    "qi.pmimo_snr.self_s": "qi.pmimo_snr",
    "qi.pmimo_interference.self_s": "qi.pmimo_interference",
    "qi.emimo_snr.self_s": "qi.emimo_snr",
    "montecarlo.run_rank_sweep.self_s": "montecarlo.run_rank_sweep",
    "montecarlo.empirical_cdf.self_s": "montecarlo.empirical_cdf",
    "montecarlo.csv_lines.self_s": "montecarlo.csv_lines",
    "montecarlo.pool_startup_s": "montecarlo.pool_startup",
    "montecarlo.pool_map_s": "montecarlo.pool_map",
    "montecarlo.pool_shutdown_s": "montecarlo.pool_shutdown",
    **{f"mesh.{fn}.self_s.n{n}": f"mesh.{fn}.n{n}"
       for fn in ("clements_decompose", "reconstruct") for n in (8, 32, 64)},
    "mesh.text.self_s": "mesh.text",
    "gaussian.propagate.self_s": "gaussian.propagate",
    "gaussian.emimo_setup.self_s": "gaussian.emimo_setup",
    "gaussian.pmimo_setup.self_s": "gaussian.pmimo_setup",
    "io.self_s": "io",
    "cli.main.self_s": "cli.main",
    "cli.run_oracle_checks.self_s": "cli.run_oracle_checks",
}
# per-layer metric -> span (or spans) whose calls it counts over one cycle of
# the inputs
CALL_COUNTS = {
    "rng.substream.calls": "rng.substream",
    "channel.decompose_channel.calls": "channel.decompose_channel",
    "channel.sample_double_rayleigh.calls": "channel.sample_double_rayleigh",
    "qi.pmimo_interference.calls": "qi.pmimo_interference",
    "mesh.reconstruct.calls": tuple(f"mesh.reconstruct.n{n}" for n in (8, 32, 64)),
    "gaussian.propagate.calls": "gaussian.propagate",
}
# per-layer metric -> unit, for checked output counts summed over one cycle of
# the inputs
OUTPUT_COUNTS = {"cli.bytes_written": "bytes", "cli.csv_rows": "count", "mesh.elements": "count"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "qbclink" / "__init__.py").is_file():
        fail(f"no qbclink sources under {SRC}; run from a qbclink checkout")
    sys.path.insert(0, str(SRC))
    import qbclink

    if Path(qbclink.__file__).resolve().parent != SRC / "qbclink":
        fail(f"imported qbclink from {qbclink.__file__}, not from {SRC}")


class Ledger:
    """Counts checked operations and requires every repetition of an input to
    reproduce its first outputs and exact counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = {}  # (input index, kind) -> first value seen

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)

    def settle(self, index, outcome, calls=None) -> None:
        problems = list(outcome.problems)
        for kind, value in (("outputs", (outcome.digest, outcome.counts)), ("calls", calls)):
            if value is not None and self.first.setdefault((index, kind), value) != value:
                problems.append(f"{kind} of input {index} differ from its first run")
        self.record(problems)


def run_ops(workload, ledger, n_ops, tracer=None, first=0):
    """Run ``n_ops`` operations, cycling through the inputs from ``first``.
    Returns the checked operations' times, the time of all of them, and, when
    traced, summed self seconds and the first cycle's call counts."""
    cycle = len(workload.inputs)
    times, elapsed, self_s, cycle_calls = [], 0.0, defaultdict(float), Counter()
    for i in range(n_ops):
        index = (first + i) % cycle
        workload.reset(index)
        if tracer:
            tracer.active = True
            root = tracer.begin(ROOT_SPAN)
        start = time.perf_counter()
        try:
            result = workload.run(index)
        except Exception:
            traceback.print_exc()
            result = None
        took = time.perf_counter() - start
        elapsed += took
        if tracer:
            tracer.end(root)
            tracer.active = False
            op_self, op_calls = tracer.take()
        if result is None:
            ledger.record(["operation raised"])
            continue
        try:
            outcome = workload.check(index, result)
        except Exception:
            traceback.print_exc()
            ledger.record(["output check raised"])
            continue
        times.append(took)
        ledger.settle(index, outcome, dict(op_calls) if tracer else None)
        if tracer:
            for name, value in op_self.items():
                self_s[name] += value
            if i < cycle:
                cycle_calls.update(op_calls)
    return times, elapsed, self_s, cycle_calls


def run_cycles(workload, ledger, seconds, after_op=None):
    """Run whole cycles of the inputs until ``seconds`` of operation time, or
    until four times that in wall time when operations fail fast.
    ``after_op(elapsed, op_times)`` runs untimed after every operation."""
    times, elapsed = [], 0.0
    deadline = time.monotonic() + 4.0 * seconds
    while elapsed < seconds and time.monotonic() < deadline:
        for index in range(len(workload.inputs)):
            op_times, took, _, _ = run_ops(workload, ledger, 1, first=index)
            times += op_times
            elapsed += took
            if after_op:
                after_op(elapsed, op_times)
    return times


class Calibration:
    """Times each sample against a fixed kernel run just before and just
    after it.  The kernel is interpreted Python and small LAPACK calls, like
    qbclink's hot paths, but it calls nothing in qbclink: a change to the
    program leaves its time alone, while the host's speed moves it."""

    def __init__(self):
        import numpy

        self.np = numpy
        self.matrices = numpy.random.default_rng(0).standard_normal((150, 8, 8))
        self.kernel_s = []
        self.ratios = defaultdict(list)
        self.last = self.kernel()

    def kernel(self) -> float:
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i
        for m in self.matrices:
            np.linalg.svd(m)
            np.linalg.eigvalsh(m @ m.T)
            np.linalg.inv(m + 8.0 * np.eye(8))
        took = time.perf_counter() - start
        self.kernel_s.append(took)
        return took

    def add(self, kind: str, seconds: float) -> None:
        now = self.kernel()
        self.ratios[kind].append(seconds / (0.5 * (self.last + now)))
        self.last = now

    def scaled(self, kind: str) -> float:
        """The median ``kind`` sample, in seconds at the reference host speed."""
        return CALIBRATION_S * statistics.median(self.ratios[kind])


def probe_setup(workload) -> float:
    """Seconds from spawning a fresh interpreter to the return of the
    workload's first, smallest call into qbclink."""
    kind, args = workload.probe()
    cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), kind, json.dumps(args)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1]) - start


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def end_to_end(workload, ledger, seconds) -> dict:
    # children reaped before this process exec'd the interpreter, such as
    # those of a launcher script
    inherited_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not ledger.attempted:  # warm-up, unless prepare() ran one: lazy imports, LAPACK
        run_ops(workload, ledger, 1)

    # Set-up probes are spread evenly over the operations, so they sample the
    # host's slow and fast stretches like the operations do.  The pool
    # workers of the first operations are reaped before the first probe or
    # git starts, so the reaped children's peak RSS then is a worker's if it
    # exceeds inherited_kb.  (A probe or git would report this process's
    # peak: subprocess starts them with vfork, and exec records the peak of
    # the memory it leaves.)
    calibration, setup, worker_kb = Calibration(), [], []

    def after_op(elapsed, op_times):
        for took in op_times:
            calibration.add("op", took)
        if not worker_kb:
            worker_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
            setup.append(probe_setup(workload))
            calibration.add("setup", setup[-1])

    times = run_cycles(workload, ledger, seconds, after_op=after_op)
    after_op(seconds, [])
    if len(times) < 2:
        fail("fewer than two operations completed")
    for name, samples in (("ops", times), ("setup", setup),
                          ("calibration", calibration.kernel_s)):
        deciles = statistics.quantiles(samples, n=10)
        print(f"{name},{len(samples)},p10_s,{deciles[0]!r},"
              f"median_s,{statistics.median(samples)!r},p90_s,{deciles[-1]!r}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"rss_kb,self,{peak_kb},reaped_children,{worker_kb[0]},inherited,{inherited_kb}")
    if workload.workers > 1:  # forked pool workers, each at most its own peak
        if worker_kb[0] <= inherited_kb:
            fail("the reaped children's peak RSS is not a pool worker's")
        peak_kb += workload.workers * worker_kb[0]
    return {
        "wall_s": (calibration.scaled("op"), "s"),
        "setup_s": (calibration.scaled("setup"), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(workload, ledger, seconds) -> dict:
    run_ops(workload, ledger, 1)
    plain = run_cycles(workload, ledger, seconds / 2.0)
    tracer = Tracer()
    tracer.install(TRACED)
    try:
        traced, _, self_s, calls = run_ops(workload, ledger, len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    if n == 0 or n != len(plain):
        fail("traced operations failed")

    metrics = {name: (self_s[span] / n, "s") for name, span in SELF_TIMES.items()}
    for name, spans in CALL_COUNTS.items():
        spans = (spans,) if isinstance(spans, str) else spans
        metrics[name] = (sum(calls[span] for span in spans), "count")
    attempts = calls["channel.sample_double_rayleigh>rng.substream"]
    accepted = calls["channel.sample_double_rayleigh"]
    metrics["channel.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    cycle_counts = Counter()
    for (_, kind), value in ledger.first.items():
        if kind == "outputs":
            cycle_counts.update(value[1])
    for name, unit in OUTPUT_COUNTS.items():
        metrics[name] = (cycle_counts[name], unit)
    traced_wall = sum(traced) / n
    metrics["tracing.traced_wall_s"] = (traced_wall, "s")
    metrics["tracing.overhead_s"] = (traced_wall - sum(plain) / n, "s")
    unattributed = self_s[ROOT_SPAN] / n
    metrics["tracing.unattributed_s"] = (unattributed, "s")
    if unattributed > 0.01 * traced_wall:
        ledger.record([f"spans leave {unattributed!r} s of {traced_wall!r} s per "
                       f"operation unattributed"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    cpus = os.cpu_count() or 1
    if cls.workers > cpus:
        print(f"skipped,{args.workload} needs workers={cls.workers} "
              f"but os.cpu_count()={cpus}")
        return 3

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        workload = cls(args.seed, scratch)
        ledger = Ledger()
        workload.prepare(ledger.settle)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, ledger, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            out_root.rmdir()

    # printed after the measurement, which reads the pool workers' peak RSS
    # before any other child (git here) has run
    print("provenance," + json.dumps(provenance(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric,{name},{value!r},{unit}")
    print(f"failed_ops_frac,{ledger.failed / ledger.attempted!r}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
