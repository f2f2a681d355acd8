"""The benchmark's workloads: inputs made from the workload seed, the timed
call into qbclink, and the output checks.

Each workload is a closed loop: one client issues one operation at a time
from one process.  A run derives ``inputs_per_run`` distinct inputs from the
workload seed and cycles through them, so every input is run several times
and its outputs and exact counts must repeat bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from qbclink import cli, mesh, montecarlo
from qbclink.qi import Protocol

INPUTS_PER_RUN = 4

# The acceptance sweep of the README at smaller trial counts per rank point.
# Serially, layer shares at 200 trials match those at 10,000.  The pool's
# fixed cost per rank point (start-up and shutdown) is 14% of a workers=2
# sweep at 200 trials, 2% at 2,000 and 0.6% at 10,000, so the pooled sweep
# runs 2,000, one rank point per operation so that a run still holds enough
# operations for wall_s (see README.md).
ARRAY = 8
RANKS = tuple(range(1, ARRAY + 1))
ETA, NS, NZ = 1e-5, 0.01, 100.0
TRIALS = 200
POOLED_TRIALS = 2000
SWEEP_ARGS = [
    "--channel", "double-rayleigh", "--nt", str(ARRAY), "--nr", str(ARRAY),
    "--eta", repr(ETA), "--ns", repr(NS), "--nz", repr(NZ),
]
PROTOCOLS = (Protocol.PMIMO, Protocol.EMIMO)  # per-rank order of the sweep
SWEEP_FILES = ("sweep_raw.csv", "sweep_summary.csv", "sweep_cdf.csv")

# Sweep seeds are drawn from range(REFERENCE_SEEDS); reference.npy holds the
# first REFERENCE_TRIALS log10 gains of every (seed, rank, protocol).
REFERENCE_SEEDS = 64
REFERENCE_TRIALS = 4
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.npy")
# "A few ulp": log10 gains may differ by this many epsilons (scaled by
# max(1, |value|)), which is a few ulp of the linear gain.
ULPS = 8

# Each dimension contributes about 2,016 couplers: 72 x 28, 4 x 496, 1 x 2016.
MESH_BATCH = ((8, 72), (32, 4), (64, 1))
MESH_RESIDUAL_TOL = 1e-10

ORACLE_TRIALS = 200


@dataclass
class Outcome:
    """Result of one checked operation."""

    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # exact, must repeat per input
    digest: str = ""  # hash of the program's outputs, must repeat per input


def _digest(*blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _close(a, b, ulps=ULPS) -> np.ndarray:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= ulps * np.finfo(float).eps * np.maximum(1.0, np.abs(b))


def _quiet(fn, *args):
    """Call ``fn`` with stdout captured; returns (result, captured text)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        result = fn(*args)
    return result, sink.getvalue()


class Workload:
    name = ""
    workers = 1
    inputs_per_run = INPUTS_PER_RUN

    def __init__(self, seed: int, scratch: str):
        self.rng = np.random.default_rng([0x9BC1, seed])
        self.scratch = scratch
        self.inputs = self.make_inputs()

    def make_inputs(self) -> list:
        raise NotImplementedError

    def prepare(self, settle) -> None:
        """Untimed work a run needs before its first operation; each checked
        output goes to ``settle(index, outcome)``."""

    def reset(self, index: int) -> None:
        """Untimed clean-up before an operation on input ``index``."""

    def run(self, index: int):
        """The timed call into qbclink for input ``index``."""
        raise NotImplementedError

    def check(self, index: int, result) -> Outcome:
        raise NotImplementedError

    def probe(self):
        """``(kind, args)`` for the set-up probe's first, smallest call."""
        raise NotImplementedError


class FadingSweep(Workload):
    """``qbclink sweep`` over double-Rayleigh 8x8, ranks 1..8, to CSV files.
    An input is a (sweep seed, ranks) pair."""

    name = "fading_sweep"
    trials = TRIALS

    def make_inputs(self):
        seeds = self.rng.choice(REFERENCE_SEEDS, size=self.inputs_per_run, replace=False)
        return [(int(s), RANKS) for s in seeds]

    def _outdir(self, index: int, workers: int) -> str:
        return os.path.join(self.scratch, f"sweep-{index}-w{workers}")

    def _argv(self, index: int, workers: int) -> list:
        seed, ranks = self.inputs[index]
        return [
            "sweep", *SWEEP_ARGS, "--ranks", ",".join(map(str, ranks)),
            "--trials", str(self.trials), "--seed", str(seed),
            "--set", f"workers={workers}", "--out", self._outdir(index, workers),
        ]

    def reset(self, index):
        shutil.rmtree(self._outdir(index, self.workers), ignore_errors=True)

    def run(self, index):
        return _quiet(cli.main, self._argv(index, self.workers))

    def check(self, index, result):
        return self._check_sweep(index, result, self._outdir(index, self.workers))

    def _check_sweep(self, index, result, outdir) -> Outcome:
        rc, _ = result
        out = Outcome()
        if rc != 0:
            out.problems.append(f"sweep exit code {rc}")
            return out
        blobs = []
        for name in SWEEP_FILES:
            with open(os.path.join(outdir, name), "rb") as fh:
                blobs.append(fh.read())
        raw, summary, cdf = (b.decode().splitlines() for b in blobs)
        out.digest = _digest(*blobs)
        out.counts = {
            "cli.bytes_written": sum(len(b) for b in blobs),
            "cli.csv_rows": len(raw) + len(summary) + len(cdf) - 3,
        }
        problems = out.problems

        trials = self.trials
        seed, ranks = self.inputs[index]
        blocks = [(r, p) for r in ranks for p in PROTOCOLS]
        if raw[0] != montecarlo.RAW_HEADER or len(raw) != 1 + len(blocks) * trials:
            problems.append(f"raw csv has {len(raw) - 1} rows, want {len(blocks) * trials}")
            return out
        samples = {}
        rows = iter(raw[1:])
        for rank, protocol in blocks:
            values = np.empty(trials)
            for trial in range(trials):
                kind, r, p, t, value = next(rows).split(",")
                if (kind, int(r), p, int(t)) != ("double-rayleigh", rank, protocol.value, trial):
                    problems.append(f"raw row out of order at rank {rank} {protocol.value}")
                    return out
                values[trial] = float(value)
            samples[rank, protocol] = values

        reference = np.load(REFERENCE_FILE)[seed].reshape(len(RANKS), len(PROTOCOLS), -1)
        for rank, protocol in blocks:
            want = reference[RANKS.index(rank), PROTOCOLS.index(protocol)]
            if not _close(samples[rank, protocol][:REFERENCE_TRIALS], want).all():
                problems.append(f"raw samples at rank {rank} {protocol.value} "
                                f"differ from the stored reference")

        if summary[0] != montecarlo.SUMMARY_HEADER or len(summary) != 1 + len(blocks):
            problems.append(f"summary csv has {len(summary) - 1} rows, want {len(blocks)}")
            return out
        if cdf[0] != montecarlo.CDF_HEADER:
            problems.append("cdf csv header changed")
            return out
        steps = {block: ([], []) for block in blocks}
        for line in cdf[1:]:
            r, p, value, prob = line.split(",")
            values, probs = steps.get((int(r), Protocol(p)), ([], []))
            values.append(float(value))
            probs.append(float(prob))

        results = []
        for line, (rank, protocol) in zip(summary[1:], blocks):
            _, r, p, mean_log, stderr, mean_lin = line.split(",")
            logs = samples[rank, protocol]
            if (int(r), p) != (rank, protocol.value):
                problems.append(f"summary row out of order at rank {rank}")
            elif not (_close(float(mean_log), np.mean(logs), ulps=64)
                      and np.isclose(float(mean_lin), np.mean(10.0**logs), rtol=1e-12, atol=0)):
                problems.append(f"summary means at rank {rank} {p} disagree with raw")
            values, counts = np.unique(logs, return_counts=True)
            cdf_values, cdf_probs = (np.array(x) for x in steps[rank, protocol])
            if not (np.array_equal(cdf_values, values)
                    and _close(cdf_probs, np.cumsum(counts) / trials).all()
                    and cdf_probs[-1] == 1.0):
                problems.append(f"cdf at rank {rank} {p} is not the empirical CDF of raw")
            results.append(montecarlo.EnsembleResult(
                rank=rank, protocol=protocol, mean_log_gain=float(mean_log),
                stderr=float(stderr), mean_linear_gain=float(mean_lin),
                stderr_linear=float("nan"), samples=logs,
                cdf=montecarlo.EmpiricalCdf(cdf_values, cdf_probs),
                trials_used=trials, rejected_samples=0,
            ))

        violations = montecarlo.dominance_check(results).total_violations
        if violations:
            problems.append(f"dominance_check found {violations} eigen-below-paired draws")
        return out

    def probe(self):
        return "cli", ["sweep", *SWEEP_ARGS, "--trials", "1", "--ranks", "1", "--seed", "0"]


class FadingSweepW2(FadingSweep):
    """The same sweep through montecarlo's process pool with two workers, at
    the larger trial count and one rank point per operation: a cycle of the
    inputs covers ranks 1..8, each at its own sweep seed."""

    name = "fading_sweep_w2"
    workers = 2
    trials = POOLED_TRIALS
    inputs_per_run = len(RANKS)

    def make_inputs(self):
        seeds = self.rng.choice(REFERENCE_SEEDS, size=self.inputs_per_run, replace=False)
        return [(int(s), (rank,)) for s, rank in zip(seeds, RANKS)]

    def prepare(self, settle):
        # serial outputs at the same seeds, for the byte-identity check
        self.serial = []
        for index in range(len(self.inputs)):
            outdir = self._outdir(index, 1)
            shutil.rmtree(outdir, ignore_errors=True)
            outcome = self._check_sweep(index, _quiet(cli.main, self._argv(index, 1)), outdir)
            settle(index, outcome)
            self.serial.append(outcome.digest)

    def check(self, index, result):
        out = super().check(index, result)
        if out.digest != self.serial[index]:
            out.problems.append("workers=2 CSV bytes differ from the serial run")
        return out


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


class MeshRoundtrip(Workload):
    """Haar unitaries through clements_decompose -> mesh_to_text ->
    mesh_from_text -> reconstruct."""

    name = "mesh_roundtrip"

    def make_inputs(self):
        return [
            [haar_unitary(self.rng, n) for n, count in MESH_BATCH for _ in range(count)]
            for _ in range(self.inputs_per_run)
        ]

    def run(self, index):
        done = []
        for u in self.inputs[index]:
            text = mesh.mesh_to_text(mesh.clements_decompose(u))
            parsed = mesh.mesh_from_text(text)
            done.append((text, parsed, mesh.reconstruct(parsed)))
        return done

    def check(self, index, result):
        out = Outcome()
        if len(result) != len(self.inputs[index]):
            out.problems.append(f"{len(result)} meshes for {len(self.inputs[index])} unitaries")
        elements = 0
        for u, (text, parsed, rebuilt) in zip(self.inputs[index], result):
            n = u.shape[0]
            elements += len(parsed.elements)
            if len(parsed.elements) != n * (n - 1) // 2:
                out.problems.append(f"N={n} mesh has {len(parsed.elements)} elements")
            residual = float(np.max(np.abs(rebuilt - u)))
            if not residual <= MESH_RESIDUAL_TOL:
                out.problems.append(f"N={n} round-trip residual {residual:.3e}")
        texts = [text.encode() for text, _, _ in result]
        out.digest = _digest(*texts)
        out.counts = {"mesh.elements": elements, "mesh.text_bytes": sum(map(len, texts))}
        return out

    def probe(self):
        return "mesh", [8]


class OracleCheck(Workload):
    """``qbclink oracle`` on random channels with n in [1, 8]."""

    name = "oracle_check"

    def make_inputs(self):
        return [int(s) for s in self.rng.integers(0, 2**31, size=self.inputs_per_run)]

    def run(self, index):
        argv = ["oracle", "--trials", str(ORACLE_TRIALS), "--seed", str(self.inputs[index])]
        return _quiet(cli.main, argv)

    def check(self, index, result):
        rc, stdout = result
        out = Outcome(digest=_digest(stdout.encode()), counts={"cli.stdout_bytes": len(stdout)})
        lines = stdout.splitlines()
        if rc != 0 or not lines or lines[-1] != "ok,true":
            out.problems.append(f"oracle exit {rc}, last line {lines[-1:]!r}")
        return out

    def probe(self):
        return "cli", ["oracle", "--trials", "1", "--seed", "0"]


WORKLOADS = {w.name: w for w in (FadingSweep, FadingSweepW2, MeshRoundtrip, OracleCheck)}
