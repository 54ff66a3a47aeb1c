"""Benchmark of the carta command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  The seed generates the workload's inputs (sizes are fixed), then
the CLI runs in fresh child processes one after another (closed loop, one
client) until ``--seconds`` is used up.  Every run's outputs are checked;
a run fails on a non-zero exit or a failed check.

``--trace 0`` reports the end-to-end metrics as medians over runs: the
wall time of a run relative to a reference computation timed around it
(``run_ref``), interpreter set-up time and peak memory.
``--trace 1`` alternates untraced and traced runs and reports per-layer
metrics from the traced ones (see tracer.py) plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric's quartiles and a provenance record (output hashes, git SHA,
``src/carta`` line count, thread cap).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, Case, Workload, report_fields

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "carta"
WORK = ROOT / ".bench_work"

END_TO_END = {"run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# printed and recorded with their quartiles, but not gated
INFORMATIONAL = {"run_s": "s", "reference_s": "s", "traced.run_s": "s", "oracle_err": "1"}
MIN_ROUNDS = 2  # rounds of runs made even if --seconds is used up sooner
THREAD_CAP = 1  # single-threaded BLAS/OpenMP: at most nproc, and no idle pool to start
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# one invocation must end within 180 s even if a child hangs
TIME_LIMIT_S = 160.0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in THREAD_VARS:
        env[name] = str(THREAD_CAP)
    return env


def launch(
    workdir: Path, argv: list[str], traced: bool, tag: str, timeout: float = TIME_LIMIT_S
) -> dict | None:
    """One CLI run in a fresh interpreter; None when it left no record.

    Raises subprocess.TimeoutExpired after killing a child that overran.
    """
    result = workdir / f"child-{tag}.json"
    result.unlink(missing_ok=True)
    with open(workdir / f"stdout-{tag}.txt", "wb") as out, open(
        workdir / f"stderr-{tag}.txt", "wb"
    ) as err:
        launched = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(result), "1" if traced else "0", *argv],
            stdout=out, stderr=err, env=_child_env(), cwd=workdir,
            timeout=max(timeout, 1.0),
        )
    if not result.exists():
        return None
    record = json.loads(result.read_text())
    if Path(record["carta_file"]).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"child imported carta from {record['carta_file']}, not {PACKAGE}")
    record["setup_s"] = record["import_done"] - launched
    record["returncode"] = proc.returncode
    return record


def _sha256(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def reference_s() -> float:
    """Wall time of a fixed computation that does not use carta.

    It mixes what the CLI spends its time on: interpreted arithmetic,
    float formatting, JSON and numpy scalar operations.  Timed next to every
    untraced run, it tracks how fast this machine is at that moment.  The
    garbage collector is paused so the parent's own heap does not add noise.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for k in range(450_000):
            total += k * k
        rows = [[i * 0.5, math.sin(i)] for i in range(60_000)]
        ", ".join(format(v, ".15g") for row in rows for v in row)
        json.loads(json.dumps({"rows": rows}))
        p, q = np.array([0.3, 0.7]), np.array([1.1, -0.4])
        for _ in range(22_000):
            (p - q)[0] * q[1] - (p - q)[1] * q[0]
        return time.perf_counter() - start
    finally:
        gc.enable()


class Measurement:
    """Runs of one workload instance, their checks and their samples."""

    def __init__(self, workload: Workload, case: Case, workdir: Path, deadline: float):
        self.workload, self.case, self.workdir = workload, case, workdir
        self.deadline = deadline  # time.monotonic() by which every child has ended
        self.attempted = self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.failures: list[dict] = []
        # output hashes and check results of the first run that exited 0
        self.baseline: tuple[dict, dict] | None = None
        self.checks: dict = {}  # the baseline's, or those of the first failed run

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def run(self, traced: bool) -> None:
        for path in self.case.outputs.values():
            Path(path).unlink(missing_ok=True)
        self.attempted += 1
        tag = f"{self.attempted}"
        before = None if traced else reference_s()
        try:
            record = launch(
                self.workdir, self.case.argv, traced, tag, self.deadline - time.monotonic()
            )
        except subprocess.TimeoutExpired:
            record = None
        after = None if traced else reference_s()
        ok, checks = self._check(record)
        if not ok:
            if not self.failures:
                self.checks = checks
            self.failed += 1
            stderr = (self.workdir / f"stderr-{tag}.txt").read_text(errors="replace")
            self.failures.append({
                "run": self.attempted,
                "returncode": record["returncode"] if record else None,
                "checks": {k: v for k, v in checks.items() if not v[0]},
                "stderr": stderr[-2000:],
            })
        if record is None or record["run_s"] is None:
            return
        if traced:
            self.add("traced.run_s", record["run_s"])
            for name, value in layer_metrics(record["trace"]).items():
                self.add(name, value)
        else:
            reference = (before + after) / 2.0
            self.add("run_s", record["run_s"])
            self.add("reference_s", reference)
            self.add("run_ref", record["run_s"] / reference)
            self.add("setup_s", record["setup_s"])
            self.add("peak_rss_mb", record["peak_rss_mb"])
        if ok and self.workload.oracle_err:
            self.add("oracle_err", self.workload.oracle_err(self.case))

    def _check(self, record: dict | None) -> tuple[bool, dict]:
        hashes = {role: _sha256(p) for role, p in self.case.outputs.items()}
        if record is None or record["returncode"] != 0:
            checks = {}
        elif self.baseline and hashes == self.baseline[0]:
            checks = dict(self.baseline[1])  # the same bytes pass the same checks
        else:
            checks = self.workload.check(self.case)
            if self.baseline is None:
                self.baseline = (hashes, dict(checks))
                self.checks = checks
        if self.baseline:
            checks["outputs-deterministic"] = (hashes == self.baseline[0], None)
        ok = record is not None and record["returncode"] == 0 and all(
            passed for passed, _ in checks.values()
        )
        return ok, checks


def measure(workload: str, seed: int, seconds: float, traced: bool, scale: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = WORKLOADS[workload]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        case = spec.make(seed, str(workdir), scale)
        try:  # byte-compiles on a fresh checkout, so that is not timed
            launch(workdir, [], False, "warmup", deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            pass  # the timed runs will fail and say why
        m = Measurement(spec, case, workdir, deadline)
        kinds = [False, True] if traced else [False]
        start = last = time.monotonic()
        slowest_round = 0.0
        while True:
            for kind in kinds:
                m.run(kind)
            now = time.monotonic()
            slowest_round, last = max(slowest_round, now - last), now
            # stop before a round that might not finish within --seconds
            if m.attempted >= MIN_ROUNDS * len(kinds) and now + slowest_round - start > seconds:
                break
            if now + slowest_round > deadline:
                break
        return summarize(workload, seed, traced, m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def _output_bytes(m: Measurement) -> int:
    return sum(os.path.getsize(p) for p in m.case.outputs.values() if os.path.exists(p))


def summarize(workload: str, seed: int, traced: bool, m: Measurement) -> dict:
    def median(name: str, unit: str) -> tuple[float, str]:
        return statistics.median(m.samples[name]), unit

    if traced:
        counts_repeat = all(
            len(set(m.samples.get(name, []))) <= 1
            for name, (unit, _, _) in LAYER_METRICS.items()
            if unit != "s"
        )
        m.checks["layer-counts-repeat"] = (counts_repeat, None)
        metrics = {
            name: median(name, unit)
            for name, (unit, _, _) in LAYER_METRICS.items()
            if name in m.samples
        }
        metrics["cli.output_bytes"] = (float(_output_bytes(m)), "bytes")
        if "traced.run_s" in m.samples and "run_s" in m.samples:
            metrics["trace.overhead_s"] = (
                statistics.median(m.samples["traced.run_s"])
                - statistics.median(m.samples["run_s"]),
                "s",
            )
    else:
        metrics = {
            name: median(name, unit) for name, unit in END_TO_END.items() if name in m.samples
        }

    report = m.case.outputs["report"]
    fields = report_fields(report) if os.path.exists(report) else {}
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "argv": m.case.argv,
        "samples": {name: len(values) for name, values in m.samples.items()},
        "quartiles": {
            name: _quartiles(m.samples[name])
            for name in (*END_TO_END, *INFORMATIONAL)
            if name in m.samples
        },
        "informational": {
            name: dict(zip(("value", "unit"), median(name, unit)))
            for name, unit in INFORMATIONAL.items()
            if name in m.samples
        },
        "checks": {name: passed for name, (passed, _) in m.checks.items()},
        "failures": m.failures,
        "provenance": {
            "output_sha256": m.baseline[0] if m.baseline else None,
            "git_sha": git_sha(),
            "src_sha256": src_digest(),
            "src_carta_lines": src_lines(),
            "thread_cap": THREAD_CAP,
            "python": sys.version.split()[0],
        },
    }
    if "verdict" in fields:
        details["verdict"] = fields["verdict"]  # recorded, not gated
    return {
        "correct": m.failed == 0 and all(passed for passed, _ in m.checks.values()),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _package_files() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in _package_files():
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in _package_files())


def print_result(result: dict) -> None:
    details = result["details"]
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']} runs passed")
    for name, metric in {**result["metrics"], **details["informational"]}.items():
        line = f"{name}: {metric['value']:.6g} {metric['unit']}"
        if name in details["quartiles"]:
            q1, _, q3 = details["quartiles"][name]
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={details['samples'][name]})"
        print(line)
    if "verdict" in details:
        print(f"verdict: {details['verdict']} (recorded, not gated)")
    print(json.dumps(details))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"run.py: no carta sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), args.scale)
        print_result(result)
        results.append(result)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {n: r["metrics"] for n, r in zip(names, results)},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
