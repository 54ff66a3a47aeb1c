"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 bench/selftest.py

Checks that every workload, traced and untraced, emits exactly the
metrics BENCHMARK.json lists in a well-formed last line, that each output
check rejects a deliberately corrupted output, that a failing or killed
run is counted as failed, and that the benchmark refuses to run without
the program's sources.  Takes ~30 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, ROOT, WORK, Measurement, launch
from workloads import WORKLOADS, Case


def _set_field(key: str, value: str):
    def corrupt(path: Path) -> None:
        lines = path.read_text().splitlines()
        lines = [f"{key}: {value}" if line.startswith(key + ": ") else line for line in lines]
        path.write_text("\n".join(lines) + "\n")

    return corrupt


def _edit_json(edit):
    def corrupt(path: Path) -> None:
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))  # writes NaN as the bare token NaN

    return corrupt


def _drop_position(data):
    data["features"][0]["geometry"]["coordinates"][0].pop()


def _nan_position(data):
    data["features"][0]["geometry"]["coordinates"][0][0][0] = float("nan")


def _truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


# check name -> (output role, corruption)
CORRUPTIONS = {
    "project-world": {
        "coordinates-projected": ("report", _set_field("coordinates-projected", "199")),
        "output-coordinates": ("out", _edit_json(_drop_position)),
        "coordinates-finite": ("out", _edit_json(_nan_position)),
        "svg-parses": ("svg", _truncate),
        "circle-residual": ("report", _set_field("worst-relative-residual", "0.001")),
    },
    "chebyshev-offcap": {
        "u-min-negative": ("report", _set_field("u-min", "0.001")),
        "features-equal-nodes": ("out", _edit_json(lambda d: d["features"].pop())),
        "verdict-not-violated": ("report", _set_field("verdict", "optimality-violated")),
    },
    "distortion-cap": {
        "samples": ("report", _set_field("samples", "694")),
        "m-min-positive": ("report", _set_field("m-min", "-0.5")),
        "conformality-defect": ("report", _set_field("worst-conformality-defect", "0.01")),
    },
}


def check_metric_names(spec: dict) -> None:
    expected = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.splitlines()[-1])
            assert sorted(last) == ["attempted", "correct", "failed", "metrics"], last
            assert last["correct"] is True and last["failed"] == 0, proc.stdout
            assert sorted(last["metrics"]) == sorted(expected[trace]), (name, trace)
            for metric in last["metrics"].values():
                assert isinstance(metric["value"], (int, float)) and metric["unit"]
            print(f"ok  {name} trace={trace}: {len(last['metrics'])} metrics")


def check_corruptions() -> None:
    for name, workload in WORKLOADS.items():
        workdir = WORK / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            case = workload.make(7, str(workdir), "tiny")
            record = launch(workdir, case.argv, False, "selftest")
            assert record and record["returncode"] == 0, name
            clean = workload.check(case)
            assert all(passed for passed, _ in clean.values()), clean
            assert set(clean) == set(CORRUPTIONS[name]), (name, sorted(clean))
            pristine = {role: Path(p).read_bytes() for role, p in case.outputs.items()}
            for check, (role, corrupt) in CORRUPTIONS[name].items():
                corrupt(Path(case.outputs[role]))
                passed, detail = workload.check(case).get(check, (False, None))
                assert not passed, (name, check, detail)
                Path(case.outputs[role]).write_bytes(pristine[role])
                print(f"ok  {name}: {check} rejects a corrupted {role}")
            Path(case.outputs["report"]).unlink()
            assert not any(passed for passed, _ in workload.check(case).values())
            print(f"ok  {name}: a missing report fails the run")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()


def check_refuses_without_sources(spec: dict) -> None:
    """A directory with only BENCHMARK.json and the benchmark must not
    produce a result (it would time some other installed carta)."""
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", "project-world", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_failed_run_counts() -> None:
    """A run that exits non-zero, or overruns its deadline and is killed, is
    counted as attempted and failed."""
    name = "distortion-cap"
    workdir = WORK / "selftest-failing"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        case = WORKLOADS[name].make(7, str(workdir), "tiny")
        bad = Case([*case.argv, "--exponent", "5"], case.outputs, case.expect)
        m = Measurement(WORKLOADS[name], bad, workdir, time.monotonic() + 60)
        m.run(False)
        assert (m.attempted, m.failed) == (1, 1), (m.attempted, m.failed)
        assert m.failures[0]["returncode"] == 2, m.failures
        print("ok  a run exiting 2 counts as attempted and failed")

        slow = WORKLOADS[name].make(7, str(workdir), "full")  # ~5 s per run
        m = Measurement(WORKLOADS[name], slow, workdir, time.monotonic())
        m.run(False)
        assert (m.attempted, m.failed) == (1, 1), (m.attempted, m.failed)
        assert m.failures[0]["returncode"] is None, m.failures
        print("ok  a run past the deadline is killed and counts as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources(spec)
    check_corruptions()
    check_failed_run_counts()
    check_metric_names(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
