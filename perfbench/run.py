"""The repository benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root.  Every sample runs in a fresh process
(``child.py``) with ``REPRO_WORKERS=1``, so no pool and no module-level
memo is shared between samples.

- ``--trace 0`` runs enough set-up-plus-body samples to fill about
  ``--seconds`` of body time, then set-up-only samples up to three, and
  reports medians of the end-to-end metrics.
- ``--trace 1`` runs the body once untraced and once with every layer
  wrapped, and reports the per-layer ledger of the wrapped run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the run (nproc, Python version, git SHA, seed).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
#: Workload -> body seconds at the commit that added the benchmark, on
#: a 2-core x86 box.  A ``--trace 0`` run measures
#: ceil(--seconds / this) bodies.
WORKLOADS = {"paper-small": 30.0, "campaign-default": 9.0,
             "routing-large": 3.0}
#: Sample k of a run with seed n builds its world at seed n + STRIDE * k,
#: so one run averages over several worlds and sample 0 of seed 0 is the
#: preset itself.
SEED_STRIDE = 1000
#: The traced ``repro run --small --trace`` path, whose ``obs.*`` layer
#: figures the ``paper-small`` ledger reports.
OBS_SAMPLE = {"paper-small": "paper-small-traced"}
OBS_LAYERS = ("obs.health.s", "obs.spans", "obs.events.bytes")
END_TO_END = {
    "setup_s": "s", "run_s": "s", "run_cpu_s": "s", "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}
MIN_SETUPS = 3
#: Whole-run limit in seconds.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A condition under which the benchmark refuses to report."""


def refuse_environment(env: dict[str, str]) -> None:
    """Settings that would bypass the wrappers or warm a cold run."""
    workers = env.get("REPRO_WORKERS", "").strip()
    if workers.isdigit() and int(workers) > 1:
        raise BenchError(f"REPRO_WORKERS={workers} would run work in worker "
                         "processes the benchmark does not measure; unset it")
    for name in ("REPRO_CACHE_DIR", "REPRO_CACHE", "REPRO_FLAT"):
        if env.get(name, "").strip():
            raise BenchError(f"{name} is set; it changes what a cold run "
                             "computes or how, so unset it")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` ("unknown" without one)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts samples in fresh processes and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, tmp: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = time.monotonic()
        self.samples = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        REPRO_WORKERS="1", PYTHONHASHSEED="0")

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def sample(self, index: int, *flags: str,
               workload: str | None = None) -> dict[str, Any]:
        """Sample ``index`` of the run, in a fresh process."""
        self.samples += 1
        tmp = self.tmp / f"sample-{self.samples}"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", workload or self.workload,
               "--seed", str(self.seed + SEED_STRIDE * index),
               "--tmp", str(tmp), *flags]
        timeout = max(RUN_BUDGET_S - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"sample exceeded {timeout:.0f}s") from exc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"sample exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(samples: list[dict[str, Any]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float],
                                                         list[dict[str, Any]]]:
    count = max(1, math.ceil(seconds / WORKLOADS[runner.workload]))
    bodies = [runner.sample(index) for index in range(count)]
    setups = [runner.sample(index, "--setup-only")
              for index in range(count, MIN_SETUPS)]
    samples = bodies + setups
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(len(s["failures"]) for s in samples)
    metrics = {key: _median(bodies, key)
               for key in ("run_s", "run_cpu_s", "peak_rss_mib")}
    metrics["setup_s"] = _median(samples, "setup_s")
    metrics["success_rate"] = 1.0 - failed / attempted
    return metrics, samples


def per_layer(runner: Runner) -> tuple[dict[str, float],
                                       list[dict[str, Any]]]:
    plain = runner.sample(0)
    traced = runner.sample(0, "--traced")
    samples = [plain, traced]
    metrics = dict(traced["layers"])
    untraced_wall = plain["setup_s"] + plain["run_s"]
    metrics["trace_overhead_frac"] = (
        (traced["setup_s"] + traced["run_s"]) / untraced_wall - 1.0)
    obs_workload = OBS_SAMPLE.get(runner.workload)
    if obs_workload is not None:
        samples.append(runner.sample(0, "--traced", workload=obs_workload))
        metrics.update({name: samples[-1]["layers"][name]
                        for name in OBS_LAYERS})
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        refuse_environment(dict(os.environ))
        if not (root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no src/repro under {root}; run from the "
                             "repository root")
        tmp = root / ".perfbench-tmp" / f"run-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        runner = Runner(root, args.workload, args.seed, tmp)
        try:
            if args.trace:
                metrics, samples = per_layer(runner)
            else:
                metrics, samples = end_to_end(runner, args.seconds)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                tmp.parent.rmdir()
            except OSError:
                pass
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failures = [f for s in samples for f in s["failures"]]
    for failure in failures:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(root), "samples": runner.samples,
        "wall_s": runner.elapsed(),
    }}))
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": len(failures),
        "metrics": {
            name: {"value": value,
                   "unit": layer_unit(name) if args.trace
                   else END_TO_END[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


_LAYER_UNITS = (
    ("us_per_call", "us"), ("us_per_walk", "us"), ("ms_per_call", "ms"),
    ("hops_per_walk", "hops"), ("hit_ratio", "ratio"), ("_frac", "ratio"),
    ("bytes", "bytes"), ("_s", "s"), (".s", "s"),
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name; counts otherwise."""
    for suffix, unit in _LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
