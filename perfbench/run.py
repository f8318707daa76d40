#!/usr/bin/env python3
"""Run-all benchmark for the ``repro`` CLI.

One workload of ``repro run-all`` is run again and again in fresh
subprocesses, back to back, for ``--seconds`` seconds: a closed loop
with a single client.  Every report is checked, and the last line of
stdout is one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics of a traced run (``--trace 1``)::

    python3 perfbench/run.py --workload runall-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20   # every workload, one table

Run it from the repository root; it builds nothing and needs only the
sources under ``src/``.  Scratch files live in ``.perfbench/`` and are
removed when a run ends.  See ``perfbench/README.md`` for the workloads,
the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import breakdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
TRACER = HERE / "tracer.py"

#: The input every workload runs on: four IBS-like benchmarks.
BENCHMARKS = ("jpeg_play", "gcc", "mpeg_play", "nroff")
LENGTH = 16_384

#: Fresh ``repro list`` processes timed per run for ``setup_s``.
SETUP_PROBES = 5

#: A workload process that runs longer than this is killed and failed
#: (a normal one takes 5-15 s), so a run always ends within 180 s.
ITERATION_TIMEOUT_S = 60.0

#: Environment switches that would change what a run computes.
SCRUBBED_ENV = ("REPRO_FAULT_SPEC", "REPRO_CACHE_DISABLE")

#: Report lines whose simulated number sits beside the paper's.
PAPER_LINES = (
    re.compile(r"^suite misprediction rate: ([\d.]+)% \(paper: ([\d.]+)%\)$"),
    re.compile(r"^\w+ +captures +([\d.]+)% of mispredictions @ 20% \(paper: ([\d.]+)%\)$"),
    re.compile(r"^4K gshare suite misprediction rate: ([\d.]+)% \(paper: ([\d.]+)%\)$"),
)
PAPER_LINE_COUNT = 5

HEADER = re.compile(r"^=== ([\w-]+): ", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]
    warm: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("runall-cold", (), warm=False),
        Workload("runall-warm", (), warm=True),
        Workload("runall-jobs2-chunked", ("--jobs", "2", "--chunk-size", "4096"), warm=False),
    )
}


def repro_args(workload: Workload, seed: int) -> List[str]:
    """The CLI arguments of one workload run (the program sees only these)."""
    return [
        "run-all", "--benchmarks", *BENCHMARKS, "--length", str(LENGTH),
        "--seed", str(seed), *workload.flags,
    ]


def input_tag() -> str:
    """Names the input the golden digests belong to."""
    return f"{'+'.join(BENCHMARKS)}-L{LENGTH}"


@dataclass
class Iteration:
    """One finished workload process."""

    wall_s: float
    peak_rss_mb: float
    ok: bool
    reason: str = ""
    paper_gap_pp: Optional[float] = None
    layers: Optional[Dict[str, float]] = None


@dataclass
class RunState:
    """What one benchmark run needs across its iterations."""

    seed: int
    run_dir: Path
    experiment_ids: List[str] = field(default_factory=list)
    expected_digest: Optional[str] = None
    iterations: int = 0


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------


def child_env(cache_dir: Path, tmp_dir: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        TMPDIR=str(tmp_dir),
    )
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(
    argv: Sequence[str], env: Dict[str, str], stdout_path: Path
) -> Tuple[float, float, int, bytes]:
    """Run ``argv`` to completion: (wall s, peak RSS MB, exit code, stderr).

    Peak RSS is ``ru_maxrss`` of the reaped child as ``wait4`` reports
    it, which covers the child and every descendant it reaped — pool
    workers included — measured from outside the program.
    """
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        env = dict(env, PERFBENCH_LAUNCH_EPOCH=repr(time.time()))
        start = time.perf_counter()
        process = subprocess.Popen(
            list(argv), env=env, cwd=str(ROOT), stdout=stdout, stderr=stderr,
            start_new_session=True,
        )
        watchdog = threading.Timer(ITERATION_TIMEOUT_S, _kill_group, (process.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(process.pid)  # stray workers of a crashed run
    return wall, usage.ru_maxrss / 1024.0, process.returncode, stderr_path.read_bytes()


# --------------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------------


def paper_gap(text: str) -> Optional[float]:
    """Mean |simulated - paper| in points over the quoted headline lines."""
    pairs = []
    for line in text.splitlines():
        for pattern in PAPER_LINES:
            match = pattern.match(line)
            if match:
                pairs.append((float(match[1]), float(match[2])))
    if len(pairs) != PAPER_LINE_COUNT:
        return None
    return sum(abs(ours - paper) for ours, paper in pairs) / len(pairs)


def load_golden() -> Dict[str, str]:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return golden["sha256"] if golden.get("input") == input_tag() else {}


def ledger_path(seed: int) -> Path:
    return STATE_DIR / "digests" / f"{input_tag()}-s{seed}.sha256"


def reference_digest(seed: int) -> Optional[str]:
    """The golden digest, or the digest another workload saw at this seed."""
    golden = load_golden().get(str(seed))
    if golden:
        return golden
    try:
        return ledger_path(seed).read_text(encoding="utf-8").strip() or None
    except FileNotFoundError:
        return None


def record_digest(seed: int, digest: str) -> None:
    path = ledger_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n", encoding="utf-8")
    os.replace(tmp, path)


def check_report(state: RunState, stdout: bytes, iteration: Iteration) -> None:
    """Mark ``iteration`` failed unless its report is the expected one."""
    text = stdout.decode("utf-8", errors="replace")
    digest = hashlib.sha256(stdout).hexdigest()
    iteration.paper_gap_pp = paper_gap(text)
    if HEADER.findall(text) != state.experiment_ids:
        iteration.ok, iteration.reason = False, "report does not list every experiment"
    elif iteration.paper_gap_pp is None:
        iteration.ok, iteration.reason = False, "paper comparison lines missing"
    elif state.expected_digest is None:
        state.expected_digest = digest
    elif digest != state.expected_digest:
        iteration.ok, iteration.reason = False, "report digest differs from the reference"


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def run_iteration(
    state: RunState, workload: Workload, cache_dir: Path, traced: bool
) -> Iteration:
    """One workload process; cold workloads get a fresh, empty cache."""
    state.iterations += 1
    tag = f"it{state.iterations}"
    args = repro_args(workload, state.seed)
    profile_path = state.run_dir / f"{tag}.profile.json"
    spans_path = state.run_dir / f"{tag}.spans.json"
    if traced:
        argv = [sys.executable, str(TRACER), str(spans_path), "--", *args,
                "--profile", str(profile_path)]
    else:
        argv = [sys.executable, "-m", "repro", *args]
    stdout_path = state.run_dir / f"{tag}.out"
    wall, rss, code, stderr = spawn(argv, child_env(cache_dir, state.run_dir), stdout_path)
    stdout = stdout_path.read_bytes()
    iteration = Iteration(wall_s=wall, peak_rss_mb=rss, ok=code == 0)
    if code != 0:
        tail = stderr.decode("utf-8", errors="replace").strip().splitlines()[-1:]
        iteration.reason = f"exit code {code}: {' '.join(tail)}"
        return iteration
    if traced:
        wrote = f"\nwrote {profile_path}\n".encode("utf-8")
        if stdout.endswith(wrote):
            stdout = stdout[: -len(wrote)]
    check_report(state, stdout, iteration)
    if traced and iteration.ok:
        iteration.layers = breakdown.layer_metrics(
            json.loads(spans_path.read_text(encoding="utf-8")),
            json.loads(profile_path.read_text(encoding="utf-8")),
            wall,
            dir_bytes(cache_dir),
        )
    return iteration


def setup(state: RunState, workload: Workload, measure: bool) -> Tuple[List[float], List[Iteration]]:
    """Untimed preparation: (``repro list`` start-up times, checked runs).

    Byte-compiles the sources once (so no run pays for it), starts
    fresh ``repro list`` processes to time start-up and learn the
    experiment ids, and — for the warm workload — fills the cache with
    one checked cold run.  A failed probe counts as a failed run.
    """
    compile_out = state.run_dir / "compileall.out"
    spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
          child_env(state.run_dir / "no-cache", state.run_dir), compile_out)
    startups: List[float] = []
    checked: List[Iteration] = []
    for probe in range(SETUP_PROBES if measure else 1):
        out = state.run_dir / f"list{probe}.out"
        wall, rss, code, _ = spawn([sys.executable, "-m", "repro", "list"],
                                   child_env(state.run_dir / "no-cache", state.run_dir), out)
        if code != 0:
            checked.append(Iteration(wall, rss, ok=False, reason=f"repro list exit {code}"))
            continue
        startups.append(wall)
        state.experiment_ids = [line.split()[0] for line in out.read_text().splitlines() if line]
    if workload.warm:
        checked.append(run_iteration(state, workload, state.run_dir / "cache", traced=False))
    return startups, checked


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> Tuple[dict, str]:
    """One benchmark run: the result object and a human-readable summary."""
    run_dir = STATE_DIR / f"run-{os.getpid()}-{workload.name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(RunState(seed=seed, run_dir=run_dir), workload, seconds, traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(state: RunState, workload: Workload, seconds: float, traced: bool):
    state.expected_digest = reference_digest(state.seed)
    startups, checked = setup(state, workload, measure=not traced)
    plain: List[Iteration] = []
    tracings: List[Iteration] = []
    deadline = time.perf_counter() + seconds
    while True:
        # Trace mode alternates untraced and traced runs of the same input.
        want_traced = traced and len(tracings) < len(plain)
        cache_dir = state.run_dir / ("cache" if workload.warm else f"cache-{state.iterations}")
        iteration = run_iteration(state, workload, cache_dir, want_traced)
        if not workload.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
        (tracings if want_traced else plain).append(iteration)
        if time.perf_counter() >= deadline and (tracings or not traced):
            break

    every = checked + plain + tracings
    failed = [iteration for iteration in every if not iteration.ok]
    if not failed and state.expected_digest:
        record_digest(state.seed, state.expected_digest)
    values = _metric_values(startups, plain, tracings, traced)
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": _named_metrics(values, "per_layer" if traced else "end_to_end"),
    }
    walls = " ".join(f"{iteration.wall_s:.2f}" for iteration in plain + tracings)
    lines = [f"{workload.name} seed={state.seed}: {len(every)} runs, {len(failed)} failed, "
             f"walls [{walls}] s"]
    lines += [f"  failed: {iteration.reason}" for iteration in failed]
    if traced and values:
        lines.append(breakdown.format_layer_table(values))
    return result, "\n".join(lines)


def _metric_values(startups, plain, tracings, traced) -> Dict[str, float]:
    if traced:
        # The traced run with the median wall, whole, so its layers still
        # sum to its wall.
        layered = sorted((it for it in tracings if it.layers), key=lambda it: it.wall_s)
        if not layered:
            return {}
        values = dict(layered[len(layered) // 2].layers)
        values["trace.overhead_s"] = (
            statistics.median(iteration.wall_s for iteration in tracings)
            - statistics.median(iteration.wall_s for iteration in plain)
        )
        return values
    gaps = [iteration.paper_gap_pp for iteration in plain if iteration.paper_gap_pp is not None]
    return {
        "wall_s": statistics.median(iteration.wall_s for iteration in plain),
        "setup_s": statistics.median(startups) if startups else 0.0,
        "peak_rss_mb": statistics.median(iteration.peak_rss_mb for iteration in plain),
        "paper_gap_pp": gaps[0] if gaps else 0.0,
    }


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _named_metrics(values: Dict[str, float], kind: str) -> Dict[str, dict]:
    """Every metric BENCHMARK.json names for ``kind``, with its unit."""
    return {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in load_spec()[kind]
    }


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------


def _table(seed: int, seconds: float) -> int:
    """Every workload's end-to-end metrics, one row each."""
    header = (f"{'workload':<22} {'wall_s (s)':>16} {'setup_s (s)':>11} "
              f"{'peak_rss_mb (MB)':>16} {'failed_frac':>11} {'paper_gap_pp (pp)':>17}")
    rows = [header]
    ok = True
    for workload in WORKLOADS.values():
        result, summary = measure(workload, seed, seconds, traced=False)
        print(summary, file=sys.stderr, flush=True)
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        ok = ok and result["correct"]
        runs = result["attempted"] - (1 if workload.warm else 0)
        rows.append(
            f"{workload.name:<22} {metrics['wall_s']:9.3f} (n={runs:>2}) {metrics['setup_s']:11.3f} "
            f"{metrics['peak_rss_mb']:16.1f} {result['failed'] / result['attempted']:11.3f} "
            f"{metrics['paper_gap_pp']:17.4f}"
        )
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return _table(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    result, summary = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(summary, flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
