#!/usr/bin/env python3
"""Benchmark of the qwproj command-line workloads, end to end or per layer.

Each workload is one ``qwproj`` CLI call in a child process; children run
one at a time.  For example:

    python3 bench/run.py --workload plane_verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --trace 1

``--trace 0`` times untraced children and reports the end-to-end metrics:
the workload child's wall time, the set-up time (a child that imports
qwproj, builds the workload's scenario and exits) and the peak RSS from
``wait4``, each a median over the run.  The two times are divided by the
wall time of ``bench/probe.py``, a fixed child run next to each of them, so
that they are in reference seconds and the host's drifting speed cancels.
``--trace 1`` alternates untraced children with children run under
``bench/trace_child.py``, which wraps the public functions of every layer,
and reports per-layer self times and counts.  Every run's output is
checked; a run that fails a check counts in ``failed`` and is not timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md
for the workloads, the metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 1
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 100.0
# The CLI's default tolerance for both verify and reconstruct.
TOL = 1e-10
# Reference seconds per probe run.  wall_s is a workload child's wall time
# divided by the mean wall time of the probes run just before and just
# after it, times this; setup_s divides by the probe just before.
PROBE_REF_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    space: str  # space name the --init dump is written for
    origin: tuple[int, ...]
    coin_dimension: int
    argv: tuple[str, ...]
    setup: str  # statements a set-up child runs after importing qwproj
    steps: int
    # Support size of the final parent state, for any seed.  The CLI does not
    # report it, so traced runs check it as the largest apply_step output.
    final_support: int
    # Support size of the recovered state in a reconstruct report: every
    # candidate in the steps-hop window, since sites of the wrong parity
    # come back with rounding-level, not zero, amplitudes.
    recovered_support: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plane_verify",
            "z2",
            (0, 0),
            4,
            ("verify", "--scenario", "grover2d_to_lazy", "--steps", "100"),
            "catalog.scenario('grover2d_to_lazy')",
            100,
            101 * 101,
        ),
        Workload(
            "circle_verify",
            "z1",
            (0,),
            2,
            ("verify", "--scenario", "line_to_circle", "--n-circle", "4",
             "--phi", "pi/3", "--steps", "1000"),
            "catalog.scenario('line_to_circle', n_circle=4, phi=cli.parse_phi('pi/3'))",
            1000,
            1001,
        ),
        Workload(
            "reconstruct_grid",
            "z2",
            (0, 0),
            4,
            ("reconstruct", "--k", "2", "--l", "1", "--steps", "48"),
            "spaces.lattice_quotient(2, 1); catalog.scenario('grover2d_to_lazy')",
            48,
            49 * 49,
            2 * 48 * 49 + 1,
        ),
    )
}

SETUP_CODE = "from qwproj import catalog, cli, spaces\n{}\n"

# Per-layer metrics reported by --trace 1, with their units.  Counts are
# sums over one traced run; times are the median over traced runs.
WRAPPED = (
    "walk.apply_step", "walk.apply_coin", "walk.evolve",
    "projection.project_state", "projection.induced_walk",
    "projection.verify_commutation",
    "reconstruction.phase_projection_family",
    "reconstruction.reconstruct_support",
    "reconstruction.plan_reconstruction",
    "hilbert.diff_norm", "hilbert.max_abs_difference", "hilbert.to_json_dict",
    "spaces.reachable_window", "spaces.lattice_quotient",
    "catalog.scenario", "cli",
)
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in WRAPPED},
    **{f"{name}.errors": "count" for name in WRAPPED},
    "walk.apply_step.calls": "count",
    "walk.apply_step.sites_in": "count",
    "walk.apply_step.sites_out": "count",
    "walk.apply_step.zero_sites": "count",
    "walk.apply_step.useful_ratio": "ratio",
    "walk.apply_coin.calls": "count",
    "walk.site_steps_per_s": "1/s",
    "projection.project_state.calls": "count",
    "projection.project_state.sites_in": "count",
    "projection.project_state.sites_out": "count",
    "reconstruction.phase_projection_family.phases": "count",
    "reconstruction.reconstruct_support.candidates": "count",
    "reconstruction.reconstruct_support.hit_ratio": "ratio",
    "spaces.reachable_window.sites": "count",
    "catalog.scenario.calls": "count",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


@dataclass
class Run:
    ok: bool
    reason: str
    wall_s: float
    peak_rss_mb: float
    report: bytes
    stats: dict | None = None


def initial_state(w: Workload, seed: int) -> str:
    """Inline JSON for --init: a random unit coin vector at the origin.

    Only the coin vector depends on the seed, so the support shape and every
    work count are the same for all seeds.
    """
    rng = random.Random(f"{w.name}:{seed}")
    coin = [(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(w.coin_dimension)]
    scale = sum(re * re + im * im for re, im in coin) ** -0.5
    entry = {"pos": list(w.origin), "coin": [[re * scale, im * scale] for re, im in coin]}
    return json.dumps({"space": w.space, "support": [entry]})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QWPROJ_LOG", None)
    return env


def spawn(cmd: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; return exit code, wall seconds, peak RSS in MB."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def check_output(w: Workload, code: int, report: bytes) -> str:
    """Return why the run's output is wrong, or '' when it is correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        data = json.loads(report)
    except ValueError:
        return "report is missing or not JSON"
    if data.get("passed") is not True:
        return "report does not say passed"
    if w.argv[0] == "verify":
        # The verify report holds no support; the traced run checks its size.
        if len(data.get("residuals", ())) != w.steps:
            return f"report has {len(data.get('residuals', ()))} residuals, expected {w.steps}"
        if not data["max_residual"] < TOL:
            return f"max residual {data['max_residual']} is not below {TOL}"
    else:
        if not data["max_error"] < TOL:
            return f"max error {data['max_error']} is not below {TOL}"
        size = len(data["recovered_state"]["support"])
        if size != w.recovered_support:
            return f"recovered support has {size} sites, expected {w.recovered_support}"
    return ""


def run_workload(w: Workload, seed: int, work: Path, traced: bool,
                 extra_args: tuple[str, ...] = ()) -> Run:
    report_path = work / "report.json"
    stats_path = work / "stats.json"
    for path in (report_path, stats_path):
        path.unlink(missing_ok=True)
    cli_args = [*w.argv, "--init", initial_state(w, seed),
                "--out-report", str(report_path), *extra_args]
    if traced:
        cmd = [sys.executable, str(TRACE_CHILD), str(stats_path), *cli_args]
    else:
        cmd = [sys.executable, "-m", "qwproj.cli", *cli_args]
    code, wall, rss = spawn(cmd, work / "child.log")
    report = report_path.read_bytes() if report_path.exists() else b""
    reason = check_output(w, code, report)
    stats = None
    if traced and not reason:
        stats = json.loads(stats_path.read_text())
        peak = stats.pop("walk.apply_step.peak_sites_out")
        if peak != w.final_support:
            reason = f"final support has {peak} sites, expected {w.final_support}"
    if reason:
        log = (work / "child.log").read_text(errors="replace").strip()
        print(f"{w.name}: run failed: {reason}" + (f"\n{log}" if log else ""), file=sys.stderr)
    return Run(not reason, reason, wall, rss, report, stats)


def repeat(seconds: float, minimum: int, step):
    """Call ``step`` at least ``minimum`` times and, after that, while another
    call of average length still fits into ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed * (len(results) + 1) / len(results) > seconds:
            return results
        results.append(step())


def run_child(cmd: list[str], log_path: Path, what: str) -> float:
    """Wall time of a child that must succeed."""
    code, wall, _ = spawn(cmd, log_path)
    if code != 0:
        raise BenchmarkError(f"{what} child exited with {code}: "
                             + log_path.read_text(errors="replace"))
    return wall


def end_to_end(w: Workload, seed: int, seconds: float, work: Path,
               extra_args: tuple[str, ...] = ()) -> dict:
    setup_cmd = [sys.executable, "-c", SETUP_CODE.format(w.setup)]

    def probe():
        return run_child([sys.executable, str(PROBE)], work / "probe.log", "probe")

    def step():
        before = probe()
        setup = run_child(setup_cmd, work / "setup.log", "set-up")
        return before, setup, run_workload(w, seed, work, False, extra_args)

    steps = repeat(seconds, MIN_RUNS, step)
    # A probe right after each workload child: the next step's, or one more.
    probes = [before for before, _, _ in steps] + [probe()]
    good = [((probes[i] + probes[i + 1]) / 2, run)
            for i, (_, _, run) in enumerate(steps) if run.ok]
    if any(run.report != good[0][1].report for _, run in good):
        raise BenchmarkError("reports of one seed differ between runs")
    median = statistics.median
    metrics = {"setup_s": (PROBE_REF_S * median(setup / before for before, setup, _ in steps),
                           "s")}
    raw = {"probe_s": median(probes), "setup_s": median(setup for _, setup, _ in steps)}
    if good:
        metrics["wall_s"] = (PROBE_REF_S * median(run.wall_s / pace for pace, run in good), "s")
        metrics["peak_rss_mb"] = (median(run.peak_rss_mb for _, run in good), "MB")
        raw["wall_s"] = median(run.wall_s for _, run in good)
    return {"attempted": len(steps), "failed": len(steps) - len(good), "metrics": metrics,
            "samples": len(good), "raw": raw}


def per_layer(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    pairs = repeat(seconds, MIN_TRACED_PAIRS,
                   lambda: (run_workload(w, seed, work, False), run_workload(w, seed, work, True)))
    runs = [r for pair in pairs for r in pair]
    failed = sum(not r.ok for r in runs)
    if failed:
        return {"attempted": len(runs), "failed": failed, "metrics": {}, "samples": 0, "raw": {}}
    if any(r.report != runs[0].report for r in runs):
        raise BenchmarkError("a traced report differs from the untraced report")
    traced = [traced for _, traced in pairs]
    counts = [{k: v for k, v in r.stats.items() if not k.endswith("self_s")} for r in traced]
    if any(c != counts[0] for c in counts):
        drift = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        raise BenchmarkError(f"per-layer counts drift between traced runs: {drift}")
    c = counts[0]
    times = {k: statistics.median(r.stats[k] for r in traced)
             for k in traced[0].stats if k.endswith("self_s")}
    walk_s = [r.stats["walk.apply_coin.self_s"] + r.stats["walk.apply_step.self_s"] for r in traced]
    values = {
        **times,
        **{k: v for k, v in c.items() if k in PER_LAYER_UNITS},
        "walk.apply_step.useful_ratio": ratio(c["walk.apply_step.sites_out"],
                                              c["walk.apply_step.slots"]),
        "walk.site_steps_per_s": statistics.median(
            ratio(c["walk.apply_step.sites_in"], s) for s in walk_s),
        "reconstruction.reconstruct_support.hit_ratio": ratio(
            c["reconstruction.reconstruct_support.recovered"],
            c["reconstruction.reconstruct_support.candidates"]),
        "trace.overhead_s": statistics.median(t.wall_s - u.wall_s for u, t in pairs),
    }
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        raise BenchmarkError(f"traced run did not report {missing}")
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER_UNITS.items()}
    return {"attempted": len(runs), "failed": 0, "metrics": metrics, "samples": len(traced),
            "raw": {"wall_s": statistics.median(u.wall_s for u, _ in pairs),
                    "traced_wall_s": statistics.median(t.wall_s for _, t in pairs)}}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            sha = got.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the results to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwproj" / "cli.py").is_file():
        print(f"error: no qwproj sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # On SIGTERM, unwind like on Ctrl-C: spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_before = os.getloadavg()[0]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    results = {}
    try:
        for name in names:
            measure = per_layer if args.trace else end_to_end
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds, work)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    info = {**provenance(args.seed), "load_1min_before": load_before,
            "load_1min_after": os.getloadavg()[0], "trace": args.trace}
    for name, res in results.items():
        print(f"{name}: {res['attempted']} runs, {res['failed']} failed, "
              f"fail_rate {res['failed'] / res['attempted']:.3f}, {res['samples']} timed")
        for metric, (value, unit) in res["metrics"].items():
            print(f"  {metric:48s} {value:14.6g} {unit}")
        for metric, value in res["raw"].items():
            print(f"  raw median {metric:37s} {value:14.6g} s")
    print("provenance " + json.dumps(info, sort_keys=True))
    summaries = {
        name: {
            "correct": res["failed"] == 0 and bool(res["metrics"]),
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in res["metrics"].items()},
        }
        for name, res in results.items()
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"provenance": info, "seconds": args.seconds, "results": summaries,
             "raw_medians_s": {name: res["raw"] for name, res in results.items()}},
            indent=2, sort_keys=True) + "\n")
    if args.workload == "all":
        print(json.dumps(summaries, sort_keys=True))
    else:
        print(json.dumps(summaries[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
