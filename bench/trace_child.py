"""Run one qwproj CLI call with every layer's public functions wrapped.

    python3 bench/trace_child.py STATS.json <qwproj CLI arguments...>

Each wrapper times its call and subtracts the time of the wrapped calls made
inside it, giving self time, and counts calls, raised exceptions and the
work the call did (support sizes in and out, phases, candidates).  The
wrappers replace each function under every name a qwproj module looks it
up by, since modules import them by name.  Bookkeeping after a call is
charged neither to the call nor to its caller.  The stats are written as
JSON to STATS.json and the CLI's exit code is returned.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import qwproj.cli
from qwproj import catalog, hilbert, projection, reconstruction, spaces, walk


def zero_vectors(state) -> int:
    """Number of explicit all-zero coin vectors in the state's support."""
    if not state.support:
        return 0
    block = np.array(list(state.support.values()))
    return int(len(block) - np.count_nonzero(block.any(axis=1)))


def arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def count_step(stats, args, kwargs, result):
    state = arg(args, kwargs, 1, "state")
    sites_in, sites_out = len(state.support), len(result.support)
    stats["walk.apply_step.sites_in"] += sites_in
    stats["walk.apply_step.sites_out"] += sites_out
    stats["walk.apply_step.slots"] += state.coin_dimension * sites_in
    stats["walk.apply_step.zero_sites"] += zero_vectors(result)
    peak = "walk.apply_step.peak_sites_out"
    stats[peak] = max(stats[peak], sites_out)


def count_projection(stats, args, kwargs, result):
    stats["projection.project_state.sites_in"] += len(arg(args, kwargs, 2, "state").support)
    stats["projection.project_state.sites_out"] += len(result.support)


def count_family(stats, args, kwargs, result):
    stats["reconstruction.phase_projection_family.phases"] += len(result)


def count_support(stats, args, kwargs, result):
    recovered = len(result.support) - zero_vectors(result)
    stats["reconstruction.reconstruct_support.candidates"] += len(
        arg(args, kwargs, 2, "candidates"))
    stats["reconstruction.reconstruct_support.recovered"] += recovered


def count_window(stats, args, kwargs, result):
    stats["spaces.reachable_window.sites"] += len(result)


# (metric prefix, module, function name, counter)
TARGETS = (
    ("walk.apply_step", walk, "apply_step", count_step),
    ("walk.apply_coin", walk, "apply_coin", None),
    ("walk.evolve", walk, "evolve", None),
    ("projection.project_state", projection, "project_state", count_projection),
    ("projection.induced_walk", projection, "induced_walk", None),
    ("projection.verify_commutation", projection, "verify_commutation", None),
    ("reconstruction.phase_projection_family", reconstruction, "phase_projection_family",
     count_family),
    ("reconstruction.reconstruct_support", reconstruction, "reconstruct_support",
     count_support),
    ("reconstruction.plan_reconstruction", reconstruction, "plan_reconstruction", None),
    ("hilbert.diff_norm", hilbert, "diff_norm", None),
    ("hilbert.max_abs_difference", hilbert, "max_abs_difference", None),
    ("hilbert.to_json_dict", hilbert, "to_json_dict", None),
    ("spaces.reachable_window", spaces, "reachable_window", count_window),
    ("spaces.lattice_quotient", spaces, "lattice_quotient", None),
    ("catalog.scenario", catalog, "scenario", None),
)


# Work counts the counters add to; each starts at zero so that every run
# reports all of them, also for layers its workload never reaches.
COUNTS = (
    "walk.apply_step.sites_in",
    "walk.apply_step.sites_out",
    "walk.apply_step.slots",
    "walk.apply_step.zero_sites",
    "walk.apply_step.peak_sites_out",
    "projection.project_state.sites_in",
    "projection.project_state.sites_out",
    "reconstruction.phase_projection_family.phases",
    "reconstruction.reconstruct_support.candidates",
    "reconstruction.reconstruct_support.recovered",
    "spaces.reachable_window.sites",
    "cli.report_bytes",
)


class Tracer:
    def __init__(self):
        self.stats = dict.fromkeys(COUNTS, 0)
        # Time spent in wrapped children, one accumulator per open call.
        self.child_time = [0.0]

    def wrap(self, name, fn, counter=None):
        stats, child_time = self.stats, self.child_time
        stats[f"{name}.self_s"] = 0.0
        stats[f"{name}.calls"] = 0
        stats[f"{name}.errors"] = 0

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[f"{name}.errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stats[f"{name}.self_s"] += elapsed - child_time.pop()
                stats[f"{name}.calls"] += 1
                child_time[-1] += elapsed
            if counter is not None:
                mark = time.perf_counter()
                counter(stats, args, kwargs, result)
                child_time[-1] += time.perf_counter() - mark
            return result

        return wrapper

    def install(self):
        """Replace each target under every name a qwproj module binds it to."""
        modules = [m for key, m in sys.modules.items()
                   if key == "qwproj" or key.startswith("qwproj.")]
        for name, module, attr, counter in TARGETS:
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli", qwproj.cli.main)(cli_args)
    if "--out-report" in cli_args:
        report = Path(cli_args[cli_args.index("--out-report") + 1])
        tracer.stats["cli.report_bytes"] = report.stat().st_size if report.exists() else 0
    Path(stats_path).write_text(json.dumps(tracer.stats, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
