"""Command-line front end: run, verify, and reconstruct catalog scenarios.

Exit codes: 0 success, 2 configuration error, 3 null projection,
4 verification failure.  Logging is controlled by the QWPROJ_LOG
environment variable (off | info | debug, default off).

Importing this module loads argparse, the catalog and the layers under it
(spaces, hilbert, walk) and nothing else of qwproj.  Each command imports
the layer it calls when it runs: ``run`` and ``verify`` import projection,
``reconstruct`` imports reconstruction, so ``--help`` and a refused command
line load neither.  json is imported when an ``--init`` state is read or a
file written.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys
from pathlib import Path

from . import catalog, hilbert
from .errors import InvalidParameter, NullProjection, QwprojError
from .spaces import lattice_quotient, reachable_window
from .walk import evolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NULL_PROJECTION = 3
EXIT_VERIFICATION = 4

_PHI_PATTERN = re.compile(r"^(-?)(\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$")


def parse_phi(text: str) -> float:
    """Parse a phase: plain float or pi fractions like 'pi', 'pi/3', '2pi/3'.

    Raises ValueError for a zero denominator or a value that is not finite.
    """
    text = text.strip()
    m = _PHI_PATTERN.match(text)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        mult = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise ValueError(f"phase {text!r} divides by zero")
        phi = sign * mult * math.pi / den
    else:
        phi = float(text)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {text!r}")
    return phi


def _phase(text: str) -> float:
    """The argparse ``type`` of --phi: :func:`parse_phi`, whose refusal it reports."""
    try:
        return parse_phi(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _joined_phi(argv: list[str]) -> list[str]:
    """``argv`` with each ``--phi`` that is followed by a token starting with
    '-' joined to it as ``--phi=<token>``: argparse takes a separate
    ``-pi/4`` for a flag, not for the value of ``--phi``."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] == "--phi" and token.startswith("-"):
            joined[-1] = f"--phi={token}"
        else:
            joined.append(token)
    return joined


def _checked(convert, rule: str, ok):
    """An argparse ``type``: convert the text, then refuse a value failing ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_STEPS = _checked(int, ">= 0", lambda n: n >= 0)
_SAMPLES = _checked(int, ">= 1", lambda n: n >= 1)
_TOL = _checked(float, "finite and > 0", lambda t: math.isfinite(t) and t > 0)


def _configure_logging() -> None:
    level_name = os.environ.get("QWPROJ_LOG", "off").lower()
    if level_name not in ("off", "info", "debug"):
        raise QwprojError(f"QWPROJ_LOG must be off, info, or debug, not {level_name!r}")
    if level_name != "off":
        import logging

        fmt = "%(levelname)s %(name)s: %(message)s"
        logging.basicConfig(level=level_name.upper(), stream=sys.stderr, format=fmt)


def _info(msg: str, *args) -> None:
    # Named, not __name__, which is "__main__" under python -m qwproj.cli.
    if "logging" in sys.modules:  # else no handler can have been set up to show it
        sys.modules["logging"].getLogger("qwproj.cli").info(msg, *args)


def _load_initial_state(space, text: str):
    import json

    if not text.lstrip().startswith("{"):
        text = Path(text).read_text()
    # Reading and checking a document recurse once per nesting level.
    try:
        return hilbert.from_json_dict(space, json.loads(text))
    except RecursionError:
        raise InvalidParameter("--init nests too deeply to be read as a state dump") from None


def _write_text(path: str, content: str) -> None:
    Path(path).write_text(content)
    _info("wrote %s", path)


def _write_json(path: str, obj) -> None:
    """Write ``obj`` as :func:`hilbert.json_text` renders it, piece by piece,
    so a large state's text is never held whole."""
    pieces = hilbert.json_chunks(obj)  # refuses a bad document before the file is opened
    with open(path, "w") as f:
        f.writelines(pieces)
    _info("wrote %s", path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwproj",
        description="Coined quantum walks, graph-quotient projections, and reconstruction.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="catalog scenario name")
            p.add_argument("--n-circle", type=int, default=None, help="circle size for line_to_circle")
            p.add_argument("--k", type=int, default=None, help="jump size for lattice_to_jumps")
            p.add_argument("--phi", type=_phase, default=None, help="projection phase (accepts pi fractions)")
        p.add_argument("--steps", type=_STEPS, default=30, help="number of walk steps")
        p.add_argument("--init", default=None, help="initial state: JSON file path or inline JSON")

    def tolerance(p):
        p.add_argument(
            "--tol",
            type=_TOL,
            default=1e-10,
            help="pass threshold relative to the norm of the initial state (default 1e-10)",
        )

    # Every parser refuses an abbreviated flag, which argparse would
    # otherwise expand to any flag it prefixes (--phi to --phi-samples).
    p_run = sub.add_parser(
        "run", help="evolve the projected walk and export results", allow_abbrev=False
    )
    common(p_run)
    p_run.add_argument("--out-state", default=None, help="final state dump (JSON)")
    p_run.add_argument("--out-dist", default=None, help="position distribution (CSV)")

    p_verify = sub.add_parser(
        "verify",
        help="check projected evolution against evolved projection",
        allow_abbrev=False,
    )
    common(p_verify)
    tolerance(p_verify)
    p_verify.add_argument("--out-report", default=None, help="commutation report (JSON)")

    p_rec = sub.add_parser(
        "reconstruct",
        help="recover a planar walk from its phase projections",
        allow_abbrev=False,
    )
    common(p_rec, scenario=False)
    tolerance(p_rec)
    p_rec.add_argument("--k", type=int, required=True, help="quotient coefficient k")
    p_rec.add_argument("--l", type=int, required=True, help="quotient coefficient l")
    p_rec.add_argument(
        "--phi-samples",
        type=_SAMPLES,
        default=None,
        help="grid size (default: largest per-fiber sigma span of the candidate window)",
    )
    p_rec.add_argument("--out-state", default=None, help="recovered state dump (JSON)")
    p_rec.add_argument("--out-report", default=None, help="reconstruction report (JSON)")
    return parser


def _scenario_from_args(args) -> catalog.ScenarioDescriptor:
    return catalog.scenario(
        args.scenario, k=args.k, n_circle=args.n_circle, phi=args.phi
    )


def _initial_state(desc: catalog.ScenarioDescriptor, args):
    if args.init is not None:
        return _load_initial_state(desc.walk.space, args.init)
    return desc.distinguished_states["origin"]()


def cmd_run(args) -> int:
    if args.out_state is None and args.out_dist is None:
        print("error: run needs --out-state and/or --out-dist", file=sys.stderr)
        return EXIT_CONFIG
    from .projection import induced_walk, project_state

    desc = _scenario_from_args(args)
    psi0 = _initial_state(desc, args)
    projected = project_state(desc.pmap, desc.phi, psi0, normalize=True)
    spec = induced_walk(desc.walk, desc.pmap, desc.phi)
    final = evolve(spec, projected, args.steps)
    _info(
        "ran %s for %d steps: %d support positions", desc.name, args.steps, len(final.coins)
    )
    if args.out_state:
        _write_json(args.out_state, final)
    if args.out_dist:
        _write_text(args.out_dist, hilbert.distribution_csv(final))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .projection import verify_commutation

    desc = _scenario_from_args(args)
    psi0 = _initial_state(desc, args)
    report = verify_commutation(desc.walk, desc.pmap, desc.phi, psi0, args.steps, tol=args.tol)
    if args.out_report:
        _write_json(args.out_report, report.to_json_dict())
    status = "passed" if report.passed else "FAILED"
    print(
        f"{desc.name}: {status}, max residual {report.max_residual:.3e} "
        f"over {report.steps} steps (tol {args.tol:.1e})"
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_reconstruct(args) -> int:
    from . import reconstruction

    pmap = lattice_quotient(args.k, args.l)  # a non-coprime pair exits as a config error
    desc = catalog.scenario("grover2d_to_lazy")
    parent = desc.walk
    psi0 = _initial_state(desc, args)
    n = args.steps
    # The grid is checked against the candidate window before any walk is evolved.
    candidates = reachable_window(parent.space, psi0.coords, n)
    samples = reconstruction.plan_reconstruction(pmap, candidates, args.phi_samples)
    reference = evolve(parent, psi0, n)
    family = reconstruction.phase_projection_family(parent, pmap, psi0, n, samples)
    recovered = reconstruction.reconstruct_support(family, pmap, candidates)
    max_error = hilbert.max_abs_difference(recovered, reference)
    psi0_norm = hilbert.norm(psi0)
    passed = max_error < args.tol * psi0_norm
    report = {
        "k": args.k,
        "l": args.l,
        "steps": n,
        "phi_samples": samples,
        "max_error": max_error,
        "passed": passed,
        "psi0_norm": psi0_norm,
        "recovered_state": recovered,
    }
    if args.out_report:
        _write_json(args.out_report, report)
    if args.out_state:
        _write_json(args.out_state, recovered)
    status = "passed" if passed else "FAILED"
    print(
        f"reconstruction k={args.k} l={args.l}: {status}, "
        f"max amplitude error {max_error:.3e} with {samples} phases"
    )
    return EXIT_OK if passed else EXIT_VERIFICATION


def main(argv=None) -> int:
    try:
        _configure_logging()
    except QwprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_phi(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"run": cmd_run, "verify": cmd_verify, "reconstruct": cmd_reconstruct}
    try:
        return commands[args.command](args)
    except NullProjection as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NULL_PROJECTION
    except (QwprojError, OSError, KeyError, ValueError) as exc:  # json's decode error too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


# glibc's mallopt parameters (malloc.h) and the values the program sets:
# blocks below 4 MiB, where numpy starts asking for huge pages, come from
# the heap, and up to 32 MiB of free memory stays at its top.  Over mmap
# thresholds of 0.5-32 MiB and trim thresholds of 4 MiB-1 GiB, an mmap
# threshold of 2-16 MiB with a trim threshold of 16-256 MiB kept the
# planar verify's peak RSS within 0.1 MB of the defaults'; a trim threshold
# of 8 MiB or less raised it by 0.3-0.4 MB, one of 1 GiB by 0.2-0.4 MB.
# The reconstruction's rose 0.4 MB at every trim threshold from 16 MiB.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 32 << 20
_MMAP_THRESHOLD = 4 << 20


def _keep_heap() -> None:
    """Have the C library's allocator keep the memory the process frees: a
    block below :data:`_MMAP_THRESHOLD` comes from the heap, not from a
    mapping of its own, and the heap's free top is given back to the kernel
    only beyond :data:`_TRIM_THRESHOLD`.  Does nothing where the C library
    has no ``mallopt`` (numpy has loaded ctypes already)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    # ctypes' default conversions, int arguments and an int result, are
    # mallopt's signature.  Declaring them allocates objects of its own,
    # which moved the heap layout: +1.4 % minor faults on the circle verify.
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def console_entry() -> None:  # pragma: no cover - thin wrapper
    """The ``qwproj`` program: :func:`main`, then exit with its code.

    This is the one function that acts on its own process, as only the
    program may; :func:`main` and every library call leave the allocator
    and the garbage collector as they found them.

    - Before :func:`main`, :func:`_keep_heap` fixes glibc's mmap and trim
      thresholds.  A walk grows at every step, so by default the allocator
      serves each step's largest blocks from pages the kernel maps afresh:
      a mapping of its own above its moving mmap threshold, or heap it gave
      back at the last ``free``.  With the thresholds fixed, a step reuses
      the blocks the step before it freed: a ``verify --scenario
      grover2d_to_lazy --steps 100`` process made 5 370 minor page faults
      instead of 12 473, and a ``reconstruct --k 2 --l 1 --steps 48``
      process 5 338 instead of 8 251 (2-vCPU Xeon, glibc 2.36).
    - After :func:`main`, every object still alive is frozen, so the
      interpreter's garbage collection at shutdown passes over them: on
      the same host the process took 5-6 ms from the end of :func:`main`
      to its exit, against 19 ms without the freeze.
    """
    _keep_heap()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    console_entry()
