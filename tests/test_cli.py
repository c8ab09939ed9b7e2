"""End-to-end command-line behaviour, exit codes, and artifact formats."""

import cmath
import contextlib
import gc
import io
import itertools
import json
import logging
import math
import os
import platform
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwproj import catalog, cli, hilbert, state_new
from qwproj.cli import main, parse_phi
from qwproj.projection import NULL_TOL

ROOT = Path(__file__).resolve().parent.parent

ANTISYMMETRIC_INIT = json.dumps(
    {
        "space": "z2",
        "support": [
            {"pos": [0, 0], "coin": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"pos": [0, 1], "coin": [[-1, 0], [0, 0], [0, 0], [0, 0]]},
        ],
    }
)


class TestPhiParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5", 0.5),
            ("pi", math.pi),
            ("pi/3", math.pi / 3),
            ("2pi/3", 2 * math.pi / 3),
            ("-pi/4", -math.pi / 4),
            ("0.5pi", 0.5 * math.pi),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_phi(text) == pytest.approx(value)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_phi("three")

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0", "nan", "inf", "-inf", "1e400"])
    def test_rejects_zero_denominator_and_non_finite(self, text):
        with pytest.raises(ValueError):
            parse_phi(text)


class TestRunCommand:
    def test_writes_dist_and_state(self, tmp_path):
        dist = tmp_path / "d.csv"
        state = tmp_path / "s.json"
        code = main(
            [
                "run",
                "--scenario",
                "grover2d_to_lazy",
                "--steps",
                "30",
                "--out-dist",
                str(dist),
                "--out-state",
                str(state),
            ]
        )
        assert code == 0
        rows = dist.read_text().splitlines()
        assert rows[0] == "x0,p"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        assert abs(total - 1.0) < 1e-10
        dump = json.loads(state.read_text())
        assert dump["space"] == "z1(('R', 1), ('L', -1), ('U', 0), ('D', 0))" and dump["support"]

    def test_negative_steps(self, tmp_path):
        code = main(
            ["run", "--scenario", "grover2d_to_lazy", "--steps", "-1",
             "--out-dist", str(tmp_path / "d.csv")]
        )
        assert code == 2

    def test_unknown_scenario(self, tmp_path):
        code = main(
            ["run", "--scenario", "unknown", "--out-dist", str(tmp_path / "d.csv")]
        )
        assert code == 2

    def test_no_output_requested(self):
        assert main(["run", "--scenario", "grover2d_to_lazy"]) == 2

    def test_null_projection_exit_code(self, tmp_path):
        code = main(
            [
                "run",
                "--scenario",
                "grover2d_to_lazy",
                "--steps",
                "3",
                "--init",
                ANTISYMMETRIC_INIT,
                "--out-dist",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 3

    def test_byte_identical_reruns(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            dist = tmp_path / f"{tag}.csv"
            state = tmp_path / f"{tag}.json"
            assert (
                main(
                    [
                        "run",
                        "--scenario",
                        "line_to_circle",
                        "--n-circle",
                        "4",
                        "--phi",
                        "pi/3",
                        "--steps",
                        "25",
                        "--out-dist",
                        str(dist),
                        "--out-state",
                        str(state),
                    ]
                )
                == 0
            )
            outputs.append((dist.read_bytes(), state.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_init_from_file(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(
            json.dumps(
                {
                    "space": "z2",
                    "support": [
                        {"pos": [0, 0], "coin": [[1, 0], [0, 0], [0, 0], [0, 0]]}
                    ],
                }
            )
        )
        code = main(
            [
                "run",
                "--scenario",
                "lattice_to_doubled",
                "--steps",
                "5",
                "--init",
                str(init),
                "--out-dist",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 0


class TestVerifyCommand:
    def test_passing_report(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--scenario",
                "grover2d_to_lazy",
                "--steps",
                "30",
                "--out-report",
                str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True
        assert data["steps"] == 30 and len(data["residuals"]) == 30
        assert data["max_residual"] < 1e-10

    def test_twisted_circle_passes(self, tmp_path):
        code = main(
            [
                "verify",
                "--scenario",
                "line_to_circle",
                "--n-circle",
                "4",
                "--phi",
                "pi/3",
                "--steps",
                "30",
                "--out-report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 0

    def test_null_projection(self):
        code = main(
            [
                "verify",
                "--scenario",
                "grover2d_to_lazy",
                "--steps",
                "5",
                "--init",
                ANTISYMMETRIC_INIT,
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scenario", "lattice_to_jumps", "--k", "-1", "--phi", "-pi/2"],
            ["--scenario", "line_to_circle", "--n-circle", "1", "--phi", "pi/2"],
        ],
    )
    def test_a_cancelling_unused_state_does_not_refuse(self, flags, capsys):
        # The scenario's "pair" state cancels under these phases; only the
        # state the command runs is projected.
        assert main(["verify", *flags, "--steps", "5"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_circle_beyond_int64(self, capsys):
        n = str(2**70)
        assert main(["verify", "--scenario", "line_to_circle", "--n-circle", n,
                     "--phi", "0.3", "--steps", "3"]) == 0
        assert "line_to_circle: passed" in capsys.readouterr().out

    def test_phase_beyond_the_float_range(self, tmp_path, capsys):
        # verify weighs the parent at sigma = +-2, where phi*sigma overflows,
        # and is refused without a numpy warning (warnings are errors here);
        # run's projection and step phases stay at sigma = 0 and +-1.
        argv = ["--scenario", "line_to_circle", "--phi", "1e308", "--steps", "2"]
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr() == (
            "",
            "error: phi*sigma is beyond the float range at phi = 1e+308, sigma = -2, "
            "so the phase exp(i*phi*sigma) cannot be taken\n",
        )
        assert main(["run", *argv, "--out-dist", str(tmp_path / "dist.csv")]) == 0
        assert capsys.readouterr() == ("", "")

    def test_impossible_tolerance_fails(self, tmp_path):
        # the twisted circle has genuinely irrational amplitudes, so its
        # residual is small but nonzero and an absurd tolerance must fail
        code = main(
            [
                "verify",
                "--scenario",
                "line_to_circle",
                "--phi",
                "pi/3",
                "--steps",
                "8",
                "--tol",
                "1e-30",
                "--out-report",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 4

    def test_bad_tolerance(self):
        code = main(
            ["verify", "--scenario", "grover2d_to_lazy", "--tol", "0"]
        )
        assert code == 2


class TestArgumentChecks:
    """Each command registers only the flags it reads and range-checks them in the parser."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--scenario", "grover2d_to_lazy", "--tol", "-5"], "--tol"),
            (["reconstruct", "--k", "2", "--l", "1", "--phi", "pi/3"], "--phi"),
            (["verify", "--scenario", "grover2d_to_lazy", "--steps", "-1"], "--steps"),
            (["reconstruct", "--k", "2", "--l", "1", "--steps", "-1"], "--steps"),
            (["reconstruct", "--k", "2", "--l", "1", "--tol", "nan"], "--tol"),
            (["verify", "--scenario", "grover2d_to_lazy", "--tol", "inf"], "--tol"),
            (["reconstruct", "--k", "2", "--l", "1", "--phi-samples", "0"], "--phi-samples"),
            (["verify", "--scenario", "grover2d_to_lazy", "--steps", "2.5"], "--steps"),
            (["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "pi/0"], "--phi"),
            (["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "nan"], "--phi"),
            (["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "inf"], "--phi"),
            # An abbreviated flag is refused, not read as the flag it prefixes.
            (["reconstruct", "--k", "2", "--l", "1", "--steps", "4", "--phi", "9"], "--phi"),
            (["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--steps", "3",
              "--ph", "1.0"], "--ph"),
        ],
    )
    def test_rejected_before_any_work(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        extra = ["--out-dist", str(out)] if argv[0] == "run" else ["--out-report", str(out)]
        assert main(argv + extra) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestMalformedInput:
    """A malformed --init or a scenario flag the scenario does not read ends
    in one error line and exit 2, before any file is written."""

    @pytest.mark.parametrize(
        "init, where",
        [
            ('{"space":"z1","support":[{"pos":5,"coin":[[1,0],[0,0]]}]}', "entry 0"),
            ('{"space":"z1","support":[{"pos":[5],"coin":[1,2]}]}', "entry 0"),
            ('{"space":"z1","support":5}', '"support"'),
            ('{"space":"z1","support":[{"pos":[5],"coin":[["x",0],[0,0]]}]}', "entry 0"),
            (None, "JSON object"),  # a file holding a JSON list
            ('{"space":"z1","support":[{"pos":[5],"coin":[[NaN,0],[0,0]]}]}',
             "non-finite amplitude at (5,)"),
            pytest.param('{"space":"z1","support":[{"pos":[5],"coin":[[1%s,0],[0,0]]}]}'
                         % ("0" * 400), "entry 0 has an amplitude beyond the float range",
                         id="amplitude-10**400"),
            ('{"space":"z1","support":[{"pos":[5],"coin":[[true,0],[0,0]]}]}',
             "amplitude part true is a bool"),
            pytest.param('{"space":"z1","support":%s}' % ("[" * 5000 + "]" * 5000),
                         "--init nests too deeply", id="nested-5000-deep"),
        ],
    )
    def test_malformed_init(self, tmp_path, capsys, init, where):
        if init is None:
            path = tmp_path / "init.json"
            path.write_text('[{"space": "z1", "support": []}]')
            init = str(path)
        out = tmp_path / "r.json"
        code = main(["verify", "--scenario", "line_to_circle", "--steps", "3",
                     "--init", init, "--out-report", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, param",
        [(["--n-circle", "7"], "n_circle"), (["--k", "5"], "k"),
         (["--n-circle", "7", "--k", "5"], "k")],
    )
    def test_scenario_flag_not_read(self, tmp_path, capsys, flags, param):
        out = tmp_path / "r.json"
        code = main(["verify", "--scenario", "grover2d_to_lazy", "--steps", "3", *flags,
                     "--out-report", str(out)])
        assert code == 2
        assert f"error: {param} is read by" in capsys.readouterr().err
        assert not out.exists()


class TestReconstructCommand:
    def test_round_trip(self, tmp_path):
        report = tmp_path / "rec.json"
        code = main(
            [
                "reconstruct",
                "--k",
                "2",
                "--l",
                "1",
                "--steps",
                "10",
                "--out-report",
                str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["passed"] is True and data["max_error"] < 1e-10
        assert data["recovered_state"]["space"] == "z2"

    def test_non_coprime_rejected(self, tmp_path):
        code = main(
            ["reconstruct", "--k", "2", "--l", "4", "--steps", "5",
             "--out-report", str(tmp_path / "rec.json")]
        )
        assert code == 2

    def test_zero_steps_exact(self, tmp_path):
        report = tmp_path / "rec.json"
        code = main(
            ["reconstruct", "--k", "1", "--l", "0", "--steps", "0",
             "--out-report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["max_error"] == 0.0

    def test_explicit_grid(self, tmp_path):
        code = main(
            [
                "reconstruct",
                "--k",
                "3",
                "--l",
                "5",
                "--steps",
                "6",
                "--phi-samples",
                "13",
                "--out-state",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 0

    UNIT_INIT = json.dumps(
        {"space": "z2", "support": [
            {"pos": [0, 0], "coin": [[0.5, 0], [0, 0.5], [-0.5, 0], [0, -0.5]]}]}
    )

    def test_benchmark_call_uses_the_per_fiber_grid(self, tmp_path):
        # the widest fiber of the 48-step window spans 33 sigma values,
        # against 97 over the whole window; every window site comes back
        report = tmp_path / "rec.json"
        code = main(["reconstruct", "--k", "2", "--l", "1", "--steps", "48",
                     "--init", self.UNIT_INIT, "--out-report", str(report)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["phi_samples"] == 33
        assert data["passed"] is True and data["max_error"] < 1e-10
        assert len(data["recovered_state"]["support"]) == 4705

    def test_coarse_grid_refused_before_evolving(self, tmp_path, capsys, monkeypatch):
        def no_walks(*args, **kwargs):
            raise AssertionError("a walk was evolved for a grid that is too coarse")

        args = ["reconstruct", "--k", "2", "--l", "1", "--steps", "48",
                "--init", self.UNIT_INIT, "--out-report", str(tmp_path / "rec.json")]
        with monkeypatch.context() as patch:
            patch.setattr("qwproj.cli.evolve", no_walks)
            patch.setattr("qwproj.reconstruction.phase_projection_family", no_walks)
            assert main([*args, "--phi-samples", "32"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: candidates (") and err.endswith("sigma bin 0 of 32\n")
        assert main([*args, "--phi-samples", "33"]) == 0

    def test_sample_count_beyond_int64_is_refused(self, capsys):
        args = ["reconstruct", "--k", "2", "--l", "1", "--steps", "3"]
        assert main([*args, "--phi-samples", str(10**30)]) == 2
        assert capsys.readouterr().err == (
            f"error: phase sample count must be <= {2**63 - 1}, got {10**30}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--scenario", "lattice_to_jumps", "--k", str(10**20)],
            ["reconstruct", "--k", str(10**20), "--l", "1"],
        ],
        ids=["verify", "reconstruct"],
    )
    def test_a_jump_beyond_int64_is_refused(self, capsys, argv):
        # a line step is an int64 entry of a coordinate block
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: k must be <= {2**63 - 1}, got {10**20}\n"

    @pytest.mark.parametrize("factor", [1e-8, 1e8])
    def test_tolerance_relative_to_initial_norm(self, tmp_path, factor):
        report = tmp_path / "rec.json"

        def reconstruct(coin, tol):
            entry = {"pos": [0, 0], "coin": [[z.real, z.imag] for z in coin]}
            init = json.dumps({"space": "z2", "support": [entry]})
            return main(["reconstruct", "--k", "2", "--l", "1", "--steps", "12",
                         "--init", init, "--tol", repr(tol), "--out-report", str(report)])

        coin = np.array([0.3 - 0.1j, 0.5 + 0.2j, -0.4 + 0.6j, 0.1 + 0.25j])
        coin /= np.linalg.norm(coin)
        assert reconstruct(coin, 1e-10) == 0
        unit_error = json.loads(report.read_text())["max_error"]
        assert unit_error > 0.0
        assert reconstruct(coin, unit_error / 10) == 4
        # scaling the initial state keeps both verdicts
        assert reconstruct(factor * coin, 1e-10) == 0
        assert reconstruct(factor * coin, unit_error / 10) == 4


class TestInitAtAnyScale:
    """A one-site --init far from unit norm neither underflows nor
    overflows the norms the verdicts are judged against."""

    @pytest.mark.parametrize("amplitude", [1e-200, 1e200])
    @pytest.mark.parametrize("command, error", [
        (["verify", "--scenario", "grover2d_to_lazy", "--steps", "8"], "max_residual"),
        (["reconstruct", "--k", "2", "--l", "1", "--steps", "8"], "max_error"),
    ], ids=["verify", "reconstruct"])
    def test_single_site_passes(self, tmp_path, command, error, amplitude):
        out = tmp_path / "report.json"
        init = json.dumps({"space": "z2", "support": [
            {"pos": [0, 0], "coin": [[amplitude, 0], [0, 0], [0, 0], [0, 0]]}]})
        assert main([*command, "--init", init, "--out-report", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] and data["psi0_norm"] == amplitude
        assert data[error] < 1e-14 * amplitude

    def test_subnormal_projected_norm_normalizes(self, tmp_path):
        # 1 / norm overflows for a subnormal norm; the distribution is still
        # finite and sums to one, without a RuntimeWarning (an error here)
        dist = tmp_path / "d.csv"
        init = json.dumps({"space": "z1", "support": [{"pos": [0], "coin": [[1e-320, 0], [0, 0]]}]})
        assert main(["run", "--scenario", "line_to_circle", "--n-circle", "4", "--steps", "3",
                     "--out-dist", str(dist), "--init", init]) == 0
        probs = [float(row.split(",")[1]) for row in dist.read_text().splitlines()[1:]]
        assert probs and all(map(math.isfinite, probs))
        assert abs(sum(probs) - 1.0) < 1e-10

    # A one-site state whose norm is beyond the float range, and two sites
    # of one lazy-line fiber whose sum is.
    OVERFLOWS = {
        "one-site": [{"pos": [0, 0], "coin": [[1e308, 0]] * 4}],
        "shared-fiber": [{"pos": [0, y], "coin": [[1e308, 0], [0, 0], [0, 0], [0, 0]]}
                         for y in (0, 1)],
    }

    @pytest.mark.parametrize("support, command", [
        ("one-site", "run"), ("one-site", "verify"), ("one-site", "reconstruct"),
        ("shared-fiber", "run"), ("shared-fiber", "verify"),
    ])
    def test_overflow_is_a_configuration_error(self, tmp_path, capsys, support, command):
        # Not a cancellation (exit 3), NaN amplitudes written (exit 0) or
        # NaN residuals (exit 4).
        out = tmp_path / "out.json"
        args = {
            "run": ["run", "--scenario", "grover2d_to_lazy", "--out-state", str(out)],
            "verify": ["verify", "--scenario", "grover2d_to_lazy"],
            "reconstruct": ["reconstruct", "--k", "2", "--l", "1"],
        }[command]
        init = json.dumps({"space": "z2", "support": self.OVERFLOWS[support]})
        assert main([*args, "--steps", "3", "--init", init]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: projection through") and err.count("\n") == 1
        assert "is beyond the float range" in err and not out.exists()

    @staticmethod
    def reconstruct_report(tmp_path, amplitude: float) -> dict:
        out = tmp_path / "report.json"
        init = json.dumps({"space": "z2", "support": [
            {"pos": [0, 0], "coin": [[amplitude, 0], [0, 0], [0, 0], [0, 0]]}]})
        assert main(["reconstruct", "--k", "2", "--l", "1", "--steps", "10", "--init", init,
                     "--out-report", str(out)]) == 0
        return json.loads(out.read_text())

    def test_reconstruct_near_the_float_maximum(self, tmp_path):
        # the phase sums of 7 samples of 1e308 pass the float maximum
        data = self.reconstruct_report(tmp_path, 1e308)
        assert data["passed"] and data["max_error"] < 1e-14 * 1e308

    def test_scaled_phase_sums_move_no_bit(self, tmp_path):
        # At 1e307 the phase sums are scaled by a power of two before the
        # FFT; 2**8 below they are not, and the recovered amplitudes are the
        # same bits, 2**8 apart.
        big = self.reconstruct_report(tmp_path, 1e307)
        small = self.reconstruct_report(tmp_path, 1e307 / 2**8)
        amps = [np.array([e["coin"] for e in data["recovered_state"]["support"]])
                for data in (big, small)]
        assert np.array_equal(amps[0], amps[1] * 2**8)
        assert big["max_error"] == small["max_error"] * 2**8


# Numbers of every magnitude a dump can carry: floats from the subnormal
# 1e-320 up to the float maximum, exact integers up to 10**400, and the
# non-finite floats json reads.
_MAGNITUDES = st.one_of(
    st.builds(lambda k, sign: sign * 10.0**k, st.integers(-320, 308), st.sampled_from([1, -1])),
    st.builds(lambda k, sign: sign * 10**k, st.integers(0, 400), st.sampled_from([1, -1])),
    st.integers(-3, 3),
    st.floats(),
)
# A value that stands for as many nested lists as the test's depth.
_DEEP = "\x00deep"
_DEPTHS = st.sampled_from([1, 50, 900, 950, 980, 990, 1000, 1100, 5000])
_KEYS = st.sampled_from(["space", "support", "pos", "coin", "z1", "z2"]) | st.text(max_size=3)
_LEAVES = st.one_of(st.none(), st.booleans(), st.text(max_size=4), _MAGNITUDES, st.just(_DEEP))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


def _dump(space: str, dim: int):
    """A valid dump on a space of ``dim`` coordinates and ``dim`` * 2 coin entries."""
    entry = st.fixed_dictionaries({
        "pos": st.lists(st.integers(-4, 4), min_size=dim, max_size=dim),
        "coin": st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                         min_size=2 * dim, max_size=2 * dim),
    })
    return st.fixed_dictionaries({"space": st.just(space), "support": st.lists(entry, max_size=3)})


def _slots(node, depth=0):
    """Every (depth, container, key) triple of a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    else:
        items = list(enumerate(node)) if isinstance(node, list) else []
    for key, child in items:
        yield depth, node, key
        yield from _slots(child, depth + 1)


@st.composite
def _mutated(draw, valid):
    """A valid dump with a few of its values replaced, wrapped in a list,
    unwrapped, dropped, renamed or nested deeply."""
    doc = draw(valid)
    for _ in range(draw(st.integers(1, 3))):
        # Deepest first, as hypothesis draws early items most: the numbers.
        slots = sorted(_slots(doc), key=lambda slot: -slot[0])
        if not slots:
            break
        _, parent, key = draw(st.sampled_from(slots))
        node = parent[key]
        kind = draw(st.sampled_from(["magnitude", "value", "wrap", "unwrap", "drop", "rename",
                                     "deep"]))
        if kind == "value":
            parent[key] = draw(_JSON)
        elif kind == "magnitude":
            parent[key] = draw(_MAGNITUDES)
        elif kind == "wrap":
            parent[key] = [node]
        elif kind == "unwrap" and isinstance(node, list) and node:
            parent[key] = node[0]
        elif kind == "drop":
            del parent[key]
        elif kind == "rename" and isinstance(parent, dict):
            parent[draw(_KEYS)] = parent.pop(key)
        elif kind == "deep":
            parent[key] = _DEEP
    return doc


def _init_text(doc, depth: int) -> str:
    return json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "0" + "]" * depth)


_COMMANDS = {
    "z1": ["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "pi/3",
           "--steps", "2"],
    "z2": ["verify", "--scenario", "grover2d_to_lazy", "--steps", "2"],
    "reconstruct": ["reconstruct", "--k", "2", "--l", "1", "--steps", "2"],
}


class TestInitBoundary:
    """Whatever --init holds, verify and reconstruct end with an exit code
    and, on a refusal, one error line: never with an exception."""

    @staticmethod
    def check(command: str, text: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        # Amplitudes near the float maximum can overflow in the arithmetic:
        # numpy warns, as it does on the command line, and the verdict
        # reads FAILED.
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([*_COMMANDS[command], "--init", text])
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        if code in (2, 3):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), doc=st.dictionaries(_KEYS, _JSON),
           space=st.sampled_from(["z1", "z2"]), depth=_DEPTHS)
    def test_recursive_documents(self, command, doc, space, depth):
        doc.setdefault("space", space)
        self.check(command, _init_text(doc, depth))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data(), depth=_DEPTHS)
    def test_mutated_dumps(self, command, data, depth):
        valid = _dump("z1", 1) if command == "z1" else _dump("z2", 2)
        self.check(command, _init_text(data.draw(_mutated(valid)), depth))


# Phases of the null-projection property; each state drawn may add the
# phase at which it cancels.
_PHASES = (0.0, 0.4, math.pi / 3, math.pi / 2, math.pi, -math.pi / 4)
_ENTRIES = (0, 1, -1, 1j, -1j, 0.5 + 0.5j)
_NULL_STEPS = "3"


@st.composite
def _verify_case(draw):
    """A verify call on a catalog scenario and an initial state: a
    distinguished state, up to three sites with small entries, or a state
    built to cancel in one fiber at the drawn phase.  Returns the CLI
    arguments, the scenario descriptor, the phase and the --init text."""
    name = draw(st.sampled_from(catalog.SCENARIO_NAMES))
    params, flags = {}, []
    if name == "lattice_to_jumps":
        params["k"] = draw(st.sampled_from([-1, 1, 2, 3]))
        flags.append(f"--k={params['k']}")
    if name == "line_to_circle":
        params["n_circle"] = draw(st.sampled_from([1, 2, 3, 4]))
        flags.append(f"--n-circle={params['n_circle']}")
    desc = catalog.scenario(name, **params)
    pmap, space = desc.pmap, desc.walk.space
    phased = pmap.sigma_array is not None
    window = list(itertools.product(range(-3, 4), repeat=space.dimension))
    kind = draw(st.sampled_from(["distinguished", "sites", "cancelling"]))
    if kind == "distinguished":
        state = desc.distinguished_states[draw(st.sampled_from(sorted(desc.distinguished_states)))]()
        support = dict(state.support)
        phis = list(_PHASES)
        if phased and len(support) == 2:
            # a two-site state in one fiber, as "pair" is under some maps,
            # cancels where exp(i*phi*(sigma_1 - sigma_0)) turns the second
            # site's share into minus the first's, if the two are parallel
            (p0, v0), (p1, v1) = support.items()
            block = np.array([p0, p1], dtype=np.int64)
            (r0, r1), (s0, s1) = pmap.rho_array(block).tolist(), pmap.sigma_array(block).tolist()
            if r0 == r1:
                j = np.flatnonzero(v1)[0]
                phis.append(cmath.phase(-v0[j] / v1[j]) / (s1 - s0))
        phi = draw(st.sampled_from(phis)) if phased else 0.0
    else:
        phi = draw(st.sampled_from(_PHASES)) if phased else 0.0
        sites = draw(st.lists(st.sampled_from(window), min_size=0 if kind == "sites" else 1,
                              max_size=3, unique=True))
        support = {p: np.array([draw(st.sampled_from(_ENTRIES)) for _ in range(space.coin_dimension)],
                               dtype=complex) for p in sites}
        if kind == "cancelling":
            # one more site in the fiber of the first, carrying minus the
            # first's share at this phase
            first = sites[0]
            block = np.array(window, dtype=np.int64)
            targets = pmap.rho_array(block).tolist()
            mates = [q for q, r in zip(window, targets)
                     if r == targets[window.index(first)] and q not in support]
            if mates:
                q = draw(st.sampled_from(mates))
                shift = 0.0
                if phi != 0.0:
                    s_first, s_q = pmap.sigma_array(np.array([first, q], dtype=np.int64)).tolist()
                    shift = phi * (s_first - s_q)
                support[q] = -support[first] * cmath.exp(1j * shift)
    state = state_new(space, list(support.items()))
    init = json.dumps(hilbert.to_json_dict(state))
    argv = ["verify", "--scenario", name, *flags, f"--phi={phi!r}", "--steps", _NULL_STEPS,
            "--init", init]
    return argv, desc, phi, init


def _cancels(desc, phi: float, init: str) -> bool:
    """Whether the phi-weighted fiber sums of the dumped state, taken over its
    support with cmath.exp, have norm at most NULL_TOL times its norm."""
    space, pmap = desc.walk.space, desc.pmap
    support = hilbert.from_json_dict(space, json.loads(init)).support
    if not support:
        return True
    block = np.array(list(support), dtype=np.int64)
    targets = map(tuple, pmap.rho_array(block).tolist())
    sigmas = pmap.sigma_array(block).tolist() if phi != 0.0 else [0] * len(support)
    sums = {}
    for target, sigma, vec in zip(targets, sigmas, support.values()):
        weight = cmath.exp(1j * phi * sigma)
        old = sums.get(target, [0j] * len(vec))
        sums[target] = [a + weight * complex(v) for a, v in zip(old, vec)]
    projected = math.sqrt(sum(abs(a) ** 2 for vec in sums.values() for a in vec))
    source = math.sqrt(sum(abs(complex(v)) ** 2 for vec in support.values() for v in vec))
    return projected <= NULL_TOL * source


class TestNullProjectionExit:
    """verify exits 3 exactly where the initial projection cancels."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=_verify_case())
    def test_exit_3_only_where_the_projection_cancels(self, case):
        argv, desc, phi, init = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if _cancels(desc, phi, init):
            assert code == 3, (argv, out.getvalue())
        else:
            assert code in (0, 4), (argv, err.getvalue())


class TestReportsCarryTheInitialNorm:
    """Each report holds the norm of psi0, against which ``passed`` is judged."""

    Z1_TRIPLE = json.dumps({"space": "z1", "support": [{"pos": [0], "coin": [[3, 0], [0, 0]]}]})
    Z2_TRIPLE = json.dumps({"space": "z2", "support": [
        {"pos": [0, 0], "coin": [[1.5, 0], [0, 1.5], [-1.5, 0], [0, -1.5]]}]})

    @pytest.mark.parametrize("command, init, error", [
        (["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "pi/3",
          "--steps", "20"], Z1_TRIPLE, "max_residual"),
        (["reconstruct", "--k", "2", "--l", "1", "--steps", "12"], Z2_TRIPLE, "max_error"),
    ], ids=["verify", "reconstruct"])
    def test_passed_is_judged_against_psi0_norm(self, tmp_path, command, init, error):
        out = tmp_path / "report.json"

        def report(*tol):
            code = main([*command, "--init", init, *tol, "--out-report", str(out)])
            data = json.loads(out.read_text())
            assert code == (0 if data["passed"] else 4)
            return data

        data = report()
        assert data["psi0_norm"] == 3.0 and data["passed"] and data[error] > 0.0
        # tol * 3 is 1.5 and 0.75 times the error
        for tol, passed in [(data[error] / 2, True), (data[error] / 4, False)]:
            data = report("--tol", repr(tol))
            assert data["passed"] == (data[error] < tol * data["psi0_norm"]) == passed


class TestOutputLayout:
    """Every file the CLI writes is json's indented, key-sorted layout."""

    @staticmethod
    def assert_canonical(path):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    def test_all_four_file_kinds(self, tmp_path):
        out = {name: tmp_path / f"{name}.json" for name in ("run", "verify", "rec", "rec_state")}
        assert main(["run", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "pi/3",
                     "--steps", "9", "--out-state", str(out["run"])]) == 0
        assert main(["verify", "--scenario", "grover2d_to_lazy", "--steps", "6",
                     "--out-report", str(out["verify"])]) == 0
        # 313 recovered sites: the state is written in several pieces
        assert main(["reconstruct", "--k", "1", "--l", "2", "--steps", "12",
                     "--out-report", str(out["rec"]), "--out-state", str(out["rec_state"])]) == 0
        for path in out.values():
            self.assert_canonical(path)
        report = json.loads(out["rec"].read_text())
        assert report["recovered_state"] == json.loads(out["rec_state"].read_text())


class TestLogging:
    def test_log_levels_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWPROJ_LOG", "debug")
        assert (
            main(
                ["run", "--scenario", "grover2d_to_lazy", "--steps", "1",
                 "--out-dist", str(tmp_path / "d.csv")]
            )
            == 0
        )

    def test_bad_log_level(self, monkeypatch):
        monkeypatch.setenv("QWPROJ_LOG", "verbose")
        assert main(["run", "--scenario", "grover2d_to_lazy"]) == 2

    # Each command with the DEBUG line its library call logs.
    COMMANDS = {
        "verify": (
            ["verify", "--scenario", "grover2d_to_lazy", "--steps", "3", "--out-report"],
            r"DEBUG qwproj\.projection: commutation check lattice\(k=1,l=0\) over 3 steps: "
            r"max residual \S+ \(tol 1\.0e-10\)",
        ),
        "reconstruct": (
            ["reconstruct", "--k", "2", "--l", "1", "--steps", "2", "--out-state"],
            r"DEBUG qwproj\.reconstruction: built projection family: \d+ phases, 2 steps",
        ),
    }

    @staticmethod
    def stderr_lines(launcher, argv, level):
        """The stderr lines of a fresh interpreter running the CLI."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("QWPROJ_LOG", None)
        if level is not None:
            env["QWPROJ_LOG"] = level
        run = subprocess.run(
            [sys.executable, *launcher, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stderr.splitlines()

    @pytest.mark.parametrize("level", [None, "info", "debug"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_log_lines_on_stderr(self, tmp_path, command, level):
        # A fresh interpreter, as the installed qwproj command starts: the
        # lines appear only when QWPROJ_LOG asks for them.
        argv, debug_line = self.COMMANDS[command]
        out = tmp_path / "out.json"
        lines = self.stderr_lines(
            ["-c", "from qwproj.cli import console_entry; console_entry()"],
            argv + [str(out)],
            level,
        )
        wrote = re.escape(f"INFO qwproj.cli: wrote {out}")
        expected = {None: [], "info": [wrote], "debug": [debug_line, wrote]}[level]
        assert len(lines) == len(expected), lines
        for pattern, line in zip(expected, lines):
            assert re.fullmatch(pattern, line), line

    def test_module_run_logs_as_qwproj_cli(self, tmp_path):
        # python -m qwproj.cli runs the module as __main__; its lines keep
        # the logger name of the installed command.
        argv = self.COMMANDS["verify"][0] + [str(tmp_path / "out.json")]
        lines = self.stderr_lines(["-m", "qwproj.cli"], argv, "info")
        assert lines == [f"INFO qwproj.cli: wrote {tmp_path / 'out.json'}"]

    def test_library_records_reach_logging(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("QWPROJ_LOG", raising=False)
        caplog.set_level(logging.DEBUG)
        for argv, _ in self.COMMANDS.values():
            assert main(argv + [str(tmp_path / "out.json")]) == 0
        debug = [r.name for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == ["qwproj.projection", "qwproj.reconstruction"]


class TestNegativePhiToken:
    """A negative phase may follow --phi as its own token or after '='."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["verify", "--scenario", "line_to_circle", "--steps", "12"], ["--out-report"]),
            (["run", "--scenario", "line_to_circle", "--steps", "12"], ["--out-state", "--out-dist"]),
        ],
        ids=["verify", "run"],
    )
    def test_both_spellings_agree(self, tmp_path, argv, outputs):
        written = {}
        for spelling, phi in (("token", ["--phi", "-pi/4"]), ("equals", ["--phi=-pi/4"])):
            files = [tmp_path / f"{spelling}{flag}" for flag in outputs]
            extra = [arg for flag, path in zip(outputs, files) for arg in (flag, str(path))]
            assert main(argv + phi + extra) == 0
            written[spelling] = [path.read_bytes() for path in files]
        assert written["token"] == written["equals"]
        direct = tmp_path / "direct"
        assert main(argv + ["--phi", str(-math.pi / 4), outputs[0], str(direct)]) == 0
        assert direct.read_bytes() == written["token"][0]


class TestExit:
    """The program fixes the allocator's thresholds before it runs and
    freezes the objects it leaves for the interpreter's shutdown; an
    in-process call leaves the allocator and the garbage collector alone."""

    CASES = [
        (["verify", "--scenario", "grover2d_to_lazy", "--steps", "4"], 0),
        (["run", "--scenario", "line_to_circle"], 2),  # no output named
    ]

    @pytest.mark.parametrize("argv, code", CASES)
    def test_main_freezes_nothing(self, capsys, argv, code):
        assert gc.get_freeze_count() == 0
        assert main(argv) == code
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("argv, code", CASES)
    def test_console_entry_keeps_code_and_output(self, capsys, argv, code):
        assert main(argv) == code
        want = capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("QWPROJ_LOG", None)
        run = subprocess.run(
            [sys.executable, "-c", "from qwproj.cli import console_entry; console_entry()", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stdout, run.stderr) == (code, want.out, want.err)

    @pytest.mark.parametrize("argv, code", CASES)
    def test_only_the_program_sets_the_allocator(self, monkeypatch, capsys, argv, code):
        calls = []
        monkeypatch.setattr(cli, "_keep_heap", lambda: calls.append("keep"))
        assert main(argv) == code
        assert calls == []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(sys, "argv", ["qwproj", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.console_entry()
        assert (exited.value.code, calls) == (code, ["keep", "freeze"])

    def test_keep_heap_sets_both_thresholds_where_there_is_mallopt(self, monkeypatch):
        # a stand-in C library, so this process's allocator is left alone
        import ctypes

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli._keep_heap()
        assert calls == [(-3, 4 << 20), (-1, 32 << 20)]  # M_MMAP_ and M_TRIM_THRESHOLD
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no mallopt
        assert cli._keep_heap() is None

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's thresholds")
    def test_program_maps_fewer_pages(self, tmp_path):
        # The walk grows at every step; with the thresholds fixed a step
        # reuses the heap the step before it freed instead of having the
        # kernel map fresh pages (12 473 -> 5 370 minor faults measured).
        argv = ["verify", "--scenario", "grover2d_to_lazy", "--steps", "100"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("QWPROJ_LOG", None)
        launchers = {
            "program": ["-m", "qwproj.cli"],
            "main": ["-c", "import sys; from qwproj.cli import main; sys.exit(main())"],
        }
        faults, outputs = {}, {}
        for name, launcher in launchers.items():
            out = tmp_path / name
            with open(out, "wb") as f:
                child = subprocess.Popen([sys.executable, *launcher, *argv], env=env, stdout=f)
                _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
            assert child.returncode == 0
            faults[name], outputs[name] = usage.ru_minflt, out.read_bytes()
        assert outputs["program"] == outputs["main"]
        assert faults["program"] <= 0.7 * faults["main"], faults
