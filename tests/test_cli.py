"""End-to-end command-line behaviour, exit codes, and artifact formats."""

import json
import math

import numpy as np
import pytest

from qwproj.cli import main, parse_phi

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
        assert dump["space"] == "z1" and dump["support"]

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
