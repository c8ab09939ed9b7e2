"""The bytes the command line writes, checked against recorded SHA-256 digests.

A fixed set of calls runs in process through ``cli.main``; each call's exit
code, stdout and every file it writes must hash to the recorded values.
Their bits come from BLAS products and the C library's exp, sin and cos,
which may round differently on another CPU, numpy build or C library, so
the digests are recorded under a key naming numpy's version, its BLAS, the
BLAS core in use and the C library.  Under any other key the test skips
and names the key; it never compares loosely.  A change that moves output
bits on purpose records new digests here.
"""

import ctypes
import hashlib
import platform
from pathlib import Path

import numpy as np
import pytest

from qwproj.cli import main

# The benchmark's seed-1 --init states (bench/run.py's initial_state),
# written out so that this suite does not import the benchmark.
PLANE_INIT = (
    '{"space": "z2", "support": [{"pos": [0, 0], "coin": [[0.036914541349375586, '
    '-0.8235312482843357], [-0.1800012734751871, 0.4607994144309377], '
    '[0.10090655802064083, -0.060638609156211276], [0.10391527811533431, '
    '0.22591919251330828]]}]}'
)
CIRCLE_INIT = (
    '{"space": "z1", "support": [{"pos": [0], "coin": [[0.09082198483558913, '
    '-0.6210387162851665], [-0.2996415856578499, -0.7185243211540203]]}]}'
)
GRID_INIT = (
    '{"space": "z2", "support": [{"pos": [0, 0], "coin": [[0.23154524388787648, '
    '-0.21717407899545843], [-0.44886993827119204, -0.08442681096632441], '
    '[0.18674856006848722, 0.6348580851001856], [0.27830744733736673, '
    '0.4186111123748172]]}]}'
)

# Each call names the files it writes; the test puts them in a fresh directory.
CALLS = {
    "plane_verify": (
        ["verify", "--scenario", "grover2d_to_lazy", "--steps", "100", "--init", PLANE_INIT],
        ["--out-report", "report.json"],
    ),
    "circle_verify": (
        ["verify", "--scenario", "line_to_circle", "--n-circle", "4", "--phi", "pi/3",
         "--steps", "1000", "--init", CIRCLE_INIT],
        ["--out-report", "report.json"],
    ),
    "reconstruct_grid": (
        ["reconstruct", "--k", "2", "--l", "1", "--steps", "48", "--init", GRID_INIT],
        ["--out-report", "report.json"],
    ),
    "phased_plane_verify": (
        ["verify", "--scenario", "grover2d_to_lazy", "--phi", "0.7", "--steps", "40"],
        ["--out-report", "report.json"],
    ),
    "reconstruct_k3_l5": (
        ["reconstruct", "--k", "3", "--l", "5", "--steps", "12"],
        ["--out-report", "report.json", "--out-state", "state.json"],
    ),
}


def blas_core() -> str:
    """The core OpenBLAS chose for this CPU, read from the library numpy's
    wheel ships, or "unknown"."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has loaded
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


def platform_key() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version')}"
    except (TypeError, KeyError):  # a numpy without the dict form
        blas = "unknown"
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    return f"numpy {np.__version__}, {blas}, core {blas_core()}, {libc}"


GOLDEN = {
    "numpy 2.4.6, scipy-openblas 0.3.31.188.0, core SkylakeX, glibc 2.36": {
        "plane_verify": {
            "exit": 0,
            "stdout": "13c66302fcb7c6b175a028857720bce5f9e3886418f4b76a5c87f5e949185493",
            "stderr": "",
            "report.json": "0061531f918d3b4e93e3546169122b1a5139178ac9bf69139abfb4d96542e42f",
        },
        "circle_verify": {
            "exit": 0,
            "stdout": "838a8eb226ae1846d6360cc6965b1db034f1d56e785fc4dee85a93491b082da7",
            "stderr": "",
            "report.json": "982ea5f1d459eec248a3b9a71bd53c96e77d97b18523c030d2e5205cf17e0018",
        },
        "reconstruct_grid": {
            "exit": 0,
            "stdout": "d7b7079eed2430fb27f9d82748c6e7d99cdaa29eb611bb64b372f3d659bbfacd",
            "stderr": "",
            "report.json": "c2c1b3f295a91135d42998b1f57e37fdedd90525f4767a7ef67536f183c13684",
        },
        "phased_plane_verify": {
            "exit": 0,
            "stdout": "df5fdabaf3315e4540e4ceaca740da54f2aba3625e4de59d921477bca28edc61",
            "stderr": "",
            "report.json": "e4135ae35d5e760b7757039935718899d208458e7827d6a47d5415ce5c9bbfd3",
        },
        "reconstruct_k3_l5": {
            "exit": 0,
            "stdout": "9bf0a698208a9aac68b3c059a7af421acf8a479bc18802a2da87f676b09573c0",
            "stderr": "",
            "report.json": "b81d179253eed3683ed1624b3cb57a4c3cbb1f05c0ecfbdd7c8770f7b5b37bdc",
            "state.json": "857bfd8585a58a37eac0b7e957f67241982326edaac8e7cb9d5ebae76bb1c27e",
        },
    },
}


def test_cli_output_bytes_are_the_recorded_ones(tmp_path, monkeypatch, capsys):
    key = platform_key()
    if key not in GOLDEN:
        pytest.skip(f"no output digests recorded for {key}")
    monkeypatch.delenv("QWPROJ_LOG", raising=False)
    digests = {}
    for name, (argv, outputs) in CALLS.items():
        folder = tmp_path / name
        folder.mkdir()
        paths = [str(folder / arg) if arg.endswith(".json") else arg for arg in outputs]
        code = main([*argv, *paths])
        out, err = capsys.readouterr()
        files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in folder.iterdir()}
        stdout = hashlib.sha256(out.encode()).hexdigest()
        digests[name] = {"exit": code, "stdout": stdout, "stderr": err, **files}
    assert digests == GOLDEN[key]
