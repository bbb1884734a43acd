"""The README's Quick start commands do what the README says."""

import ctypes
import hashlib
import json
import pathlib
import re
import shlex

from gltlab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"



def openblas_core() -> str:
    """The core name of the OpenBLAS that numpy's linalg runs on, as
    OPENBLAS_CORETYPE or the CPU select it, or "unknown"."""
    try:
        from numpy.linalg import _umath_linalg

        corename = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


# sha256 of every file the README check-sacs writes, computed once the trials
# were drawn in chunks, one generator per (seed, m, n, chunk).  The streams are
# fixed by the config and seed alone: neither the host nor which trials the
# certificates leave to the SVD may move a byte.  Keyed by OpenBLAS core as
# QUICK_START_SHA256 is: each core measured has its table, the same on each.
_SACS = {
    "certificate.csv": "48557bdf7e3efc8369ceda28c9eebf2bc2a5e5eabf725618bfa6570febe4f656",
    "summary.json": "d098646b81ea0f12265f8c2fe7ea9ef39e95d16a09d95d5915f33fab6c9f74f1",
}
SACS_SHA256 = {core: _SACS for core in
               ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Katmai")}


def _quick_start(core: str, acs: str, product: str) -> dict[str, str]:
    """A core's table: the two digests that move between cores (the a.c.s.
    certificate's SVDs and the product check's spectra) and those that do
    not."""
    return {
        "out/product/report.csv": product,
        "out/product/plot.svg": "5c489f6f3e39853650b4e380ee3733dba1859f1d91d2b428f11ff96a07fc143c",
        "out/zero/trend.csv": "23dea8a4bb2032a59c2ff82b048bfa41c2498d517432e14a3cd2dbe772862d8e",
        "out/acs/certificate.csv": acs,
        "out/sacs/certificate.csv": SACS_SHA256[core]["certificate.csv"],
        "out/glt5/split.csv": "c9257856563f9e23f73d6da9776463e323d239dc70d419c8ccb20a92933b9a13",
    }


# sha256 of every CSV and plot.svg the README Quick start commands write, per
# OpenBLAS core (OPENBLAS_CORETYPE=Prescott runs the Katmai core), computed
# before the checks returned one Report shape: the single emitter must write
# the same bytes.
_PRODUCT = "750598d2f148a51bcd13320cc15126dca2bed8ba97d77187cc46df5dfd0368ce"
_PRODUCT_SSE = "0d44e6143d833195135e638354aa34e1d5d1d6cf27b2ebe0c270be3a1336768e"
QUICK_START_SHA256 = {
    "SkylakeX": _quick_start(
        "SkylakeX", "523c38c2e9262b0d22b579452566fac48cec6f7403724812c3a54bb3947ce4fc", _PRODUCT),
    "Haswell": _quick_start(
        "Haswell", "934a1be7f0c4b43f10bc25266fbf4f143051961115ecae82796c50500fb21531", _PRODUCT),
    "Sandybridge": _quick_start(
        "Sandybridge", "dfe6a425bee0777299d986bf1f1d0476fe1495a825fd7fe566d9d264712fde56",
        _PRODUCT_SSE),
    "Nehalem": _quick_start(
        "Nehalem", "2d253a770c4be736973b2454f968be0082f05bffffb0d15d9bb8b7c7dce314a0",
        _PRODUCT_SSE),
    "Katmai": _quick_start(
        "Katmai", "dfe6a425bee0777299d986bf1f1d0476fe1495a825fd7fe566d9d264712fde56",
        _PRODUCT_SSE),
}


def quick_start_commands():
    """Each command of the first shell block under "## Quick start", without
    its leading ``gltlab``, with line continuations joined."""
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert all(argv[0] == "gltlab" for argv in commands)
    return [argv[1:] for argv in commands]


def test_quick_start_commands_exit_as_documented(tmp_path, monkeypatch, capsys):
    commands = quick_start_commands()
    assert [argv[0] for argv in commands] == [
        "parse", "spectrum", "check-dist", "check-zero", "check-acs", "check-sacs", "check-glt5",
    ]
    core = openblas_core()
    assert core in QUICK_START_SHA256, f"no digests measured on the OpenBLAS core {core!r}"
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # the documented correct FAIL: the skew part of T(exp(i*t)) is not small
        expected = 1 if argv[:3] == ["check-glt5", "--expr", "T(exp(i*t1))"] else 0
        assert main(argv) == expected, (argv, capsys.readouterr().err)
    sacs_out = tmp_path / commands[5][commands[5].index("--out") + 1]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sacs_out.iterdir()} == SACS_SHA256[core], core
    written = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")
                     if path.suffix == ".csv" or path.name == "plot.svg")
    assert written == sorted(QUICK_START_SHA256[core])
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in written} == QUICK_START_SHA256[core], core


# The verdict policy each Quick start check records in its summary.json.
# For the distribution check only the quadrature's grids are pinned: its
# last_delta floats may move across BLAS kernels.
QUICK_START_POLICY = {
    "product": {
        "quad_tol": 1e-07,
        "slack": 1.5,
        "tolerance": 0.05,
        "verdict_policy": "threshold at largest size plus non-increasing "
                          "errors over the last two size steps",
    },
    "zero": {"slack": 1.5, "tol": 0.1},
    "acs": {
        "decay": 0.5,
        "limsup_surrogate": "max over the two largest tested sizes",
        "slack": 1.5,
        "strategy": "pure-norm splitting (rank part unnecessary)",
    },
    "glt5": {"decay": 0.5, "growth_slack": 1.1, "trend_slack": 1.5},
}
QUICK_START_QUADRATURE = {
    "bump_hi": {"g": 512, "nodes": 262144},
    "bump_lo": {"g": 512, "nodes": 262144},
    "x": {"g": 256, "nodes": 65536},
    "x^2": {"g": 256, "nodes": 65536},
    "x^3": {"g": 256, "nodes": 65536},
}


def test_quick_start_summaries_record_the_verdict_policy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in quick_start_commands():
        if argv[0] in ("check-dist", "check-zero", "check-acs", "check-glt5"):
            main(argv)
    policy = {name: json.loads((tmp_path / "out" / name / "summary.json").read_text())["policy"]
              for name in QUICK_START_POLICY}
    quadrature = policy["product"].pop("quadrature")
    assert policy == QUICK_START_POLICY
    assert {fid: {"g": q["g"], "nodes": q["nodes"]} for fid, q in quadrature.items()} == \
        QUICK_START_QUADRATURE


def test_python_example_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("True [('x', ")
    assert "('bump_hi', " in printed


def test_config_example_runs(tmp_path):
    section = README.read_text().split("## Experiment configs", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "example.cfg"
    path.write_text(block)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["plot.svg", "report.csv", "summary.json"]
