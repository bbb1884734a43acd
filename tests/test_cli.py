import json
import os
import subprocess
import sys

import pytest

import gltlab
from gltlab import cli
from gltlab.cli import (
    ExperimentConfig,
    _read_config,
    config_from_mapping,
    main,
    parse_sizes,
    run_experiment,
)
from gltlab.errors import ConfigurationError, GltLabError
from test_dsl import DEEP, NON_FINITE, OUT_OF_RANGE


def write_config(tmp_path, body):
    path = tmp_path / "exp.cfg"
    path.write_text(body)
    return str(path)


DIST_CFG = """
[experiment]
kind = distribution
d = 1
expr = T(2-2*cos(t1))
sizes = 32; 64
mode = lambda
out = {out}
basket = x,x^2

[tolerances]
tolerance = 0.05
"""


def test_every_exported_name_resolves():
    missing = [name for name in gltlab.__all__ if not hasattr(gltlab, name)]
    assert missing == []
    assert len(set(gltlab.__all__)) == len(gltlab.__all__)


def test_parse_sizes_forms():
    assert parse_sizes("64;128", 1) == [(64,), (128,)]
    assert parse_sizes("64,128,256", 1) == [(64,), (128,), (256,)]
    assert parse_sizes("8,8; 16,16", 2) == [(8, 8), (16, 16)]
    assert parse_sizes("8,8", 2) == [(8, 8)]


def test_config_roundtrip_and_run(tmp_path):
    out = tmp_path / "artifacts"
    path = write_config(tmp_path, DIST_CFG.format(out=out))
    cfg = config_from_mapping(_read_config(path))
    assert cfg.kind == "distribution"
    assert cfg.sizes == [(32,), (64,)]
    result = run_experiment(cfg)
    assert result.passed
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0] == "n,d_n,mode,F_id,empirical,symbol,abs_error"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert summary["kind"] == "distribution"
    assert main(["run", path]) == 0


def test_run_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "artifacts"
    path = write_config(tmp_path, DIST_CFG.format(out=out))
    run_experiment(config_from_mapping(_read_config(path)))
    first = {f: (out / f).read_bytes() for f in os.listdir(out)}
    run_experiment(config_from_mapping(_read_config(path)))
    second = {f: (out / f).read_bytes() for f in os.listdir(out)}
    assert first == second


def test_invalid_config_names_fields(tmp_path):
    body = """
[experiment]
kind = distribution
d = 1
expr = T(2-2*cos(t1))
sizes = 64; 32
"""
    with pytest.raises(ConfigurationError) as err:
        config_from_mapping(_read_config(write_config(tmp_path, body)))
    assert any("sizes" in f for f in err.value.fields)


def test_missing_config_file():
    with pytest.raises(ConfigurationError):
        _read_config("/nonexistent/exp.cfg")


def test_validation_collects_all_problems():
    cfg = ExperimentConfig(kind="sacs", sizes=[], m_list=[], model="nope")
    problems = cfg.validate()
    joined = " ".join(problems)
    assert "sizes" in joined and "seed" in joined and "m_list" in joined and "model" in joined


def test_a_deep_non_finite_or_out_of_range_expression_exits_2(capsys):
    for text in [*DEEP.values(), *NON_FINITE, *(text for text, _ in OUT_OF_RANGE)]:
        assert main(["parse", "--expr", text]) == 2
        assert capsys.readouterr().err.startswith("error: 1:")
    assert main(["parse", "--expr", "T(exp(1000*cos(t1)))", "--degree", "2"]) == 2
    assert capsys.readouterr().err == "error: 1:1: symbol argument out of range\n"


def test_main_exit_codes(tmp_path, capsys):
    # usage error: bad config
    bad = write_config(tmp_path, "[experiment]\nkind = nope\n")
    assert main(["run", bad]) == 2
    # every rule of the size sweep is a config error that names the key
    for sizes, problem in [("0;4", "size multi-index must be >= 1 componentwise, got (0,)"),
                           ("8,8;16", "sizes must share the same number of levels")]:
        out = tmp_path / "bad_sizes"
        assert main(["check-dist", "--expr", "T(2-2*cos(t1))", "--sizes", sizes,
                     "--out", str(out)]) == 2
        assert f"invalid configuration: sizes: {problem}" in capsys.readouterr().err
        assert not out.exists()

    # verdict FAIL -> 1
    code = main([
        "check-zero", "--model", "identity", "--sizes", "16;32", "--p", "2",
        "--out", str(tmp_path / "z1"),
    ])
    assert code == 1

    # verdict PASS -> 0
    code = main([
        "check-zero", "--model", "spike", "--sizes", "64;128;256", "--p", "1",
        "--out", str(tmp_path / "z2"),
    ])
    assert code == 0


def test_main_parse_and_spectrum(tmp_path, capsys):
    assert main(["parse", "--expr", "T(2-2*cos(t1))"]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "T(-exp(-i*t1)+2-exp(i*t1))"

    assert main(["parse", "--expr", "T("]) == 2

    assert main(["spectrum", "--expr", "T(2-2*cos(t1))", "--n", "4",
                 "--mode", "lambda"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    first = float(lines[0].split(",")[0])
    assert abs(first - 0.3819660112501051) < 1e-9


def test_spectrum_artifacts(tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--expr", "T(2-2*cos(t1))", "--n", "8",
                 "--mode", "sigma", "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 9


def test_check_acs_cli(tmp_path):
    out = tmp_path / "acs"
    code = main([
        "check-acs", "--expr", "T(1+cos(t1)+0.25*cos(2*t1))",
        "--sizes", "16;32", "--m-list", "1,2", "--out", str(out),
    ])
    assert code == 0
    cert = (out / "certificate.csv").read_text().splitlines()
    assert cert[0] == "m,n,d_n,rank_frac,norm_part,freq_rank,freq_norm,freq_S,verdict"


def test_check_sacs_cli(tmp_path):
    out = tmp_path / "sacs"
    code = main([
        "check-sacs", "--model", "designed", "--sizes", "10;12",
        "--m-list", "2,4", "--trials", "200", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    # missing seed is a config error
    assert main([
        "check-sacs", "--model", "designed", "--sizes", "10;12",
        "--m-list", "2,4", "--trials", "200", "--out", str(out),
    ]) == 2


def test_check_dist_of_a_scalar_only_expression(tmp_path, capsys):
    for extra in ([], ["--d", "1"]):
        out = tmp_path / f"scalar{len(extra)}"
        assert main(["check-dist", "--expr", "2", "--sizes", "8;16;32", "--out", str(out),
                     *extra]) == 0
        assert capsys.readouterr().out.strip() == "distribution: PASS"
        assert json.loads((out / "summary.json").read_text())["verdict"] == "PASS"


def test_check_glt5_cli(tmp_path):
    out = tmp_path / "glt5"
    code = main([
        "check-glt5", "--expr", "T(2-2*cos(t1))", "--sizes", "16;32",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "split.csv").read_text().splitlines()
    assert lines[0] == "n,norm_x,norm_y,trace_norm_y_over_nu,verdict"
    assert main([
        "check-glt5", "--expr", "T(exp(i*t1))", "--sizes", "16;32;64",
        "--out", str(out),
    ]) == 1


def test_pseudo_inverse_notes_reach_the_summary(tmp_path):
    out = tmp_path / "zero"
    assert main(["check-zero", "--expr", "Z^-1", "--sizes", "8;16;32", "--p", "1",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["notes"] == [
        f"pseudo-inverse at n={n} truncated {n} singular values below 1e-10 * sigma_1"
        for n in (8, 16, 32)
    ]
    assert main(["check-zero", "--model", "spike", "--sizes", "64;128;256", "--p", "1",
                 "--out", str(out)]) == 0
    assert "notes" not in json.loads((out / "summary.json").read_text())


# A real scalar times a Hermitian operand is Hermitian, on the symbol side too.
# The eigenvalues of fun(exp,2*T(.)) reach e^8: the windowed moments are of
# order 10^3..10^9 and their errors, though halving with n, stay far above an
# absolute tolerance of 0.05, so that case is judged by the two bumps.
@pytest.mark.parametrize("scale, basket", [("-", "auto"), ("2*", "bump_lo,bump_hi")])
def test_fun_of_a_real_scaled_hermitian_operand(scale, basket, tmp_path):
    assert main(["check-dist", "--expr", f"fun(exp,{scale}T(2-2*cos(t1)))",
                 "--sizes", "64;128;256", "--mode", "lambda", "--basket", basket,
                 "--out", str(tmp_path / "fun")]) == 0


def test_plot_artifact(tmp_path):
    out = tmp_path / "plots"
    code = main([
        "check-dist", "--expr", "T(2-2*cos(t1))", "--sizes", "32;64",
        "--mode", "lambda", "--basket", "x,x^2", "--out", str(out), "--plot",
    ])
    assert code == 0
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "xlink:href" not in svg and "http://" not in svg.replace(
        "http://www.w3.org/2000/svg", "")


def test_no_partial_outputs_on_failure(tmp_path):
    out = tmp_path / "partial"
    with pytest.raises(Exception):
        run_experiment(ExperimentConfig(
            kind="distribution", expr="T(", d=1, sizes=[(8,), (16,)],
            out=str(out),
        ))
    assert not (out / "report.csv").exists()
    assert not list(out.glob("*.tmp")) if out.exists() else True


def test_option_value_errors_exit_2_and_name_the_field(tmp_path, capsys):
    assert main(["check-acs", "--expr", "T(1+cos(t1))", "--sizes", "8;16",
                 "--m-list", "1,x", "--out", str(tmp_path / "a")]) == 2
    assert "m_list:" in capsys.readouterr().err
    assert main(["check-zero", "--sizes", "8;16", "--p", "abc",
                 "--out", str(tmp_path / "z")]) == 2
    assert "p:" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "z").exists()


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    body = DIST_CFG.format(out=tmp_path / "u").replace("tolerance =", "tolerence =")
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigurationError) as err:
        config_from_mapping(_read_config(path))
    assert any("tolerence" in f for f in err.value.fields)
    assert main(["run", path]) == 2
    assert "tolerence" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()
    # a misspelt section would drop all its keys
    path = write_config(tmp_path, DIST_CFG.format(out=tmp_path / "u").replace(
        "[tolerances]", "[tolerance]"))
    assert main(["run", path]) == 2
    assert "unknown config sections ['tolerance']" in capsys.readouterr().err
    # the quadrature always starts at g = 64: grid is no key
    path = write_config(tmp_path, DIST_CFG.format(out=tmp_path / "u") + "grid = 16\n")
    assert main(["run", path]) == 2
    assert "grid" in capsys.readouterr().err
    assert not (tmp_path / "u").exists()


def test_spectrum_n_is_one_multi_index(capsys):
    assert main(["spectrum", "--expr", "T(4-2*cos(t1)-2*cos(t2))", "--n", "8,8",
                 "--mode", "lambda"]) == 0
    assert len(capsys.readouterr().out.split()) == 64


def test_spectrum_refuses_more_than_one_size(tmp_path, capsys):
    assert main(["spectrum", "--expr", "T(2-2*cos(t1))", "--n", "8;16",
                 "--mode", "lambda"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sizes: spectrum takes one size, got 2" in captured.err
    path = write_config(tmp_path, "[experiment]\nkind = spectrum\nexpr = T(2-2*cos(t1))\n"
                        f"sizes = 8;16\nout = {tmp_path / 'spec'}\n")
    assert main(["run", path]) == 2
    assert "sizes: spectrum takes one size, got 2" in capsys.readouterr().err
    assert not (tmp_path / "spec").exists()


def test_numeric_fourier_grid_over_the_cap_exits_2(monkeypatch, capsys):
    import gltlab.symbols as symbols_mod

    # 256^4 nodes would need tens of GiB: the cap must refuse the grid unbuilt
    def no_grid(samples_per_dim, d):
        raise AssertionError("the Fourier grid was built")

    monkeypatch.setattr(symbols_mod, "frequency_grid", no_grid)
    assert main(["parse", "--expr", "T(abs(t1)+abs(t2)+abs(t3)+abs(t4))",
                 "--degree", "1"]) == 2
    assert "Fourier grid of 256^4 nodes exceeds the cap" in capsys.readouterr().err


def test_negative_numeric_degree_exits_2(capsys):
    # a negative degree has no offsets; it must not yield a zero symbol
    assert main(["parse", "--expr", "T(abs(t1))", "--degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "degree (-1,) has a negative entry" in captured.err


def _all_error_types(cls=GltLabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _all_error_types(sub)


@pytest.mark.parametrize("error", list(_all_error_types()), ids=lambda c: c.__name__)
def test_every_error_type_maps_to_exit_2_or_3(error, monkeypatch, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_parse", fail)
    code = main(["parse", "--expr", "1"])
    assert code == error.exit_code and code in (2, 3)
    label = "numerical error" if code == 3 else "error"
    assert capsys.readouterr().err.startswith(f"{label}: ")


SUBCOMMAND_VS_CONFIG = {
    "check-dist": (
        ["--expr", "T(2-2*cos(t1))", "--sizes", "32;64", "--mode", "lambda",
         "--tol", "0.5", "--basket", "x,x^2", "--plot"],
        "kind = distribution\nexpr = T(2-2*cos(t1))\nsizes = 32;64\nmode = lambda\n"
        "basket = x,x^2\nplot = true\n[tolerances]\ntolerance = 0.5\n",
    ),
    "check-acs": (
        ["--expr", "T(1+cos(t1))", "--sizes", "16;32", "--m-list", "1,2",
         "--family", "same"],
        "kind = acs\nexpr = T(1+cos(t1))\nsizes = 16;32\nm_list = 1,2\nfamily = same\n",
    ),
    "check-zero": (
        ["--expr", "D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)", "--sizes", "32;64",
         "--tol", "0.3"],
        "kind = zero\nmodel = expr\nexpr = D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)\n"
        "sizes = 32;64\np = 1\n[tolerances]\nzero_tol = 0.3\n",
    ),
    "check-sacs": (
        ["--model", "designed", "--sizes", "8;12", "--m-list", "2,4", "--trials", "200",
         "--seed", "5"],
        "kind = sacs\nmodel = designed\nsizes = 8;12\nm_list = 2,4\ntrials = 200\nseed = 5\n",
    ),
    "check-glt5": (
        ["--expr", "T(exp(i*t1))", "--sizes", "16;32"],
        "kind = glt5\nexpr = T(exp(i*t1))\nsizes = 16;32\n",
    ),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_VS_CONFIG))
def test_subcommand_and_config_write_identical_artifacts(command, tmp_path):
    options, body = SUBCOMMAND_VS_CONFIG[command]
    by_cli, by_config = tmp_path / "cli", tmp_path / "config"
    code = main([command, *options, "--out", str(by_cli)])
    path = write_config(tmp_path, f"[experiment]\nout = {by_config}\n{body}")
    assert main(["run", path]) == code
    files = sorted(os.listdir(by_cli))
    assert files == sorted(os.listdir(by_config)) and "summary.json" in files
    for name in files:
        assert (by_cli / name).read_bytes() == (by_config / name).read_bytes(), name


# The trend tests read m in the order given: 8,4,2 and 2,1 used to FAIL where
# the same values in increasing order PASS.
@pytest.mark.parametrize("m_list", ["0,2", "8,4,2", "2,1"])
@pytest.mark.parametrize("command", ["check-acs", "check-sacs"])
def test_an_m_list_not_increasing_from_one_is_a_config_error(command, m_list, tmp_path, capsys):
    options = ["--expr", "T(1+cos(t1)+0.25*cos(2*t1))"] if command == "check-acs" else [
        "--model", "designed", "--trials", "1000", "--seed", "42"]
    code = main([command, *options, "--sizes", "16;24", "--m-list", m_list,
                 "--out", str(tmp_path / "m")])
    assert code == 2
    assert "m_list: m_list must be a non-empty, strictly increasing list of integers >= 1" \
        in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_a_percent_sign_in_a_config_value_is_taken_literally(tmp_path):
    out = tmp_path / "out" / "100%"
    path = write_config(tmp_path, DIST_CFG.format(out=out))
    assert main(["run", path]) == 0
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("argv,key", [
    (["check-zero", "--model", "spike", "--sizes", "16;32;64", "--p", "nan"], "p"),
    (["check-dist", "--expr", "T(2-2*cos(t1))", "--sizes", "16;32", "--tol", "nan"],
     "tolerance"),
    (["check-zero", "--model", "spike", "--sizes", "16;32", "--tol", "inf"], "zero_tol"),
    (["check-dist", "--expr", "T(2-2*cos(t1))", "--sizes", "16;32", "--tol", "-1"], "tolerance"),
    (["check-zero", "--model", "spike", "--sizes", "16;32;64", "--tol", "-1"], "zero_tol"),
])
def test_a_non_finite_float_option_is_a_config_error(argv, key, tmp_path, capsys):
    out = tmp_path / "nf"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{key}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,key", [("quad_tol = -1", "quad_tol"), ("quad_tol = 0", "quad_tol"),
                                      ("quad_tol = nan", "quad_tol"), ("slack = inf", "slack"),
                                      ("zero_tol = nan", "zero_tol")])
def test_a_non_finite_or_non_positive_float_key_is_a_config_error(line, key, tmp_path, capsys):
    out = tmp_path / "nf"
    path = write_config(tmp_path, DIST_CFG.format(out=out) + line + "\n")
    assert main(["run", path]) == 2
    assert f"{key}: must be" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "s1"
    assert main(["check-sacs", "--model", "designed", "--sizes", "8", "--m-list", "2",
                 "--trials", "100", "--seed", "-1", "--out", str(out)]) == 2
    path = write_config(tmp_path, f"[experiment]\nout = {out}\nkind = sacs\nmodel = designed\n"
                                  "sizes = 8\nm_list = 2\ntrials = 100\nseed = -3\n")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "seed: must be >= 0, got -1" in err and "seed: must be >= 0, got -3" in err
    assert not out.exists()


def test_bare_comma_sizes_take_levels_from_the_expression():
    two_level = cli.config_from_mapping(
        {"kind": "distribution", "expr": "T(4-2*cos(t1)-2*cos(t2))", "sizes": "8,8"})
    assert two_level.sizes == [(8, 8)]
    one_level = cli.config_from_mapping(
        {"kind": "distribution", "expr": "T(2-2*cos(t1))", "sizes": "8,16"})
    assert one_level.sizes == [(8,), (16,)]


@pytest.mark.parametrize("command,artifact", [("check-dist", "report.csv"),
                                              ("check-glt5", "split.csv")])
def test_bare_comma_sizes_on_a_two_level_expression(command, artifact, tmp_path):
    out = tmp_path / command
    assert main([command, "--expr", "T(4-2*cos(t1)-2*cos(t2))", "--sizes", "8,8",
                 "--out", str(out)]) in (0, 1)
    rows = (out / artifact).read_text().splitlines()[1:]
    assert rows and all(row.startswith('"8,8",') for row in rows)


# The product overflows to inf inside the band, and its matmul makes NaN
# (0 * inf) outside it, where a test that reads only the band would miss it.
OVERFLOWING_PRODUCT = "T(1e200+1e200*cos(t1))*T(1e200+1e200*cos(t1))"


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.parametrize("mode", ["lambda", "sigma"])
@pytest.mark.parametrize("command", [["check-dist", "--sizes", "64;128;256"],
                                     ["spectrum", "--n", "64"]])
def test_a_non_finite_matrix_exits_3_in_both_modes(command, mode, tmp_path, capsys):
    # lambda mode of check-dist used to decide Hermitian first and exit 2
    argv = [*command, "--expr", OVERFLOWING_PRODUCT, "--mode", mode, "--out", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numerical error: matrix has non-finite entries\n"


def test_a_singular_block_symbol_exits_3(tmp_path, capsys):
    argv = ["check-dist", "--expr", "T([1,1;1,1])^-1", "--sizes", "8;16;32", "--out", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numerical error: pointwise inverse failed: Singular matrix\n"


@pytest.mark.parametrize("command, rows", [(["check-dist", "--sizes", "16;32"], [16, 32]),
                                           (["spectrum", "--n", "32"], [32])])
def test_each_matrix_is_read_once_for_finiteness(command, rows, monkeypatch, tmp_path):
    import gltlab.spectra as spectra_mod

    read = []
    finite = spectra_mod._finite
    for module in (spectra_mod, cli):
        monkeypatch.setattr(module, "_finite", lambda a: read.append(a.shape[0]) or finite(a))
    argv = [*command, "--expr", "T(2-2*cos(t1))", "--mode", "lambda", "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    assert read == rows


@pytest.mark.parametrize("expr",["T(2-2*cos(t1))", "T((0.5+0.5*exp(i*t1))^1000)"])
def test_the_console_script_exits_141_without_a_traceback_on_a_closed_pipe(expr):
    # A short output breaks the pipe at the final flush, a long one in print.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gltlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "gltlab", "parse", "--expr", expr],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")
