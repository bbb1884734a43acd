"""Config-driven experiment runner binding all modules.

Experiments are described by line-oriented config files::

    [experiment]
    kind = distribution          ; distribution | acs | zero | sacs | spectrum | glt5
    d = 1
    expr = T(2-2*cos(t1))
    sizes = 64; 128; 256         ; multi-indices separated by ';' (',' within)
    mode = lambda
    seed = 1234
    out = out/laplacian

    [tolerances]
    tolerance = 0.05
    slack = 1.5

``ExperimentConfig``'s fields are the one schema for config files and
subcommand options.  ``run_experiment`` writes every artifact atomically;
identical config and seed give identical bytes.  Exit codes: 0 all verdicts
PASS, 1 failed verdict, 2 usage/config error, 3 numerical error; the console
script exits 141 (128 + SIGPIPE) when the reader of its output goes away.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping, NamedTuple

import numpy as np

from . import acs as acs_mod
from . import dsl
from .errors import ConfigurationError, GltLabError, InvalidParameterError
from .gltcalc import glt1_verify, glt5_split_check, materialize, truncate_toeplitz
from .matgen import is_hermitian
from .multiindex import format_multiindex, parse_multiindex
from .reports import Report, atomic_write_text, summary_json, svg_line_chart
from .spectra import QUAD_TOL, SLACK, _finite, _normalize_sizes, _spectrum


def parse_sizes(text: str, d: int | None) -> list[tuple[int, ...]]:
    """Sizes are ';'-separated multi-indices; a bare comma list is accepted
    for one-level (d = 1) structures."""
    text = text.strip()
    if not text:
        return []
    if ";" in text:
        chunks = [c for c in text.split(";") if c.strip()]
    elif d in (None, 1) and "," in text:
        chunks = text.split(",")
    else:
        chunks = [text]
    return [parse_multiindex(c) for c in chunks]


def _field(default, parse):
    """A config field whose text form (file value or option) ``parse`` converts."""
    if isinstance(default, list):
        return field(default_factory=list, metadata={"parse": parse})
    return field(default=default, metadata={"parse": parse})


@dataclass
class ExperimentConfig:
    """One experiment.  The field list is the config schema: every field is
    a config key and, where a subcommand exposes it, an option's ``dest``.
    ``sizes`` is parsed with the already-parsed ``d``."""

    kind: str = _field("", str.strip)
    expr: str | None = _field(None, str.strip)
    d: int | None = _field(None, int)
    r: int | None = _field(None, int)
    sizes: list = _field([], parse_sizes)
    mode: str = _field("sigma", str.strip)
    seed: int | None = _field(None, int)
    out: str = _field("gltlab-out", str.strip)
    plot: bool = _field(False, lambda s: s.strip().lower() in ("1", "true", "yes"))
    basket: str = _field("auto", str.strip)
    tolerance: float = _field(0.05, float)
    slack: float = _field(SLACK, float)
    quad_tol: float = _field(QUAD_TOL, float)
    m_list: list = _field([], lambda s: [int(v) for v in s.split(",")])
    model: str = _field("designed", str.strip)
    trials: int = _field(10000, int)
    p: float = _field(2.0, lambda s: np.inf if s.strip() in ("inf", "oo") else float(s))
    zero_tol: float = _field(0.1, float)
    numeric_degree: int | None = _field(None, int)

    def validate(self) -> list[str]:
        problems = []
        if self.kind not in _KINDS:
            problems.append(f"kind: must be one of {tuple(_KINDS)}, got {self.kind!r}")
        needs_expr = self.kind in ("distribution", "acs", "spectrum", "glt5") or (
            self.kind == "zero" and self.model == "expr"
        )
        if needs_expr and not self.expr:
            problems.append("expr: required for this experiment kind")
        if self.kind != "parse" or self.sizes:
            try:
                _normalize_sizes(self.sizes)
            except GltLabError as exc:
                problems.append(f"sizes: {exc}")
        if self.d is not None and any(len(n) != self.d for n in self.sizes):
            problems.append(f"sizes: every size must have d={self.d} entries")
        if self.kind == "spectrum" and len(self.sizes) > 1:
            problems.append(f"sizes: spectrum takes one size, got {len(self.sizes)}")
        if self.mode not in ("sigma", "lambda"):
            problems.append(f"mode: must be sigma or lambda, got {self.mode!r}")
        if self.seed is not None and self.seed < 0:
            problems.append(f"seed: must be >= 0, got {self.seed}")
        if self.kind == "sacs":
            if self.seed is None:
                problems.append("seed: required for stochastic experiments")
            if self.trials < 100:
                problems.append("trials: at least 100 required")
            if self.model not in acs_mod.MODEL_ZOO:
                problems.append(
                    f"model: unknown {self.model!r}; choose from {sorted(acs_mod.MODEL_ZOO)}"
                )
        if self.kind in ("acs", "sacs"):
            try:
                acs_mod._check_m_list(self.m_list)
            except InvalidParameterError as exc:
                problems.append(f"m_list: {exc}")
        if self.kind == "zero" and self.model not in ("expr", *acs_mod.ZERO_SEQUENCES):
            problems.append(
                f"model: unknown {self.model!r}; choose from "
                f"{sorted(acs_mod.ZERO_SEQUENCES)} or expr"
            )
        if not self.p >= 1:
            problems.append(f"p: must be >= 1 or inf, got {self.p}")
        for key in ("tolerance", "slack", "quad_tol", "zero_tol"):
            value = getattr(self, key)
            if not np.isfinite(value):
                problems.append(f"{key}: must be finite, got {value}")
            elif key in ("tolerance", "zero_tol") and value < 0:
                problems.append(f"{key}: must be >= 0, got {value}")
        if not self.quad_tol > 0:
            problems.append(f"quad_tol: must be > 0, got {self.quad_tol}")
        return problems


def _expression_levels(values: dict) -> int | None:
    """The level count d fixed by the expression's variables, None without a
    parsable expression (whose error then surfaces when the experiment runs)."""
    if not values.get("expr"):
        return None
    try:
        return dsl.levels(values["expr"])
    except GltLabError:
        return None


def _raise_problems(problems: list[str]) -> None:
    if problems:
        raise ConfigurationError(
            "invalid configuration: " + "; ".join(problems), fields=problems
        )


def config_from_mapping(raw: Mapping[str, str]) -> ExperimentConfig:
    """Build a config from text values keyed by field name.

    Every value its field cannot parse, every unknown key and every
    ``validate()`` problem is collected into one ConfigurationError.  The
    ``parse`` subcommand (kind ``parse``) runs no experiment and skips
    ``validate()``.
    """
    schema = fields(ExperimentConfig)
    problems: list[str] = []
    values: dict = {}
    for f in schema:
        if f.name not in raw:
            continue
        parse, text = f.metadata["parse"], raw[f.name]
        try:
            if f.name == "sizes":
                values["sizes"] = parse(text, values.get("d") or _expression_levels(values))
            else:
                values[f.name] = parse(text)
        except (ValueError, GltLabError) as exc:
            problems.append(f"{f.name}: {exc}")
    known = {f.name for f in schema}
    problems.extend(f"{key}: unknown config key" for key in raw if key not in known)
    cfg = ExperimentConfig(**values)
    if cfg.kind != "parse":
        problems.extend(cfg.validate())
    _raise_problems(problems)
    return cfg


def _read_config(path: str) -> dict[str, str]:
    """The merged ``[experiment]`` and ``[tolerances]`` sections of a config file."""
    if not os.path.exists(path):
        raise ConfigurationError(f"config file {path!r} does not exist", fields=["config"])
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config: {exc}", fields=["config"])
    if "experiment" not in parser:
        raise ConfigurationError("missing [experiment] section", fields=["experiment"])
    unknown = [s for s in parser.sections() if s not in ("experiment", "tolerances")]
    if unknown:
        raise ConfigurationError(f"unknown config sections {unknown}", fields=unknown)
    merged: dict[str, str] = {}
    for section in ("experiment", "tolerances"):
        if section in parser:
            merged.update(parser[section])
    return merged


@dataclass
class ExperimentResult:
    passed: bool
    summary: dict
    artifacts: list

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _parse_expression(cfg: ExperimentConfig):
    return dsl.parse(cfg.expr, d=cfg.d, r=cfg.r, numeric_degree=cfg.numeric_degree)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run ``cfg`` and write its artifacts plus ``summary.json`` into ``cfg.out``.

    Every file is rendered before the first one is written, so a run that
    fails leaves no partial output.
    """
    _raise_problems(cfg.validate())
    runner, csv_name = _KINDS[cfg.kind]
    report, header = runner(cfg)
    files = {csv_name: report.csv()}
    if cfg.plot and cfg.kind == "distribution":
        series: dict[str, list] = {}
        for row in report.rows:
            series.setdefault(row.f_id, []).append((row.d_n, row.abs_error))
        files["plot.svg"] = svg_line_chart(series, "distribution error vs size", "d_n",
                                           "abs error")
    summary = {**header, **report.summary(), "kind": cfg.kind,
               "verdict": _verdict(report.passed), "artifacts": list(files)}
    files["summary.json"] = summary_json(summary)
    os.makedirs(cfg.out, exist_ok=True)
    paths = [os.path.join(cfg.out, name) for name in files]
    for path, text in zip(paths, files.values()):
        atomic_write_text(path, text)
    return ExperimentResult(report.passed, summary, paths)


# Each _run_<kind> returns (report, the summary facts only the config knows).


def _run_distribution(cfg: ExperimentConfig):
    e = _parse_expression(cfg)
    basket_ids = None if cfg.basket == "auto" else [s.strip() for s in cfg.basket.split(",")]
    report = glt1_verify(e, cfg.sizes, mode=cfg.mode, r=cfg.r, tolerance=cfg.tolerance,
                         slack=cfg.slack, quad_tol=cfg.quad_tol, basket_ids=basket_ids)
    return report, {"expression": dsl.format_expression(e), "mode": cfg.mode}


class SpectrumRow(NamedTuple):
    index: int
    re: float
    im: float


def _run_spectrum(cfg: ExperimentConfig):
    e = _parse_expression(cfg)
    n = cfg.sizes[-1]
    matrix = materialize(e, n, r=cfg.r)
    _finite(matrix)  # before the Hermitian test, which reads only the band
    values = np.atleast_1d(_spectrum(matrix, cfg.mode, is_hermitian(matrix)))
    rows = [SpectrumRow(idx, c.real, c.imag) for idx, c in enumerate(map(complex, values), 1)]
    report = Report(passed=True, columns=SpectrumRow._fields, rows=rows,
                    notes=list(matrix.notes))
    header = {"expression": dsl.format_expression(e), "n": format_multiindex(n),
              "mode": cfg.mode, "count": int(values.size)}
    return report, header


def _run_acs(cfg: ExperimentConfig):
    e = _parse_expression(cfg)
    target = lambda n: materialize(e, n, r=cfg.r)
    family = lambda m, n: materialize(truncate_toeplitz(e, m), n, r=cfg.r)
    report = acs_mod.acs_check(family, target, cfg.m_list, cfg.sizes, slack=cfg.slack)
    return report, {"expression": dsl.format_expression(e), "family": "truncate"}


def _run_zero(cfg: ExperimentConfig):
    if cfg.model == "expr":
        e = _parse_expression(cfg)
        seq = lambda n: materialize(e, n, r=cfg.r)
        label = dsl.format_expression(e)
    else:
        seq = acs_mod.ZERO_SEQUENCES[cfg.model]
        label = cfg.model
    report = acs_mod.zero_distribution_test(seq, cfg.p, cfg.sizes, tol=cfg.zero_tol)
    return report, {"sequence": label}


def _run_sacs(cfg: ExperimentConfig):
    model = acs_mod.MODEL_ZOO[cfg.model](cfg.seed)
    report = acs_mod.sacs_check(model, cfg.m_list, cfg.sizes, cfg.trials)
    return report, {"model": cfg.model, "seed": cfg.seed, "trials": cfg.trials}


def _run_glt5(cfg: ExperimentConfig):
    e = _parse_expression(cfg)
    report = glt5_split_check(lambda n: materialize(e, n, r=cfg.r), cfg.sizes)
    return report, {"expression": dsl.format_expression(e)}


# The experiment kinds: each one's runner and the CSV file it writes.
_KINDS = {
    "distribution": (_run_distribution, "report.csv"),
    "acs": (_run_acs, "certificate.csv"),
    "zero": (_run_zero, "trend.csv"),
    "sacs": (_run_sacs, "certificate.csv"),
    "spectrum": (_run_spectrum, "spectrum.csv"),
    "glt5": (_run_glt5, "split.csv"),
}


# ---------------------------------------------------------------------------
# command line
#
# Every option's dest is an ExperimentConfig field and its value stays text:
# options not given are absent (argparse.SUPPRESS), so the dataclass holds
# the only defaults and config_from_mapping the only conversions.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gltlab",
        description="spectral laboratory for structured matrix-sequences",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, **defaults):
        sub = subs.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        sub.set_defaults(func=func, **defaults)
        return sub

    run = command("run", "run an experiment described by a config file", cmd_run)
    run.add_argument("config")
    run.add_argument("--out", help="output directory")
    run.add_argument("--seed")
    run.add_argument("--plot", action="store_const", const="true")

    pa = command("parse", "parse an expression and print its canonical form", cmd_parse,
                 kind="parse")
    pa.add_argument("--expr", required=True)
    pa.add_argument("--d")
    pa.add_argument("--degree", dest="numeric_degree", metavar="DEGREE",
                    help="numeric fallback degree")

    sp = command("spectrum", "materialize an expression and print its spectrum",
                 cmd_spectrum, kind="spectrum")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--n", dest="sizes", metavar="N", required=True,
                    help="size multi-index, e.g. 64 or 8,8")
    sp.add_argument("--mode", choices=("sigma", "lambda"))
    sp.add_argument("--d")
    sp.add_argument("--degree", dest="numeric_degree", metavar="DEGREE")
    sp.add_argument("--out", help="output directory")

    cd = command("check-dist", "distribution check of an expression", cmd_check,
                 kind="distribution")
    cd.add_argument("--expr", required=True)
    cd.add_argument("--sizes", required=True)
    cd.add_argument("--mode", choices=("sigma", "lambda"))
    cd.add_argument("--d")
    cd.add_argument("--tol", dest="tolerance", metavar="TOL")
    cd.add_argument("--degree", dest="numeric_degree", metavar="DEGREE")
    cd.add_argument("--basket", help="auto or a comma list of test-function ids")
    cd.add_argument("--out", help="output directory")
    cd.add_argument("--plot", action="store_const", const="true")

    ca = command("check-acs", "a.c.s. certificate for a truncation family", cmd_check,
                 kind="acs")
    ca.add_argument("--expr", required=True)
    ca.add_argument("--sizes", required=True)
    ca.add_argument("--m-list", dest="m_list", required=True)
    ca.add_argument("--d")
    ca.add_argument("--out", help="output directory")

    cz = command("check-zero", "zero-distribution test", cmd_check, kind="zero")
    cz.add_argument("--model", default="spike", help="spike | identity | rankone | expr")
    cz.add_argument("--expr")
    cz.add_argument("--sizes", required=True)
    cz.add_argument("--p", default="1")
    cz.add_argument("--tol", dest="zero_tol", metavar="TOL")
    cz.add_argument("--d")
    cz.add_argument("--out", help="output directory")

    cs = command("check-sacs", "stochastic a.c.s. Monte Carlo verification", cmd_check,
                 kind="sacs")
    cs.add_argument("--model", help="deterministic | designed | constant_s")
    cs.add_argument("--sizes", required=True)
    cs.add_argument("--m-list", dest="m_list", required=True)
    cs.add_argument("--trials")
    cs.add_argument("--out", help="output directory")
    cs.add_argument("--seed")

    cg = command("check-glt5", "quasi-Hermitian split check", cmd_check, kind="glt5")
    cg.add_argument("--expr", required=True)
    cg.add_argument("--sizes", required=True)
    cg.add_argument("--d")
    cg.add_argument("--out", help="output directory")

    return parser


def _options(args) -> dict[str, str]:
    """The parsed options as a config mapping (field name -> text)."""
    raw = dict(vars(args))
    for key in ("command", "func", "config"):
        raw.pop(key, None)
    return raw


def cmd_run(args) -> int:
    cfg = config_from_mapping({**_read_config(args.config), **_options(args)})
    result = run_experiment(cfg)
    print(f"{cfg.kind}: {_verdict(result.passed)} "
          f"({len(result.artifacts)} artifacts in {cfg.out})")
    return result.exit_code


def cmd_parse(args) -> int:
    cfg = config_from_mapping(_options(args))
    print(dsl.format_expression(_parse_expression(cfg)))
    return 0


def cmd_spectrum(args) -> int:
    raw = _options(args)
    raw["sizes"] += ";"  # --n names one multi-index, never a comma list of sizes
    cfg = config_from_mapping(raw)
    if raw.get("out"):
        result = run_experiment(cfg)
        print(f"spectrum written to {cfg.out}")
        return result.exit_code
    report, _ = _run_spectrum(cfg)
    for row in report.rows:
        print(f"{row.re!r},{row.im!r}")
    return 0


def cmd_check(args) -> int:
    raw = _options(args)
    if raw["kind"] == "zero" and raw.get("expr"):
        raw["model"] = "expr"
    result = run_experiment(config_from_mapping(raw))
    print(f"{raw['kind']}: {_verdict(result.passed)}")
    return result.exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GltLabError as exc:
        label = "numerical error" if exc.exit_code == 3 else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main() -> None:
    """The ``gltlab`` console script and ``python -m gltlab``: :func:`main`,
    exiting 141 with no traceback when stdout is a closed pipe."""
    try:
        code = main()
        sys.stdout.flush()  # a broken pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: point it at devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
