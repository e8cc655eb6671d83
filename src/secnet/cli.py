"""Command-line front end.

::

    secrecy eval     --config cfg.ini [--out out.csv] [--format csv|json] [--seed S] [--trials N]
    secrecy sweep    --config cfg.ini ...
    secrecy validate [--config cfg.ini] [figure ids via config] ...
    secrecy figure   [FIG_ID] [--config cfg.ini] ...

The configuration document is an INI file with sections [geometry],
[fading_b], [fading_e], [scenario], [mc] and [run]; every key has a default,
so the empty document is valid.  Keys with the suffix ``_db`` are converted
from decibels to linear scale at parse time.  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Sequence

from . import figures, validation
from .fading import MomentFitError
from .metrics import ScenarioConfig
from .montecarlo import MetricEstimate, MonteCarloConfig
from .specfun import ConvergenceError

__all__ = ["ConfigError", "RunSpec", "main", "parse_config", "run"]

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

_COMMANDS = ("eval", "sweep", "validate", "figure")
_METRICS = tuple(validation.METRICS)
# Each evaluation method as (metric entry, scenario, case, mc) -> MetricEstimate.
_ROUTES = {
    "closed-form": lambda metric, cfg, case, mc: MetricEstimate(
        metric.closed_form(cfg, case), 0.0, "closed-form", 0),
    "quadrature": lambda metric, cfg, case, mc: metric.quadrature(cfg, case),
    "monte-carlo": lambda metric, cfg, case, mc: metric.simulate(cfg, (case,), mc)[case],
}
_METHODS = (*_ROUTES, "all")


class ConfigError(Exception):
    """Configuration document or command-line problem, with line anchoring."""


@dataclass(frozen=True)
class RunSpec:
    """Everything one invocation needs, fully validated."""

    command: str
    scenario: ScenarioConfig
    mc: MonteCarloConfig
    metric: str
    method: str
    figure_id: str | None
    sweep_param: str | None
    sweep_values: tuple[float, ...] | None
    output_path: str | None
    output_format: str
    scenario_kwargs: dict
    figure_subset: tuple[str, ...] | None = None


# ---------------------------------------------------------------------------
# Config document
# ---------------------------------------------------------------------------

_SCHEMA = {
    "geometry": {
        "d": int, "upsilon": float, "lambda_b": float, "lambda_e": float,
    },
    "fading_b": {"alpha": float, "mu": float},
    "fading_e": {"alpha": float, "mu": float},
    "scenario": {
        "n_a": int, "n_b": int, "n_e": int,
        "eta_k": float, "eta_k_db": float, "eta_e": float, "eta_e_db": float,
        "rate": float, "k": int, "ordering": str, "eavesdropper_policy": str,
    },
    "mc": {
        "trials": int, "seed": int, "workers": int,
        "window_radius": float, "ci_level": float,
    },
    "run": {
        "metric": str, "method": str, "figure": str, "figures": str,
        "sweep_param": str, "sweep_values": str, "out": str, "format": str,
    },
}

_SWEEPABLE = {
    "lambda_b": float, "lambda_e": float, "upsilon": float, "d": int,
    "alpha_b": float, "mu_b": float, "alpha_e": float, "mu_e": float,
    "n_a": int, "n_b": int, "n_e": int,
    "eta_k": float, "eta_k_db": float, "eta_e": float, "eta_e_db": float,
    "rate": float, "k": int, "trials": int,
}


def _line_index(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to its 1-based line number in the document."""
    index: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            index[(section, "")] = lineno
            continue
        if section is not None and ("=" in line or ":" in line):
            sep = min((line.find(c) for c in "=:" if c in line))
            key = line[:sep].strip().lower()
            index[(section, key)] = lineno
    return index


def _anchored(lines: dict, section: str, key: str, message: str) -> ConfigError:
    lineno = lines.get((section, key)) or lines.get((section, ""))
    where = f"line {lineno}: " if lineno else ""
    return ConfigError(f"{where}{message}")


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def parse_config(text: str, command: str = "eval") -> RunSpec:
    """Parse and validate a configuration document into a RunSpec.

    Unknown keys, malformed values and invariant violations raise
    ConfigError with the offending line number where one exists.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {_COMMANDS}")
    lines = _line_index(text)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        sec = section.strip().lower()
        if sec not in _SCHEMA:
            raise _anchored(lines, sec, "", f"unknown section [{section}]")
        values[sec] = {}
        for key, raw in parser.items(sec):
            key = key.strip().lower()
            if key not in _SCHEMA[sec]:
                raise _anchored(lines, sec, key, f"unknown key {key!r} in [{sec}]")
            conv = _SCHEMA[sec][key]
            if conv is str:
                values[sec][key] = raw.strip()
                continue
            try:
                values[sec][key] = conv(raw.strip())
            except ValueError as exc:
                raise _anchored(lines, sec, key,
                                f"key {key!r} in [{sec}]: cannot parse {raw!r} as {conv.__name__}") from exc

    def get(section: str, key: str, default):
        return values.get(section, {}).get(key, default)

    for side, eta_key in (("scenario", "eta_k"), ("scenario", "eta_e")):
        if get(side, eta_key, None) is not None and get(side, eta_key + "_db", None) is not None:
            raise _anchored(lines, side, eta_key,
                            f"give either {eta_key} or {eta_key}_db, not both")

    eta_k = get("scenario", "eta_k", None)
    if eta_k is None:
        db = get("scenario", "eta_k_db", None)
        eta_k = _db_to_linear(db) if db is not None else 1.0
    eta_e = get("scenario", "eta_e", None)
    if eta_e is None:
        db = get("scenario", "eta_e_db", None)
        eta_e = _db_to_linear(db) if db is not None else 1.0

    scenario_kwargs = dict(
        d=get("geometry", "d", 2),
        upsilon=get("geometry", "upsilon", 2.0),
        lambda_b=get("geometry", "lambda_b", 1.0),
        lambda_e=get("geometry", "lambda_e", 1.0),
        alpha_b=get("fading_b", "alpha", 2.0),
        mu_b=get("fading_b", "mu", 1.0),
        alpha_e=get("fading_e", "alpha", 2.0),
        mu_e=get("fading_e", "mu", 1.0),
        n_a=get("scenario", "n_a", 1),
        n_b=get("scenario", "n_b", 1),
        n_e=get("scenario", "n_e", 1),
        eta_k=eta_k,
        eta_e=eta_e,
        rate=get("scenario", "rate", 1.0),
        user_index=get("scenario", "k", 1),
        ordering=get("scenario", "ordering", "nearest"),
        eavesdropper_policy=get("scenario", "eavesdropper_policy", "nearest"),
    )
    try:
        scenario = ScenarioConfig.build(**scenario_kwargs)
    except (ValueError, MomentFitError) as exc:
        message = str(exc)
        anchor = next(
            (lineno for (sec, key), lineno in lines.items() if key and key in message),
            None,
        )
        where = f"line {anchor}: " if anchor else ""
        raise ConfigError(f"{where}invalid scenario: {message}") from exc

    try:
        mc = MonteCarloConfig(
            trials=get("mc", "trials", 10**6),
            master_seed=get("mc", "seed", 20260810),
            window_radius=get("mc", "window_radius", None),
            worker_hint=get("mc", "workers", 1),
            ci_level=get("mc", "ci_level", 0.997),
        )
    except ValueError as exc:
        raise _anchored(lines, "mc", "", f"invalid mc section: {exc}") from exc

    metric = get("run", "metric", "cop").lower()
    if metric not in _METRICS:
        raise _anchored(lines, "run", "metric", f"metric must be one of {_METRICS}, got {metric!r}")
    method = get("run", "method", "closed-form").lower()
    if method not in _METHODS:
        raise _anchored(lines, "run", "method", f"method must be one of {_METHODS}, got {method!r}")
    figure_id = get("run", "figure", None)
    if command == "figure" and figure_id is not None and figure_id not in figures.FIGURE_IDS:
        raise _anchored(lines, "run", "figure",
                        f"figure must be one of {figures.FIGURE_IDS}, got {figure_id!r}")

    sweep_param = get("run", "sweep_param", None)
    sweep_values = None
    if command == "sweep":
        if sweep_param is None:
            raise _anchored(lines, "run", "sweep_param", "sweep command requires sweep_param")
        sweep_param = sweep_param.lower()
        if sweep_param not in _SWEEPABLE:
            raise _anchored(lines, "run", "sweep_param",
                            f"sweep_param must name a scenario or mc field: {sorted(_SWEEPABLE)}")
        raw_values = get("run", "sweep_values", None)
        if raw_values is None:
            raise _anchored(lines, "run", "sweep_values", "sweep command requires sweep_values")
        sweep_values = _parse_grid(raw_values, lines)
    elif sweep_param is not None:
        raise _anchored(lines, "run", "sweep_param", "sweep_param is only valid for the sweep command")

    fmt = get("run", "format", "csv").lower()
    if fmt not in ("csv", "json"):
        raise _anchored(lines, "run", "format", f"format must be csv or json, got {fmt!r}")

    figure_subset = None
    raw_subset = get("run", "figures", None)
    if raw_subset is not None:
        figure_subset = tuple(f.strip() for f in raw_subset.split(",") if f.strip())
        bad = [f for f in figure_subset if f not in validation.VALIDATION_FIGURES]
        if bad or not figure_subset:
            raise _anchored(lines, "run", "figures",
                            f"figures must name one or more of {validation.VALIDATION_FIGURES}, "
                            f"got {bad or raw_subset!r}")

    spec = RunSpec(
        command=command, scenario=scenario, mc=mc, metric=metric, method=method,
        figure_id=figure_id, sweep_param=sweep_param, sweep_values=sweep_values,
        output_path=get("run", "out", None), output_format=fmt,
        scenario_kwargs=scenario_kwargs, figure_subset=figure_subset,
    )
    for value in sweep_values or ():
        try:
            _rebuild(spec, sweep_param, value)
        except (ValueError, MomentFitError) as exc:
            raise _anchored(lines, "run", "sweep_values",
                            f"sweep point {sweep_param} = {value:g} is invalid: {exc}") from exc
    return spec


def _parse_grid(raw: str, lines: dict) -> tuple[float, ...]:
    raw = raw.strip()
    try:
        if ":" in raw:
            start, stop, count = raw.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 2:
                raise ValueError("grid needs at least 2 points")
            step = (stop - start) / (count - 1)
            return tuple(start + i * step for i in range(count))
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise _anchored(lines, "run", "sweep_values",
                        f"cannot parse sweep_values {raw!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".secrecy-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(fmt: str, header: list[str], rows: list[tuple], meta: dict, out: str | None) -> None:
    if fmt == "csv":
        body = ",".join(header) + "\n"
        body += "\n".join(",".join(_fmt(v) for v in row) for row in rows)
        body += "\n"
        if out is None:
            sys.stdout.write(body)
        else:
            _atomic_write(out, body)
            _atomic_write(out + ".meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
    else:
        doc = {"meta": meta, "columns": header,
               "rows": [[v if not isinstance(v, float) else float(_fmt(v)) for v in row] for row in rows]}
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if out is None:
            sys.stdout.write(payload)
        else:
            _atomic_write(out, payload)


def _metric_rows(cfg: ScenarioConfig, spec: RunSpec, swept=None) -> list[tuple]:
    metric = validation.METRICS[spec.metric]
    case = metric.case_of(cfg)
    rows = []
    for method in tuple(_ROUTES) if spec.method == "all" else (spec.method,):
        est = _ROUTES[method](metric, cfg, case, spec.mc)
        row = (spec.metric, case, cfg.user_index, est.value, est.half_width, method)
        rows.append(row + ((swept,) if swept is not None else ()))
    return rows


def _rebuild(spec: RunSpec, param: str, value) -> tuple[ScenarioConfig, MonteCarloConfig]:
    value = _SWEEPABLE[param](value)
    if param == "trials":
        return spec.scenario, replace(spec.mc, trials=value)
    kwargs = dict(spec.scenario_kwargs)
    if param.endswith("_db"):
        kwargs[param[:-3]] = _db_to_linear(value)
    else:
        kwargs["user_index" if param == "k" else param] = value
    return ScenarioConfig.build(**kwargs), spec.mc


def _scenario_meta(spec: RunSpec) -> dict:
    meta = {"scenario": figures.describe_scenario(spec.scenario),
            "mc": {"trials": spec.mc.trials, "seed": spec.mc.master_seed,
                   "workers": spec.mc.worker_hint, "ci_level": spec.mc.ci_level,
                   "window_radius": spec.mc.window_radius},
            "metric": spec.metric, "method": spec.method}
    return meta


def run(spec: RunSpec) -> int:
    """Execute a RunSpec; returns the process exit code."""
    if spec.command == "eval":
        header = ["metric", "case", "k", "value", "half_width", "provenance"]
        rows = _metric_rows(spec.scenario, spec)
        _emit(spec.output_format, header, rows, _scenario_meta(spec), spec.output_path)
        return EXIT_OK

    if spec.command == "sweep":
        header = ["metric", "case", "k", "value", "half_width", "provenance", spec.sweep_param]
        rows = []
        for value in spec.sweep_values:
            cfg, mc = _rebuild(spec, spec.sweep_param, value)
            swept_spec = replace(spec, mc=mc)
            rows.extend(_metric_rows(cfg, swept_spec, swept=value))
        meta = _scenario_meta(spec)
        meta["sweep_param"] = spec.sweep_param
        meta["sweep_values"] = list(spec.sweep_values)
        _emit(spec.output_format, header, rows, meta, spec.output_path)
        return EXIT_OK

    if spec.command == "figure":
        if spec.figure_id is None:
            raise ConfigError("figure command requires a figure id "
                              f"(positional argument or [run] figure = one of {figures.FIGURE_IDS})")
        meta, header, rows = figures.figure_table(spec.figure_id)
        _emit(spec.output_format, header, rows, meta, spec.output_path)
        return EXIT_OK

    # validate
    rows_v = validation.run_validation(
        trials=spec.mc.trials,
        capacity_trials=max(spec.mc.trials // 10, 1),
        seed=spec.mc.master_seed,
        workers=spec.mc.worker_hint,
        figure_ids=spec.figure_subset,
        window_radius=spec.mc.window_radius,
    )
    header = ["metric", "case", "k", "value", "half_width", "provenance", "figure", "status"]
    rows = []
    failures = 0
    gate_z = rows_v[0].mc_gate_z
    print(f"simulation gate: family-wise level {validation.GATE_LEVEL} over "
          f"m={len(rows_v)} rows, |z| <= {gate_z:.3f} per row")
    for row in rows_v:
        status = "pass" if row.passed else "fail"
        failures += 0 if row.passed else 1
        rows.append((row.metric, row.case, row.k, row.closed_form, 0.0, "closed-form", row.figure, status))
        rows.append((row.metric, row.case, row.k, row.quadrature, 0.0, "quadrature", row.figure,
                     "pass" if row.quad_ok else "fail"))
        rows.append((row.metric, row.case, row.k, row.mc_value, row.mc_half_width, "monte-carlo",
                     row.figure, "pass" if row.mc_ok else "fail"))
        print(f"[{status}] {row.figure} {row.metric} {row.case} k={row.k} "
              f"closed={row.closed_form:.6g} quad={row.quadrature:.6g} "
              f"mc={row.mc_value:.6g}+-{row.mc_half_width:.2g} z={row.mc_z:+.2f}")
    meta = {"checks": len(rows_v), "failures": failures,
            "trials": spec.mc.trials, "seed": spec.mc.master_seed,
            "gate_level": validation.GATE_LEVEL, "gate_z": gate_z}
    if spec.output_path is not None:
        _emit(spec.output_format, header, rows, meta, spec.output_path)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecy",
        description="Secrecy metrics of random MIMO networks: evaluation, sweeps, "
                    "cross-validation, and figure data tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "figure":
            p.add_argument("figure_id", nargs="?", choices=figures.FIGURE_IDS,
                           help="figure to reproduce (alternative to [run] figure)")
        p.add_argument("--config", help="path to the INI configuration document")
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
        p.add_argument("--seed", type=int, help="override the Monte Carlo master seed")
        p.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
        p.add_argument("--workers", type=int, help="override the Monte Carlo worker count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        else:
            if args.command in ("eval", "sweep"):
                raise ConfigError(f"{args.command} requires --config")
            text = ""
        spec = parse_config(text, command=args.command)
        if args.command == "figure" and getattr(args, "figure_id", None):
            spec = replace(spec, figure_id=args.figure_id)
        overrides = {field: value for field, value in (
            ("master_seed", args.seed), ("trials", args.trials), ("worker_hint", args.workers),
        ) if value is not None}
        try:
            spec = replace(spec, mc=replace(spec.mc, **overrides))
        except ValueError as exc:
            raise ConfigError(f"invalid command-line override: {exc}") from exc
        if args.out is not None:
            spec = replace(spec, output_path=args.out)
        if args.format is not None:
            spec = replace(spec, output_format=args.format)
        return run(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ConvergenceError, MomentFitError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
