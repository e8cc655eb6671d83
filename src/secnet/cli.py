"""Command-line front end.

::

    secrecy eval     --config cfg.ini [--out out.csv] [--format csv|json] [--seed S] [--trials N]
    secrecy sweep    --config cfg.ini ...
    secrecy validate [--config cfg.ini] [figure ids via config] ...
    secrecy figure   [FIG_ID] [--config cfg.ini] ...

The configuration document is an INI file with sections [geometry],
[fading_b], [fading_e], [scenario], [mc] and [run], in any letter case;
every key has a default, so the empty document is valid.  Each line stands
alone: a whole-line ``[section]`` header, ``key = value`` or ``key: value``,
blank, or a ``#``/``;`` comment; an inline comment starts at ``#`` or ``;``
after whitespace.  Keys suffixed ``_db`` are converted from decibels, ``%``
is literal, and numbers must be finite.  The flags --seed, --trials,
--workers, --out, --format and the figure id replace the keys they name.
Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

from . import figures, montecarlo, validation
from .fading import MomentFitError
from .metrics import ScenarioConfig
from .montecarlo import METRICS, MetricEstimate, MonteCarloConfig

__all__ = ["ConfigError", "RunSpec", "main", "parse_config", "run"]

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

_COMMANDS = ("eval", "sweep", "validate", "figure")
# Each evaluation method as (metric id, scenario, mc) -> MetricEstimate; a simulator's keys are labels.
_ROUTES = {
    "closed-form": lambda name, cfg, mc: MetricEstimate(
        METRICS[name].closed_form(cfg), 0.0, "closed-form", 0),
    "quadrature": lambda name, cfg, mc: montecarlo.integrate_defining(name, cfg),
    "monte-carlo": lambda name, cfg, mc: METRICS[name].simulate(cfg, mc),
}
_METHODS = (*_ROUTES, "all")
# A failed computation, running out of memory included: exit 3, or a NaN row under method = all.
_NUMERIC_ERRORS = (ArithmeticError, MemoryError, MomentFitError)


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

def _decibels(raw) -> float:
    try:
        return 10.0 ** (float(raw) / 10.0)
    except OverflowError:
        # past the float range: infinite, which the scenario then rejects at its line
        return math.inf


def _names(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _grid(raw: str) -> tuple[float, ...]:
    """Sweep points: ``start:stop:count`` evenly spaced, or a comma list."""
    if ":" in raw:
        start, stop, count = raw.split(":")
        start, stop, count = float(start), float(stop), int(count)
        if count < 2:
            raise ValueError("grid needs at least 2 points")
        step = (stop - start) / (count - 1)
        return tuple(start + i * step for i in range(count))
    grid = tuple(float(v) for v in _names(raw))
    if not grid:
        raise ValueError("no points")
    return grid


# A document key's parser, the field it sets on its target (a ScenarioConfig.build keyword,
# a MonteCarloConfig field or a RunSpec field), its sweep axis name, its default
# (None leaves the field to the target), and the values it takes (None: any that parse).
class _Key(NamedTuple):
    parse: Callable
    target: str
    field: str
    sweep: str | None = None
    default: object = None
    choices: tuple | None = None


_KEYS = {
    ("geometry", "d"): _Key(int, "scenario", "d", sweep="d"),
    ("geometry", "upsilon"): _Key(float, "scenario", "upsilon", sweep="upsilon"),
    ("geometry", "lambda_b"): _Key(float, "scenario", "lambda_b", sweep="lambda_b"),
    ("geometry", "lambda_e"): _Key(float, "scenario", "lambda_e", sweep="lambda_e"),
    ("fading_b", "alpha"): _Key(float, "scenario", "alpha_b", sweep="alpha_b"),
    ("fading_b", "mu"): _Key(float, "scenario", "mu_b", sweep="mu_b"),
    ("fading_e", "alpha"): _Key(float, "scenario", "alpha_e", sweep="alpha_e"),
    ("fading_e", "mu"): _Key(float, "scenario", "mu_e", sweep="mu_e"),
    ("scenario", "n_a"): _Key(int, "scenario", "n_a", sweep="n_a"),
    ("scenario", "n_b"): _Key(int, "scenario", "n_b", sweep="n_b"),
    ("scenario", "n_e"): _Key(int, "scenario", "n_e", sweep="n_e"),
    ("scenario", "eta_k"): _Key(float, "scenario", "eta_k", sweep="eta_k"),
    ("scenario", "eta_k_db"): _Key(_decibels, "scenario", "eta_k", sweep="eta_k_db"),
    ("scenario", "eta_e"): _Key(float, "scenario", "eta_e", sweep="eta_e"),
    ("scenario", "eta_e_db"): _Key(_decibels, "scenario", "eta_e", sweep="eta_e_db"),
    ("scenario", "rate"): _Key(float, "scenario", "rate", sweep="rate"),
    ("scenario", "k"): _Key(int, "scenario", "user_index", sweep="k"),
    ("scenario", "ordering"): _Key(str, "scenario", "ordering"),
    ("scenario", "eavesdropper_policy"): _Key(str, "scenario", "eavesdropper_policy"),
    ("mc", "trials"): _Key(int, "mc", "trials", sweep="trials", default=10**6),
    ("mc", "seed"): _Key(int, "mc", "master_seed", default=20260810),
    ("mc", "workers"): _Key(int, "mc", "worker_hint"),
    ("mc", "ci_level"): _Key(float, "mc", "ci_level"),
}
# [run] sweep_param takes the sweep axes of the keys above.
_SWEEPS = {entry.sweep: key for key, entry in _KEYS.items() if entry.sweep}
_KEYS.update({
    ("run", "metric"): _Key(str.lower, "run", "metric", default="cop", choices=tuple(METRICS)),
    ("run", "method"): _Key(str.lower, "run", "method", default="closed-form", choices=_METHODS),
    ("run", "figure"): _Key(str, "run", "figure_id", choices=figures.FIGURE_IDS),
    ("run", "figures"): _Key(_names, "run", "figure_subset", choices=validation.VALIDATION_FIGURES),
    ("run", "sweep_param"): _Key(str.lower, "run", "sweep_param", choices=tuple(_SWEEPS)),
    ("run", "sweep_values"): _Key(_grid, "run", "sweep_values"),
    ("run", "out"): _Key(str, "run", "output_path"),
    ("run", "format"): _Key(str.lower, "run", "output_format", default="csv", choices=("csv", "json")),
})
_SECTIONS = {section for section, _ in _KEYS}
# A key line: the key, its first delimiter and the value; an inline comment starts at # or ; after whitespace.
_KEY_LINE = re.compile(r"([^=:]+)[=:]\s*(.*)")
_INLINE_COMMENT = re.compile(r"\s[#;].*")
# Each command-line flag (or positional argument) with the key it overrides.
_FLAGS = {"--seed": ("mc", "seed"), "--trials": ("mc", "trials"), "--workers": ("mc", "workers"),
          "--out": ("run", "out"), "--format": ("run", "format"), "figure_id": ("run", "figure")}


def _anchored(where: dict, section: str, key: str, message: str) -> ConfigError:
    """Prefix message with where the key was set: its line or flag, else its section's line."""
    at = where.get((section, key)) or where.get((section, ""))
    return ConfigError(f"{at}: {message}" if at else message)


def _named_key(exc: Exception, keys) -> tuple[str, str] | None:
    """Of keys, the first whose field exc's message names earliest, as a
    whole word with ``_`` or a space between its parts; None if none is named."""
    named = [(match.start(), i, key) for i, key in enumerate(keys)
             if (match := re.search(rf"\b{_KEYS[key].field.replace('_', '[_ ]')}\b", str(exc)))]
    return min(named)[2] if named else None


def _parse_value(where: dict, section: str, key: str, raw: str):
    """raw parsed by its key's parser and checked against the key's choices, each named once."""
    entry = _KEYS[section, key]
    try:
        value = entry.parse(raw.strip())
    except ValueError as exc:
        kind = "int" if entry.parse is int else f"a grid ({exc})" if entry.parse is _grid else "float"
        raise _anchored(where, section, key,
                        f"key {key!r} in [{section}]: cannot parse {raw!r} as {kind}") from exc
    names = value if isinstance(value, tuple) else (value,)
    if entry.choices is not None and (not names or not set(names) <= set(entry.choices)):
        raise _anchored(where, section, key, f"{key} must be one of {entry.choices}, got {raw.strip()!r}")
    if entry.choices is not None and len(set(names)) < len(names):
        raise _anchored(where, section, key, f"{key} names a choice more than once, got {raw.strip()!r}")
    return value


def parse_config(text: str, command: str = "eval",
                 overrides: Mapping[str, str] | None = None) -> RunSpec:
    """Parse and validate a configuration document into a RunSpec.

    ``overrides`` maps command-line flags (``--seed``, ``--trials``,
    ``--workers``, ``--out``, ``--format``, and ``figure_id`` for the
    positional figure) to raw values that replace the keys they name.
    Unknown keys, malformed values and invariant violations raise
    ConfigError with the offending line number, or flag, where one exists.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {_COMMANDS}")
    # One pass, a line at a time; only "\n" ends a line, as in main's UTF-8 error ("\r" strips as space).
    where: dict[tuple[str, str], str] = {}
    given: dict[tuple[str, str], object] = {}
    section = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _INLINE_COMMENT.sub("", raw).strip()
        if not line or line.startswith(("#", ";")):
            continue
        at = f"line {lineno}"
        malformed = f"{at}: malformed config document: "
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"{at}: unknown section {line}")
            if (section, "") in where:
                raise ConfigError(f"{malformed}section {line} repeats")
            where[section, ""] = at
            continue
        if section is None:
            raise ConfigError(f"{malformed}text before the first [section] header")
        if not (match := _KEY_LINE.fullmatch(line)):
            raise ConfigError(f"{malformed}not a 'key = value' line")
        key = match[1].strip().lower()
        if (section, key) in where:
            raise ConfigError(f"{malformed}key {key!r} repeats in [{section}]")
        where[section, key] = at
        if (section, key) not in _KEYS:
            raise ConfigError(f"{at}: unknown key {key!r} in [{section}]")
        if key in ("sweep_param", "sweep_values") and command != "sweep":
            raise ConfigError(f"{at}: {key} is only valid for the sweep command")
        given[section, key] = _parse_value(where, section, key, match[2])
    overrides = overrides or {}
    for flag, raw in overrides.items():
        where[_FLAGS[flag]] = flag
        given[_FLAGS[flag]] = _parse_value(where, *_FLAGS[flag], raw)

    values: dict[str, dict] = {"scenario": {}, "mc": {},
                               "run": {e.field: None for e in _KEYS.values() if e.target == "run"}}
    set_by: dict[tuple[str, str], tuple[str, str]] = {}
    for key, entry in _KEYS.items():
        if key in given and (first := set_by.setdefault((entry.target, entry.field), key)) != key:
            raise _anchored(where, *first, f"give either {first[1]} or {key[1]}, not both")
        if key in given or entry.default is not None:
            values[entry.target][entry.field] = given.get(key, entry.default)

    built = {}
    for target, build, label in (("scenario", ScenarioConfig.build, "scenario"),
                                 ("mc", MonteCarloConfig, "mc section")):
        try:
            built[target] = build(**values[target])
        except (ValueError, MomentFitError) as exc:
            # The messages name the offending field: anchor at the given key
            # (line or flag) that set it, else at its section.
            keys = [key for key in (*given, *_KEYS) if _KEYS[key].target == target]
            raise _anchored(where, *(_named_key(exc, keys) or ("", "")),
                            f"invalid {label}: {exc}") from exc

    run = values["run"]
    if command == "sweep":
        for key in ("sweep_param", "sweep_values"):
            if run[key] is None:
                raise _anchored(where, "run", key, f"sweep command requires {key}")

    spec = RunSpec(command=command, **built, scenario_kwargs=values["scenario"], **run)
    for value in spec.sweep_values or ():
        try:
            _rebuild(spec, value)
        except (ValueError, MomentFitError) as exc:
            raise _anchored(where, "run", "sweep_values",
                            f"sweep point {spec.sweep_param} = {value:g} is invalid: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Evaluation plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _atomic_write(path: str, payload: str) -> None:
    """Write payload to path through a temporary file beside it, removed on
    failure; a path that cannot be written is a ConfigError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".secrecy-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _json_value(x):
    """JSON has no inf or nan (RFC 8259): a non-finite float is written as null."""
    if isinstance(x, float):
        return float(_fmt(x)) if math.isfinite(x) else None
    return x


def _json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(fmt: str, header: list[str], rows: list[tuple], meta: dict, out: str | None) -> None:
    if fmt == "csv":
        payload = ",".join(header) + "\n"
        payload += "\n".join(",".join(_fmt(v) for v in row) for row in rows)
        payload += "\n"
    else:
        doc = {"meta": meta, "columns": header, "rows": [[_json_value(v) for v in row] for row in rows]}
        payload = _json(doc)
    if out is None:
        sys.stdout.write(payload)
        return
    _atomic_write(out, payload)
    if fmt == "csv":
        _atomic_write(out + ".meta.json", _json(meta))


def _metric_rows(spec: RunSpec, failed: list[str], swept=None) -> list[tuple[tuple, float | None]]:
    """One row per method, each with its share of rejected realizations: None but for a
    monte-carlo estimate.  Under ``all`` a route's numeric error is printed, its row NaN and its
    name appended to failed."""
    cfg = spec.scenario
    case = METRICS[spec.metric].case_of(cfg)
    rows = []
    for method in tuple(_ROUTES) if spec.method == "all" else (spec.method,):
        rate = None
        try:
            est = _ROUTES[method](spec.metric, cfg, spec.mc)
            if method == "monte-carlo":
                rate = est.rejection_rate
        except _NUMERIC_ERRORS as exc:
            if spec.method != "all":
                raise
            print(f"numeric error: {method}: {exc}", file=sys.stderr)
            failed.append(method)
            est = MetricEstimate(math.nan, math.nan, method, 0)
        row = (spec.metric, case, cfg.user_index, est.value, est.half_width, method)
        rows.append((row + ((swept,) if swept is not None else ()), rate))
    return rows


def _rebuild(spec: RunSpec, value: float) -> RunSpec:
    """The spec at one point of its sweep: the swept key set to value."""
    entry = _KEYS[_SWEEPS[spec.sweep_param]]
    if entry.parse is int and not float(value).is_integer():
        raise ValueError(f"{spec.sweep_param} takes integer values, got {value:g}")
    build, kwargs = {"scenario": (ScenarioConfig.build, spec.scenario_kwargs),
                     "mc": (MonteCarloConfig, asdict(spec.mc))}[entry.target]
    return replace(spec, **{entry.target: build(**{**kwargs, entry.field: entry.parse(value)})})


def _scenario_meta(spec: RunSpec) -> dict:
    return {"scenario": figures.describe_scenario(spec.scenario),
            "mc": {key: getattr(spec.mc, entry.field) for (_, key), entry in _KEYS.items()
                   if entry.target == "mc"},
            "metric": spec.metric, "method": spec.method}


def run(spec: RunSpec) -> int:
    """Execute a RunSpec; returns the process exit code."""
    if spec.command in ("eval", "sweep"):
        header = ["metric", "case", "k", "value", "half_width", "provenance"]
        meta = _scenario_meta(spec)
        failed: list[str] = []
        if spec.command == "eval":
            rated = _metric_rows(spec, failed)
        else:
            header.append(spec.sweep_param)
            meta.update(sweep_param=spec.sweep_param, sweep_values=list(spec.sweep_values))
            rated = [pair for value in spec.sweep_values
                     for pair in _metric_rows(_rebuild(spec, value), failed, swept=value)]
        rows = [row for row, _ in rated]
        # row i's share of rejected realizations; null for a row that simulated nothing
        meta["rejection_rate"] = [rate for _, rate in rated]
        _emit(spec.output_format, header, rows, meta, spec.output_path)
        return EXIT_NUMERIC_ERROR if failed else EXIT_OK

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
    )
    header = ["metric", "case", "k", "value", "half_width", "provenance", "figure", "status"]
    rows = []
    failures = sum(not row.passed for row in rows_v)
    gate_z = rows_v[0].mc_gate_z
    print(f"simulation gate: family-wise level {validation.GATE_LEVEL} over "
          f"m={len(rows_v)} rows, |z| <= {gate_z:.3f} per row")
    for row in rows_v:
        status = "pass" if row.passed else "fail"
        checks = ((row.closed_form, 0.0, row.passed), (row.quadrature, 0.0, row.quad_ok),
                  (row.mc_value, row.mc_half_width, row.mc_ok))
        for method, (value, half_width, ok) in zip(_ROUTES, checks):
            rows.append((row.metric, row.case, row.k, value, half_width, method, row.figure,
                         "pass" if ok else "fail"))
        print(f"[{status}] {row.figure} {row.metric} {row.case} k={row.k} "
              f"closed={row.closed_form:.6g} quad={row.quadrature:.6g} "
              f"mc={row.mc_value:.6g}+-{row.mc_half_width:.2g} z={row.mc_z:+.2f}")
    meta = {"checks": len(rows_v), "failures": failures,
            "trials": spec.mc.trials, "seed": spec.mc.master_seed,
            "gate_level": validation.GATE_LEVEL, "gate_z": gate_z, "ci_level": validation.CI_LEVEL,
            "rejection_rate": [rate for row in rows_v for rate in (None, None, row.mc_rejection_rate)]}
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
            p.add_argument("figure_id", nargs="?",
                           help="figure to reproduce (alternative to [run] figure)")
        p.add_argument("--config", help="path to the INI configuration document")
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", help="output format, csv or json (default csv)")
        p.add_argument("--seed", help="override the Monte Carlo master seed")
        p.add_argument("--trials", help="override the Monte Carlo trial count")
        p.add_argument("--workers", help="override the Monte Carlo worker count")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {flag: value for flag in _FLAGS
                 if (value := getattr(args, flag.lstrip("-"), None)) is not None}
    try:
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            except UnicodeDecodeError as exc:
                line = exc.object.count(b"\n", 0, exc.start) + 1
                raise ConfigError(f"line {line}: config {args.config!r} is not UTF-8: {exc.reason} "
                                  f"(byte 0x{exc.object[exc.start]:02x})") from exc
        else:
            if args.command in ("eval", "sweep"):
                raise ConfigError(f"{args.command} requires --config")
            text = ""
        return run(parse_config(text, command=args.command, overrides=overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _NUMERIC_ERRORS as exc:
        reason = f"out of memory: {exc}" if isinstance(exc, MemoryError) else exc
        print(f"numeric error: {reason}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
