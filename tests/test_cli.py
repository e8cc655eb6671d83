"""Command-line front end: config parsing, output schemas, determinism of
emitted files, and exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

from secnet import cli, figures, montecarlo, validation
from secnet.cli import ConfigError, parse_config
from secnet.metrics import ScenarioConfig
from secnet.montecarlo import MetricEstimate, MonteCarloConfig

MINIMAL = ""

FIG6_DOC = """
[geometry]
d = 2
upsilon = 2
lambda_b = 0.2
lambda_e = 0.1

[fading_b]
alpha = 2
mu = 1

[fading_e]
alpha = 2
mu = 4

[scenario]
n_a = 2
n_b = 1
n_e = 2
eta_k_db = 0
k = 2

[mc]
trials = 20000
seed = 99

[run]
metric = pnz
"""


# fig11's scenario with k = 2 at rate 5: outage, PNZ and secrecy capacity all
# lie well inside their ranges for both orderings and all four pairings.
REGISTRY_DOC = """
[geometry]
lambda_b = 1
lambda_e = 1

[scenario]
eta_k_db = 15
eta_e_db = 0
rate = 5
k = 2
ordering = {ordering}
eavesdropper_policy = {policy}

[mc]
trials = {trials}
seed = 2718

[run]
metric = {metric}
method = all
"""
REGISTRY_CASES = [(m, c) for m, entry in montecarlo.METRICS.items() for c in entry.cases]

# Each sweep name, a point off its default, the ScenarioConfig.build or
# MonteCarloConfig keyword it sets, the value it sets, and where it lands.
SWEEP_TARGETS = [
    ("lambda_b", 0.5, "lambda_b", 0.5, lambda cfg, mc: cfg.geometry.lambda_b),
    ("lambda_e", 0.5, "lambda_e", 0.5, lambda cfg, mc: cfg.geometry.lambda_e),
    ("upsilon", 3, "upsilon", 3.0, lambda cfg, mc: cfg.geometry.upsilon),
    ("d", 3, "d", 3, lambda cfg, mc: cfg.geometry.d),
    ("alpha_b", 3, "alpha_b", 3.0, lambda cfg, mc: cfg.fading_b.alpha),
    ("mu_b", 2, "mu_b", 2.0, lambda cfg, mc: cfg.fading_b.mu),
    ("alpha_e", 3, "alpha_e", 3.0, lambda cfg, mc: cfg.fading_e.alpha),
    ("mu_e", 2, "mu_e", 2.0, lambda cfg, mc: cfg.fading_e.mu),
    ("n_a", 2, "n_a", 2, lambda cfg, mc: cfg.n_a),
    ("n_b", 2, "n_b", 2, lambda cfg, mc: cfg.n_b),
    ("n_e", 2, "n_e", 2, lambda cfg, mc: cfg.n_e),
    ("eta_k", 2, "eta_k", 2.0, lambda cfg, mc: cfg.eta_k),
    ("eta_k_db", 10, "eta_k", 10.0, lambda cfg, mc: cfg.eta_k),
    ("eta_e", 2, "eta_e", 2.0, lambda cfg, mc: cfg.eta_e),
    ("eta_e_db", 10, "eta_e", 10.0, lambda cfg, mc: cfg.eta_e),
    ("rate", 2, "rate", 2.0, lambda cfg, mc: cfg.rate),
    ("k", 2, "user_index", 2, lambda cfg, mc: cfg.user_index),
    ("trials", 7, "trials", 7, lambda cfg, mc: mc.trials),
]
DEFAULT_MC = {"trials": 10**6, "master_seed": 20260810, "worker_hint": 1}


@pytest.fixture
def evaluated(monkeypatch):
    """Replace the closed-form route by one that records each (scenario, mc) it is given."""
    seen = []

    def record(name, cfg, mc):
        seen.append((cfg, mc))
        return MetricEstimate(0.5, 0.0, "closed-form", 0)

    monkeypatch.setitem(cli._ROUTES, "closed-form", record)
    return seen


class TestParseConfig:
    def test_empty_document_gets_documented_defaults(self):
        spec = parse_config(MINIMAL, command="eval")
        cfg = spec.scenario
        assert cfg.geometry.d == 2
        assert cfg.geometry.upsilon == 2.0
        assert cfg.user_index == 1
        assert cfg.ordering == "nearest"
        assert cfg.eavesdropper_policy == "nearest"

    def test_db_conversion(self):
        spec = parse_config("[scenario]\neta_k_db = 5\n", command="eval")
        assert spec.scenario.eta_k == pytest.approx(10**0.5, rel=1e-12)

    def test_linear_and_db_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("[scenario]\neta_k = 2\neta_k_db = 3\n", command="eval")

    def test_negative_density_names_invariant_and_line(self):
        doc = "[geometry]\nlambda_b = -1\n"
        with pytest.raises(ConfigError, match=r"line 2.*lambda_b"):
            parse_config(doc, command="eval")

    # Every simulation window is sized from its side law: [mc] has no window key.
    @pytest.mark.parametrize("doc, message", [
        ("[geometry]\nd = 2\nbandwidth = 5\n", "line 3: unknown key 'bandwidth' in [geometry]"),
        ("[mc]\nwindow_radius = 12\n", "line 2: unknown key 'window_radius' in [mc]"),
    ])
    def test_unknown_key_is_line_anchored(self, doc, message):
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            parse_config(doc, command="eval")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[antenna]\nn = 2\n", command="eval")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="unknown command 'bogus'"):
            parse_config(MINIMAL, command="bogus")

    def test_sweep_requires_axis(self):
        with pytest.raises(ConfigError, match="sweep_param"):
            parse_config(MINIMAL, command="sweep")

    def test_sweep_axis_must_name_field(self):
        doc = "[run]\nsweep_param = bandwidth\nsweep_values = 1,2\n"
        with pytest.raises(ConfigError, match="sweep_param"):
            parse_config(doc, command="sweep")

    @pytest.mark.parametrize("key", ["sweep_param", "sweep_values"])
    def test_sweep_keys_outside_sweep_are_line_anchored(self, key):
        doc = f"[run]\nmetric = cop\n{key} = lambda_b\n"
        with pytest.raises(ConfigError, match=rf"^line 3: {key} is only valid for the sweep command"):
            parse_config(doc, command="eval")

    def test_sweep_grid_forms(self):
        doc = "[run]\nsweep_param = lambda_b\nsweep_values = 0.5:1.5:3\n"
        spec = parse_config(doc, command="sweep")
        assert spec.sweep_values == pytest.approx((0.5, 1.0, 1.5))
        doc = "[run]\nsweep_param = k\nsweep_values = 1, 2, 4\n"
        assert parse_config(doc, command="sweep").sweep_values == pytest.approx((1.0, 2.0, 4.0))

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_figure_id_validated(self, command):
        # checked under every command, also those that ignore it
        with pytest.raises(ConfigError, match=r"^line 2: figure must be one of \('fig2'"):
            parse_config("[run]\nfigure = fig99\n", command=command)
        with pytest.raises(ConfigError, match=r"^figure_id: figure must be one of \('fig2'"):
            parse_config(MINIMAL, command=command, overrides={"figure_id": "fig99"})

    def test_validate_figure_subset(self):
        spec = parse_config("[run]\nfigures = fig3, fig6\n", command="validate")
        assert spec.figure_subset == ("fig3", "fig6")
        with pytest.raises(ConfigError, match="figures"):
            parse_config("[run]\nfigures = fig99\n", command="validate")

    def test_repeated_validate_figure_is_config_error(self, tmp_path, capsys):
        # run twice, each row of fig3 would be gated as one of a family of 4, not 2
        with pytest.raises(ConfigError, match=r"^line 2: figures names a choice more than once, got 'fig3, fig3'"):
            parse_config("[run]\nfigures = fig3, fig3\n", command="validate")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nfigures = fig6, fig3, fig6\n")
        assert cli.main(["validate", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: line 2: figures names a choice more than once")
        with pytest.raises(ValueError, match="each once"):
            validation.run_validation(trials=16, capacity_trials=16, figure_ids=("fig3", "fig3"))

    def test_empty_validate_subset_is_config_error(self):
        with pytest.raises(ConfigError, match=r"line 2.*figures"):
            parse_config("[run]\nfigures =\n", command="validate")
        with pytest.raises(ValueError, match="figure_ids must name one or more"):
            validation.run_validation(trials=16, capacity_trials=16, figure_ids=())

    @pytest.mark.parametrize("param, values", [("lambda_b", "-1,1"), ("k", "0,1")])
    def test_invalid_sweep_point_is_anchored_config_error(self, param, values):
        doc = f"[run]\nsweep_param = {param}\nsweep_values = {values}\n"
        with pytest.raises(ConfigError, match=rf"line 3.*{param} = (-1|0)\b"):
            parse_config(doc, command="sweep")

    def test_one_point_grid_is_anchored_config_error(self):
        doc = "[run]\nsweep_param = lambda_b\nsweep_values = 1:4:1\n"
        with pytest.raises(ConfigError, match=r"^line 3: .*grid needs at least 2 points"):
            parse_config(doc, command="sweep")

    @pytest.mark.parametrize("values", [",", "", " , ,"])
    def test_empty_sweep_grid_is_anchored_config_error(self, values):
        doc = f"[run]\nsweep_param = lambda_b\nsweep_values = {values}\n"
        with pytest.raises(ConfigError, match=r"^line 3: .*sweep_values"):
            parse_config(doc, command="sweep")

    @pytest.mark.parametrize("doc, line, field", [
        ("[geometry]\nlambda_b = nan\n", 2, "lambda_b"),
        ("[geometry]\nd = 2\nlambda_e = inf\n", 3, "lambda_e"),
        ("[geometry]\nupsilon = inf\n", 2, "upsilon"),
        ("[scenario]\nrate = nan\n", 2, "rate"),
        ("[scenario]\nrate = inf\n", 2, "rate"),
        ("[scenario]\nk = 2\neta_k_db = 1e400\n", 3, "eta_k"),
        ("[scenario]\neta_k_db = 5000\n", 2, "eta_k"),
        ("[scenario]\neta_e = nan\n", 2, "eta_e"),
        ("[fading_e]\nmu = inf\n", 2, "mu_e"),
        ("[mc]\ntrials = 10\nci_level = nan\n", 3, "ci_level"),
        ("[mc]\nci_level = inf\n", 2, "ci_level"),
        ("[run]\nsweep_param = lambda_b\nsweep_values = 1, nan\n", 3, "lambda_b = nan"),
        ("[run]\nsweep_param = upsilon\nsweep_values = inf\n", 3, "upsilon = inf"),
        ("[run]\nsweep_param = eta_e_db\nsweep_values = 0, 4000\n", 3, "eta_e_db = 4000"),
    ], ids=["lambda_b-nan", "lambda_e-inf", "upsilon-inf", "rate-nan", "rate-inf", "eta_k_db-1e400",
            "eta_k_db-5000", "eta_e-nan", "mu_e-inf", "ci_level-nan", "ci_level-inf",
            "sweep-nan", "sweep-inf", "sweep-eta_e_db-4000"])
    def test_non_finite_number_is_anchored_config_error(self, tmp_path, capsys, doc, line, field):
        command = "sweep" if "sweep_param" in doc else "eval"
        with pytest.raises(ConfigError, match=rf"^line {line}: .*{field}.*(nan|inf)"):
            parse_config(doc, command=command)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(doc)
        assert cli.main([command, "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: line {line}: ")

    @pytest.mark.parametrize("param, values, bad", [
        ("k", "1,1.5,2", "1.5"), ("d", "2.7", "2.7"), ("n_b", "0.5:2.5:3", "0.5")])
    def test_fractional_sweep_point_for_integer_field_is_config_error(self, param, values, bad):
        doc = f"[run]\nsweep_param = {param}\nsweep_values = {values}\n"
        with pytest.raises(ConfigError, match=rf"line 3.*{param} = {bad} .*integer"):
            parse_config(doc, command="sweep")

    def test_integral_grid_for_integer_field_is_accepted(self):
        doc = "[run]\nsweep_param = k\nsweep_values = 1:3:3\n"
        assert parse_config(doc, command="sweep").sweep_values == (1.0, 2.0, 3.0)

    def test_scenario_error_anchors_at_whole_key(self):
        # "d" occurs inside "and" of the message; the error belongs to alpha
        doc = "[geometry]\nd = 2\n\n[fading_b]\nalpha = -1\n"
        with pytest.raises(ConfigError, match=r"^line 5: .*alpha"):
            parse_config(doc, command="eval")

    @pytest.mark.parametrize("doc, line", [
        ("[fading_b]\nalpha = 2\n\n[fading_e]\nalpha = -1\n", 5),
        ("[geometry]\nlambda_b = 1\nlambda_e = -1\n", 3),
    ], ids=["alpha-in-fading_e", "lambda_e"])
    def test_scenario_error_anchors_at_offending_key(self, doc, line):
        # the same key name in another section, and a message naming both
        # densities, used to anchor these at line 2
        with pytest.raises(ConfigError, match=rf"^line {line}: "):
            parse_config(doc, command="eval")

    def test_negative_seed_in_document_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^line 2: .*seed"):
            parse_config("[mc]\nseed = -3\n", command="eval")

    def test_branch_sum_is_applied(self):
        spec = parse_config(FIG6_DOC, command="eval")
        assert spec.scenario.fading_e.mean_power() == pytest.approx(4.0, rel=1e-9)


class TestIniInput:
    """Section names in any case, literal percent signs and [DEFAULT] are
    read as configuration, not as crashes or silent defaults; every line
    stands alone, and only "\n" ends one."""

    def run_doc(self, tmp_path, capsys, doc, *flags):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(doc)
        code = cli.main(["eval", "--config", str(cfg_path), *flags])
        return code, capsys.readouterr()

    def test_section_name_in_any_case(self, tmp_path, capsys):
        spec = parse_config("[Geometry]\nd = 3\n[MC]\nseed = 5\n", command="eval")
        assert spec.scenario.geometry.d == 3
        assert spec.mc.master_seed == 5
        code, captured = self.run_doc(tmp_path, capsys, "[geometry]\nd = 3\n\n[Geometry]\nupsilon = 3\n")
        assert code == cli.EXIT_CONFIG_ERROR
        assert captured.err.startswith("config error: line 4: ")
        assert "[Geometry]" in captured.err

    def test_percent_sign_is_literal(self, tmp_path, capsys):
        out = tmp_path / "res%.csv"
        code, _ = self.run_doc(tmp_path, capsys, f"[run]\nout = {out}\n")
        assert code == cli.EXIT_OK
        assert out.read_text().startswith("metric,case,k,value,half_width,provenance\n")
        code, captured = self.run_doc(tmp_path, capsys, "[run]\nmetric = cop\nformat = cs%v\n")
        assert code == cli.EXIT_CONFIG_ERROR
        assert captured.err.startswith("config error: line 3: ")
        assert "'cs%v'" in captured.err

    def test_default_section_is_rejected(self, tmp_path, capsys):
        code, captured = self.run_doc(tmp_path, capsys, "[geometry]\nd = 2\n\n[DEFAULT]\nd = 3\n")
        assert code == cli.EXIT_CONFIG_ERROR
        assert captured.err == "config error: line 4: unknown section [DEFAULT]\n"

    @pytest.mark.parametrize("doc, message", [
        ("d = 2\n[geometry]\n", "line 1: malformed config document: text before the first [section] header"),
        ("[geometry]\nd = 2\nd = 3\n", "line 3: malformed config document: key 'd' repeats in [geometry]"),
        ("[geometry]\nd = 2\n[mc]\n[geometry]\n", "line 4: malformed config document: section [geometry] repeats"),
        ("[geometry]\nd = 2\nupsilon 3\n", "line 3: malformed config document: not a 'key = value' line"),
        ("[geometry] x\nd = 2\n", "line 1: malformed config document: text before the first [section] header"),
        ("[mc]\n[geometry] x\n", "line 2: malformed config document: not a 'key = value' line"),
        ("[geometry]\n = 2\n", "line 2: malformed config document: not a 'key = value' line"),
    ], ids=["key-before-section", "duplicate-key", "duplicate-section", "no-equals",
            "first-header-with-text", "header-with-text", "no-key"])
    def test_malformed_document_is_one_anchored_line(self, tmp_path, capsys, doc, message):
        with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
            parse_config(doc, command="eval")
        code, captured = self.run_doc(tmp_path, capsys, doc)
        assert code == cli.EXIT_CONFIG_ERROR
        assert captured.err == f"config error: {message}\n"

    def test_indented_line_is_a_key_of_its_own(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code, _ = self.run_doc(tmp_path, capsys, f"[run]\nout = {out}\n  format = json\n")
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["columns"][0] == "metric"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.ini", "res.csv"]

    @pytest.mark.parametrize("doc, line", [
        ("[geometry]\nd = 2\f\nupsilon = -1\n", 3),
        ("[geometry]\nd = 2\x1c\nupsilon = -1\n", 3),
        ("[geometry]\r\nd = 2\r\n\r\nupsilon = -1\r\n", 4),
    ], ids=["form-feed", "file-separator", "crlf"])
    def test_error_line_counts_newlines_only(self, tmp_path, capsys, doc, line):
        with pytest.raises(ConfigError, match=rf"^line {line}: .*upsilon"):
            parse_config(doc, command="eval")
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_bytes(doc.encode())
        assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: line {line}: ")

    # INI line rules: both delimiters, full-line and inline comments, key case, CRLF, blank lines
    @pytest.mark.parametrize("doc", [
        "[geometry]\nd: 3\nupsilon : 2.5\n",
        "[geometry]\n  ; note\nd = 3\n\t# note\nupsilon = 2.5\n",
        "[geometry]\nd = 3 ; note\nupsilon = 2.5\t# note\n",
        "[geometry] ; note\nD = 3\nUpsilon=2.5\n",
        "[geometry]\r\nd = 3\r\nupsilon = 2.5\r\n",
        "\n[geometry]\n\nd = 3\n\n\nupsilon = 2.5\n\n",
    ], ids=["colon", "indented-comments", "inline-comments", "header-comment-and-key-case", "crlf",
            "blank-lines"])
    def test_line_rules(self, doc):
        geometry = parse_config(doc, command="eval").scenario.geometry
        assert (geometry.d, geometry.upsilon) == (3, 2.5)

    def test_comment_prefix_without_whitespace_stays_in_the_value(self):
        assert parse_config("[run]\nout = a#b;c.csv ; note\n").output_path == "a#b;c.csv"
        with pytest.raises(ConfigError, match=r"^line 2: key 'd' in \[geometry\]: cannot parse '3#x' as int$"):
            parse_config("[geometry]\nd = 3#x\n")

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert cli.main(["eval", "--config", str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config ")
        assert err.count("\n") == 1

    def test_file_that_is_not_utf8_is_anchored_config_error(self, tmp_path, capsys):
        # a Latin-1 "été" in a comment on line 2
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_bytes(b"[geometry]\nd = 2 ; \xe9t\xe9\n")
        assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: ")
        assert "UTF-8" in err


class TestEvalCommand:
    def test_eval_writes_csv_with_stable_schema(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "out.csv"
        code = cli.main(["eval", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,case,k,value,half_width,provenance"
        fields = lines[1].split(",")
        assert fields[0] == "cop"
        assert fields[5] == "closed-form"

    def test_eval_fixed_seed_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(FIG6_DOC + "method = monte-carlo\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eval_all_methods_emits_three_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(FIG6_DOC + "method = all\n")
        out = tmp_path / "out.csv"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [l.split(",")[5] for l in lines[1:]] == ["closed-form", "quadrature", "monte-carlo"]
        values = [float(l.split(",")[3]) for l in lines[1:]]
        half = float(lines[3].split(",")[4])
        assert values[0] == pytest.approx(values[1], rel=1e-5)
        assert abs(values[0] - values[2]) <= half

    def test_eval_json_format(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL)
        out = tmp_path / "out.json"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out), "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "metric"
        assert doc["meta"]["scenario"]["d"] == 2

    def test_json_output_has_no_non_finite_constant(self, tmp_path):
        # one trial leaves the capacity estimate with an infinite half-width
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nmetric = capacity\nmethod = monte-carlo\n[mc]\ntrials = 1\n")
        out = tmp_path / "out.json"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out), "--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["rows"][0][doc["columns"].index("half_width")] is None

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0"), ("--seed", "-3")])
    def test_invalid_override_exits_with_config_error(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL)
        assert cli.main(["eval", "--config", str(cfg_path), flag, value]) == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("metric, case", REGISTRY_CASES)
    def test_eval_all_methods_agree_for_every_registered_case(self, tmp_path, metric, case):
        entry = montecarlo.METRICS[metric]
        at = entry.at(ScenarioConfig.build(), case)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(REGISTRY_DOC.format(
            ordering=at.ordering, policy=at.eavesdropper_policy, metric=metric,
            trials=20000 if entry.probability else 4000))
        out = tmp_path / "out.csv"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[:3] for r in rows] == [[metric, case, "2"]] * 3
        assert [r[5] for r in rows] == ["closed-form", "quadrature", "monte-carlo"]
        closed, quad, sim = (float(r[3]) for r in rows)
        half = float(rows[2][4])
        assert closed > 0.0
        assert abs(closed - quad) <= entry.quad_tol * abs(quad)
        gate = validation.family_gate_z(len(REGISTRY_CASES))
        assert abs(sim - closed) * validation.CI_Z <= half * gate

    def test_flags_override_the_documents_mc_values(self, tmp_path, evaluated):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[mc]\ntrials = 5\nseed = 1\nworkers = 1\nci_level = 0.9\n")
        out = tmp_path / "out.csv"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "9", "--trials", "7", "--workers", "2"]) == cli.EXIT_OK
        [(_, mc)] = evaluated
        assert mc == MonteCarloConfig(trials=7, master_seed=9, worker_hint=2, ci_level=0.9)
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["mc"] == {"trials": 7, "seed": 9, "workers": 2, "ci_level": 0.9}

    @pytest.mark.parametrize("command, doc, rates", [
        ("eval", "[run]\nmetric = cop\nmethod = all\n", [None, None, 0.25]),
        ("eval", "[run]\nmetric = pnz\nmethod = closed-form\n", [None]),
        ("sweep", "[run]\nmetric = pnz\nmethod = monte-carlo\nsweep_param = k\nsweep_values = 1,2\n", [0.25, 0.25]),
        ("validate", "[run]\nfigures = fig3\n", [None, None, 0.25] * 2),
    ], ids=["eval-all", "eval-closed-form", "sweep-monte-carlo", "validate"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejection_rate_of_each_row_is_in_the_meta(self, tmp_path, monkeypatch, command, doc, rates, fmt):
        # every fourth realization of each stream held fewer than k points
        stream = montecarlo._stream

        def thinned(cfg, mc, side):
            z = stream(cfg, mc, side).copy()
            z[::4] = np.nan
            return z

        monkeypatch.setattr(montecarlo, "_stream", thinned)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(doc + "[mc]\ntrials = 4000\n")
        out = tmp_path / f"out.{fmt}"
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out), "--format", fmt]) == cli.EXIT_OK
        doc_out = json.loads(out.read_text()) if fmt == "json" else None
        meta = doc_out["meta"] if doc_out else json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["rejection_rate"] == rates

    def test_failed_monte_carlo_row_has_no_rejection_rate(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_stream", lambda cfg, mc, side: np.full(mc.trials, np.nan))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nmetric = cop\nmethod = all\n[mc]\ntrials = 100\n")
        out = tmp_path / "out.json"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out), "--format", "json"]) \
            == cli.EXIT_NUMERIC_ERROR
        assert json.loads(out.read_text())["meta"]["rejection_rate"] == [None, None, None]

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "invalid mc section: trials must be >= 1, got 0"),
        ("--seed", "x", "key 'seed' in [mc]: cannot parse 'x' as int"),
        ("--format", "xml", "format must be one of ('csv', 'json'), got 'xml'"),
    ])
    def test_invalid_override_is_anchored_at_its_flag(self, tmp_path, capsys, flag, value, message):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[mc]\ntrials = 5\nseed = 1\n")
        assert cli.main(["eval", "--config", str(cfg_path), flag, value]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {flag}: {message}\n"

    def test_eval_requires_config(self, capsys):
        assert cli.main(["eval"]) == cli.EXIT_CONFIG_ERROR
        assert "config" in capsys.readouterr().err

    # A heavy-tailed best-ordering side on a line, whose window rule gives
    # up, streams that reject every realization, for a probability and a
    # mean metric, and a window past numpy's Poisson sampler (about 3.1e20
    # points in radius 10); and a quadrature whose exp-sinh scale
    # (k / rate)^(1/delta) underflows to 0.
    @pytest.mark.parametrize("doc, message", [
        ("[geometry]\nd = 1\nupsilon = 3\nlambda_b = 0.01\n[fading_b]\nalpha = 1\nmu = 0.5\n"
         "[scenario]\nk = 4\nordering = best\n[run]\nmethod = monte-carlo\n",
         "window radius rule diverged"),
        ("[run]\nmetric = cop\nmethod = monte-carlo\n[mc]\ntrials = 100\n", "no valid realizations"),
        ("[run]\nmetric = capacity\nmethod = monte-carlo\n[mc]\ntrials = 100\n", "no valid realizations"),
        ("[geometry]\nlambda_b = 1e18\n[run]\nmetric = cop\nmethod = monte-carlo\n",
         "more points than a Poisson draw can count"),
        ("[geometry]\nlambda_b = 1e300\nupsilon = 8\n[run]\nmethod = quadrature\n",
         "exp-sinh scale 0 lies outside the float range"),
        ("[geometry]\nlambda_b = 1e-300\nupsilon = 8\n[run]\nmetric = pnz\nmethod = quadrature\n",
         "exp-sinh scale inf lies outside the float range"),
        ("[geometry]\nlambda_b = 1e-300\nupsilon = 8\n[run]\nmetric = pnz\nmethod = monte-carlo\n",
         "R^upsilon of the window of radius 2.56835e+150 at upsilon = 8 lies outside the float range"),
        ("[geometry]\nlambda_b = 1e300\nupsilon = 8\n[scenario]\nordering = best\n[run]\nmethod = monte-carlo\n",
         "far-point cutoff 0 of the legitimate window lies outside the float range"),
    ], ids=["window-rule-diverges", "no-valid-realization-cop", "no-valid-realization-capacity",
            "window-past-poisson-sampler", "quadrature-scale-underflows", "quadrature-scale-overflows",
            "window-r-upsilon-overflows", "far-point-cutoff-underflows"])
    def test_simulation_that_cannot_estimate_is_numeric_error(self, tmp_path, capsys, monkeypatch, doc, message):
        if message == "no valid realizations":
            monkeypatch.setattr(montecarlo, "_stream", lambda cfg, mc, side: np.full(mc.trials, np.nan))
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


    def test_simulation_out_of_memory_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, mc):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(montecarlo, "simulate_cop", exhausted)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nmethod = monte-carlo\n[mc]\ntrials = 1000000000000\n")
        assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: out of memory: Unable to allocate")
        assert captured.err.count("\n") == 1

    def test_all_methods_write_every_row_when_one_route_runs_out_of_memory(self, tmp_path, capsys,
                                                                        monkeypatch):
        def exhausted(cfg, mc):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(montecarlo, "simulate_cop", exhausted)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[mc]\ntrials = 1000\n[run]\nmethod = all\n")
        out = tmp_path / "out.csv"
        assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_NUMERIC_ERROR
        assert capsys.readouterr().err == ("numeric error: monte-carlo: Unable to allocate 7.28 TiB "
                                           "for an array with shape (1000000000000,)\n")
        rows = [line.split(",")[3:] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.241453007005", "0", "closed-form"], ["0.241453007005", "0", "quadrature"],
                        ["nan", "nan", "monte-carlo"]]

    def test_closed_form_without_relative_accuracy_is_numeric_error(self, tmp_path, capsys):
        # Nearest COP on 8 x 8 antennas: 1 - H cannot resolve an outage of 3e-40.
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scenario]\nn_a = 8\nn_b = 8\n")
        assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: 1 - H = ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_methods_write_every_row_when_one_route_fails(self, tmp_path, capsys, fmt):
        # Nearest COP on 4 x 4 antennas: 1 - H cannot resolve an outage of
        # 1.3e-10, which the quadrature resolves.
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[scenario]\nn_a = 4\nn_b = 4\n[mc]\ntrials = 1000\n[run]\nmethod = all\n")
        out = tmp_path / f"out.{fmt}"
        args = ["eval", "--config", str(cfg_path), "--out", str(out), "--format", fmt]
        assert cli.main(args) == cli.EXIT_NUMERIC_ERROR
        err = capsys.readouterr().err
        assert err.startswith("numeric error: closed-form: 1 - H = ")
        assert err.count("\n") == 1
        if fmt == "csv":
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            assert rows[0][3:5] == ["nan", "nan"]
            assert rows[1][3] == "1.33451018944e-10"
        else:
            rows = json.loads(out.read_text())["rows"]
            assert rows[0][3:5] == [None, None]
            assert rows[1][3] == 1.33451018944e-10
        assert [r[5] for r in rows] == ["closed-form", "quadrature", "monte-carlo"]

    @pytest.mark.parametrize("method", ["closed-form", "quadrature"])
    def test_best_cop_where_the_gain_limit_overflows_reads_zero(self, tmp_path, capsys, method):
        # threshold^-delta = (1e-300)^-1.5 overflows: the outage is Q(k, inf) = 0.
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[geometry]\nd = 3\nupsilon = 2\n[scenario]\neta_k_db = 3000\n"
                            f"ordering = best\n[run]\nmetric = cop\nmethod = {method}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[1] == f"cop,best,1,0,0,{method}"

    @pytest.mark.parametrize("ordering", ["nearest", "best"])
    @pytest.mark.parametrize("document", ["eta_k_db = -3079\nrate = 2", "rate = 2000"],
                             ids=["threshold-overflows", "two-to-the-rate-overflows"])
    def test_cop_where_the_threshold_overflows_reads_one(self, tmp_path, capsys, ordering, document):
        # (2^rate - 1) / eta_k is +inf: every route reads the outage F(inf) = 1.
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[scenario]\n{document}\nordering = {ordering}\n"
                            "[run]\nmetric = cop\nmethod = all\n[mc]\ntrials = 1000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[5] for row in rows] == ["closed-form", "quadrature", "monte-carlo"]
        assert all(row[:4] == ["cop", ordering, "1", "1"] for row in rows)

    @pytest.mark.parametrize("document, case, value", [
        *(pytest.param(doc, case, value, id=f"varpi-{end}-{case}")
          for end, doc, value in (("inf", "eta_k_db = 3000\neta_e_db = -3000", "1"),
                                  ("zero", "eta_k_db = -3000\neta_e_db = 3000", "0"))
          for case in ("NN", "NB", "BN", "BB")),
        pytest.param("eta_k_db = -2500", "BB", "0", id="bb-eavesdropper-term-overflows"),
    ])
    def test_pnz_where_varpi_leaves_float_range_reads_its_limit(self, tmp_path, capsys, document, case, value):
        # eta_k / eta_e rounds to inf or 0, or rate_e * varpi^-delta overflows
        # (d = 3): every route reads the PNZ limit, 1 or 0
        policies = ["nearest" if c == "N" else "best" for c in case]
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[geometry]\nd = 3\n[scenario]\n{document}\nordering = {policies[0]}\n"
                            f"eavesdropper_policy = {policies[1]}\n"
                            "[run]\nmetric = pnz\nmethod = all\n[mc]\ntrials = 1000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[5] for row in rows] == ["closed-form", "quadrature", "monte-carlo"]
        assert all(row[:4] == ["pnz", case, "1", value] for row in rows)

    @pytest.mark.parametrize("document, metric, others", [
        pytest.param("[geometry]\nlambda_b = 1e-10\n[scenario]\neta_k_db = -3000\n", "cop", ["1", "1"], id="cop"),
        pytest.param("[geometry]\nlambda_b = 10\n[scenario]\neta_k_db = 3080\n", "pnz", None, id="pnz"),
        pytest.param("[geometry]\nlambda_b = 10\n[scenario]\neta_k_db = 3080\n", "capacity", ["nan", "nan"],
                     id="capacity"),
        # rate_b^(1/delta) overflows: neither oracle has a window or a scale to work in
        pytest.param("[geometry]\nlambda_b = 1e300\nupsilon = 8\n", "capacity", ["nan", "nan"],
                     id="capacity-dense"),

        # rate_b^(1/delta) underflows: the closed form's argument is 0, and the
        # quadrature's scale and the simulator's R^upsilon pass the float range
        pytest.param("[geometry]\nlambda_b = 1e-300\nupsilon = 8\n", "pnz", ["nan", "nan"],
                     id="pnz-sparse"),
    ])
    def test_fox_h_argument_past_float_range_is_a_numeric_error(self, tmp_path, capsys, document, metric, others):
        # Finite inputs whose product passes the float range: the closed form
        # raises a ConvergenceError, printed as a numeric error, not a traceback
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"{document}[run]\nmetric = {metric}\nmethod = all\n[mc]\ntrials = 1000\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["eval", "--config", str(cfg_path)]) == cli.EXIT_NUMERIC_ERROR
        captured = capsys.readouterr()
        assert captured.err and all(line.startswith("numeric error:") for line in captured.err.splitlines())
        assert re.search("Fox H argument (inf|0) lies outside the float range", captured.err)
        # Every line names the quantity, none is a bare OverflowError's.
        assert "Numerical result out of range" not in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[5] for row in rows] == ["closed-form", "quadrature", "monte-carlo"]
        assert rows[0][3] == "nan"
        if others is not None:
            assert [row[3] for row in rows[1:]] == others


class TestSweepCommand:
    def test_sweep_appends_axis_column(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[run]\nmetric = cop\nsweep_param = k\nsweep_values = 1,2,3\n"
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,case,k,value,half_width,provenance,k"
        assert len(lines) == 4
        values = [float(l.split(",")[3]) for l in lines[1:]]
        assert values == sorted(values)

    def test_sweep_rebuilds_scenario_per_point(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(
            "[run]\nmetric = cop\nsweep_param = lambda_b\nsweep_values = 0.5,1.0,2.0\n"
        )
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        values = [float(l.split(",")[3]) for l in out.read_text().splitlines()[1:]]
        assert values[0] > values[1] > values[2]


    @pytest.mark.parametrize("param, point, keyword, value, landed", SWEEP_TARGETS,
                             ids=[case[0] for case in SWEEP_TARGETS])
    def test_sweep_point_sets_exactly_its_target_field(self, evaluated, capsys,
                                                        param, point, keyword, value, landed):
        spec = parse_config(f"[run]\nsweep_param = {param}\nsweep_values = {point}\n", command="sweep")
        assert cli.run(spec) == cli.EXIT_OK
        [(cfg, mc)] = evaluated
        assert landed(cfg, mc) == value
        mc_kwargs = dict(DEFAULT_MC)
        if keyword in mc_kwargs:
            mc_kwargs[keyword] = value
            scenario_kwargs = {}
        else:
            scenario_kwargs = {keyword: value}
        assert cfg == ScenarioConfig.build(**scenario_kwargs)
        assert mc == MonteCarloConfig(**mc_kwargs)
        assert capsys.readouterr().out.splitlines()[0].endswith(f",{param}")

    @pytest.mark.parametrize("values", ["-1,1", "1,-1"])
    def test_invalid_sweep_point_exits_before_any_output(self, tmp_path, capsys, values):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(f"[run]\nsweep_param = lambda_b\nsweep_values = {values}\n")
        assert cli.main(["sweep", "--config", str(cfg_path)]) == cli.EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3" in captured.err


class TestFigureCommand:
    def test_positional_figure_id(self, tmp_path):
        out = tmp_path / "fig8.csv"
        assert cli.main(["figure", "fig8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,case,k,value,half_width,provenance,varpi_db"
        assert len(lines) > 20
        meta = json.loads((tmp_path / "fig8.csv.meta.json").read_text())
        assert meta["figure"] == "fig8"
        assert "scenario" in meta

    def test_missing_figure_id_is_config_error(self, capsys):
        assert cli.main(["figure"]) == cli.EXIT_CONFIG_ERROR

    def test_unknown_figure_id_is_config_error_at_its_argument(self, capsys):
        assert cli.main(["figure", "fig99"]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: figure_id: figure must be one of ")

    @pytest.mark.parametrize("target, reason", [("missing/fig8.csv", "No such file or directory"),
                                                ("dir", "Is a directory")])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, target, reason):
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / target)
        assert cli.main(["figure", "fig8", "--out", out]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: cannot write {out!r}: {reason}\n"
        assert not list(tmp_path.rglob(".secrecy-*.tmp"))

    def test_figure_table_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["figure", "fig6", "--out", str(a)]) == 0
        assert cli.main(["figure", "fig6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def test_half_widths_are_at_the_reported_ci_level(self, tmp_path):
        # [mc] ci_level does not reach validate: its half-widths are at validation.CI_LEVEL
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nfigures = fig3\n[mc]\ntrials = 2000\nseed = 3\nci_level = 0.5\n")
        out = tmp_path / "val.json"
        cli.main(["validate", "--config", str(cfg_path), "--out", str(out), "--format", "json"])
        doc = json.loads(out.read_text())
        assert doc["meta"]["ci_level"] == validation.CI_LEVEL
        mc = MonteCarloConfig(trials=2000, master_seed=3, ci_level=validation.CI_LEVEL)
        want = [montecarlo.simulate_cop(figures.scenario("fig3", k=k, alpha=2.0, mu=2.0), mc).half_width
                for k in (1, 3)]
        got = [row[4] for row in doc["rows"] if row[5] == "monte-carlo"]
        assert got == [float(cli._fmt(half_width)) for half_width in want]

    def test_quick_validate_passes_and_reports(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text("[run]\nfigures = fig3\n[mc]\ntrials = 20000\nseed = 314\nworkers = 2\n")
        out = tmp_path / "val.csv"
        code = cli.main(["validate", "--config", str(cfg_path), "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "[pass]" in captured
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,case,k,value,half_width,provenance,figure,status"
        assert all(l.split(",")[-1] == "pass" for l in lines[1:])
