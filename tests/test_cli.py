"""Command-line front end: config parsing, output schemas, determinism of
emitted files, and exit codes."""

import json

import pytest

from secnet import cli, validation
from secnet.cli import ConfigError, parse_config

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
REGISTRY_CASES = [(m, c) for m, entry in validation.METRICS.items() for c in entry.cases]


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

    def test_unknown_key_is_line_anchored(self):
        doc = "[geometry]\nd = 2\nbandwidth = 5\n"
        with pytest.raises(ConfigError, match=r"line 3.*bandwidth"):
            parse_config(doc, command="eval")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[antenna]\nn = 2\n", command="eval")

    def test_sweep_requires_axis(self):
        with pytest.raises(ConfigError, match="sweep_param"):
            parse_config(MINIMAL, command="sweep")

    def test_sweep_axis_must_name_field(self):
        doc = "[run]\nsweep_param = bandwidth\nsweep_values = 1,2\n"
        with pytest.raises(ConfigError, match="sweep_param"):
            parse_config(doc, command="sweep")

    def test_sweep_grid_forms(self):
        doc = "[run]\nsweep_param = lambda_b\nsweep_values = 0.5:1.5:3\n"
        spec = parse_config(doc, command="sweep")
        assert spec.sweep_values == pytest.approx((0.5, 1.0, 1.5))
        doc = "[run]\nsweep_param = k\nsweep_values = 1, 2, 4\n"
        assert parse_config(doc, command="sweep").sweep_values == pytest.approx((1.0, 2.0, 4.0))

    def test_figure_id_validated(self):
        with pytest.raises(ConfigError, match="figure"):
            parse_config("[run]\nfigure = fig99\n", command="figure")

    def test_validate_figure_subset(self):
        spec = parse_config("[run]\nfigures = fig3, fig6\n", command="validate")
        assert spec.figure_subset == ("fig3", "fig6")
        with pytest.raises(ConfigError, match="figures"):
            parse_config("[run]\nfigures = fig99\n", command="validate")

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

    def test_negative_seed_in_document_is_config_error(self):
        with pytest.raises(ConfigError, match=r"line 1.*seed"):
            parse_config("[mc]\nseed = -3\n", command="eval")

    def test_branch_sum_is_applied(self):
        spec = parse_config(FIG6_DOC, command="eval")
        assert spec.scenario.fading_e.mean_power() == pytest.approx(4.0, rel=1e-9)


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

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--workers", "0"), ("--seed", "-3")])
    def test_invalid_override_exits_with_config_error(self, tmp_path, capsys, flag, value):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(MINIMAL)
        assert cli.main(["eval", "--config", str(cfg_path), flag, value]) == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("metric, case", REGISTRY_CASES)
    def test_eval_all_methods_agree_for_every_registered_case(self, tmp_path, metric, case):
        entry = validation.METRICS[metric]
        if case in ("nearest", "best"):
            ordering, policy = case, "nearest"
        else:
            ordering, policy = ({"N": "nearest", "B": "best"}[c] for c in case)
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(REGISTRY_DOC.format(ordering=ordering, policy=policy, metric=metric,
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

    def test_eval_requires_config(self, capsys):
        assert cli.main(["eval"]) == cli.EXIT_CONFIG_ERROR
        assert "config" in capsys.readouterr().err


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

    def test_figure_table_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["figure", "fig6", "--out", str(a)]) == 0
        assert cli.main(["figure", "fig6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
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
