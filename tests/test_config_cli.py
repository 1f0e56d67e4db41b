import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from rvlbm import load_config, reference_config, run, scheme
from rvlbm.cli import main
from rvlbm.config import default_k_samples
from rvlbm.errors import SchemaError, ValidationError
from rvlbm.experiments import initial_state, simulate_payload, write_json
import rvlbm.dispersion as dispersion
import rvlbm.experiments as experiments


BASE = {
    "scheme": {
        "d": 1,
        "lambda": 1.0,
        "q": 2,
        "velocities": [[1], [-1]],
        "relaxation": [0.0, 1.2],
        "equilibrium": [0.65, 0.35],
    },
    "grid": {"n": [32], "length": [1.0]},
    "initial": {"type": "sine", "mode": [1], "amplitude": 0.01, "base": 1.0},
    "analysis": {
        "k_samples": [[0.4], [0.8], [1.2]],
        "grids": [64, 128, 256],
        "warmup": 20,
        "steps": 60,
        "u_sweep": [0.0, 0.2, 0.5],
    },
}


def config_text(**overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return json.dumps(doc)


class TestLoadConfig:
    def test_full_document(self):
        cfg = load_config(config_text())
        assert cfg.spec.q == 2
        assert cfg.spec.vset.lam == 1.0
        assert cfg.spec.s == (0.0, 1.2)
        assert cfg.spec.equilibrium == (0.65, 0.35)
        assert not cfg.spec.u_tilde.is_constant or cfg.spec.u_tilde.constant_vector(1) == (0.0,)
        assert cfg.grid_sizes == (32,)
        assert cfg.box_lengths == (1.0,)
        assert cfg.initial.kind == "sine"
        assert cfg.initial.amplitude == 0.01
        assert cfg.initial.mode == (1,)
        assert cfg.k_samples == ((0.4,), (0.8,), (1.2,))
        assert cfg.grids == (64, 128, 256)
        assert cfg.warmup == 20 and cfg.steps == 60
        assert cfg.u_sweep == (0.0, 0.2, 0.5)

    def test_defaults_fill_in(self):
        cfg = load_config(json.dumps({"scheme": BASE["scheme"]}))
        assert cfg.grid_sizes == (64,)
        assert cfg.box_lengths == (1.0,)
        assert cfg.initial.kind == "uniform" and cfg.initial.value == 1.0
        assert cfg.order == 3
        assert cfg.levels == 10
        assert cfg.k_samples == default_k_samples(1)
        assert cfg.relative_tolerances == (1e-8, 1e-6, 1e-4)
        assert cfg.absolute_floors == (1e-12, 1e-10, 1e-8)
        assert cfg.grids == (64, 128, 256)
        assert cfg.warmup == 20 and cfg.steps == 200
        assert cfg.output_path == "." and cfg.output_format == "json"

    def test_constant_shift_parsed(self):
        cfg = load_config(config_text(scheme={**BASE["scheme"],
                                               "u_tilde": {"mode": "constant", "value": [0.2]}}))
        assert cfg.spec.u_tilde.is_constant
        assert cfg.spec.u_tilde.constant_vector(1) == (0.2,)

    def test_invalid_json_reports_root(self):
        with pytest.raises(SchemaError, match=r"/: invalid JSON"):
            load_config("{not json")

    def test_oversized_integer_literal_reports_root(self):
        text = config_text().replace('"lambda": 1.0', '"lambda": 1' + "0" * 5000)
        with pytest.raises(SchemaError, match=r"/: invalid JSON"):
            load_config(text)

    def test_missing_scheme_key(self):
        with pytest.raises(SchemaError, match=r"/scheme: missing required key"):
            load_config("{}")

    def test_wrong_container_type_has_pointer(self):
        with pytest.raises(SchemaError, match=r"/scheme/velocities: expected array"):
            load_config(config_text(scheme={**BASE["scheme"], "velocities": {"a": 1}}))

    def test_nonzero_conserved_rate_rejected(self):
        with pytest.raises(ValidationError, match=r"s\[0\] must be 0"):
            load_config(config_text(scheme={**BASE["scheme"], "relaxation": [0.1, 1.2]}))

    def test_fractional_velocity_rejected(self):
        bad = {**BASE["scheme"], "q": 2, "velocities": [[0.5], [-1]]}
        with pytest.raises(ValidationError, match="integer lattice vector"):
            load_config(config_text(scheme=bad))

    def test_declared_q_cross_checked(self):
        with pytest.raises(ValidationError, match="does not match"):
            load_config(config_text(scheme={**BASE["scheme"], "q": 3}))

    def test_unknown_shift_mode(self):
        bad = {**BASE["scheme"], "u_tilde": {"mode": "linear", "value": [0.1]}}
        with pytest.raises(SchemaError, match=r"/scheme/u_tilde/mode"):
            load_config(config_text(scheme=bad))

    def test_anisotropic_spacing_rejected(self):
        doc = {
            "scheme": {
                "d": 2,
                "velocities": [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]],
                "relaxation": [0.0, 1.0, 1.0, 1.0, 1.0],
                "equilibrium": [0.2, 0.2, 0.2, 0.2, 0.2],
            },
            "grid": {"n": [16, 32], "length": [1.0, 1.0]},
        }
        with pytest.raises(ValidationError, match="spacing"):
            load_config(json.dumps(doc))

    def test_order_out_of_range(self):
        with pytest.raises(SchemaError, match=r"/analysis/order"):
            load_config(config_text(analysis={**BASE["analysis"], "order": 4}))

    def test_tolerance_vector_length(self):
        bad = {**BASE["analysis"], "tolerances": {"relative": [1e-8, 1e-6]}}
        with pytest.raises(SchemaError, match="expected 3 elements"):
            load_config(config_text(analysis=bad))

    def test_output_format_choices(self):
        with pytest.raises(SchemaError, match=r"/output/format"):
            load_config(config_text(output={"format": "yaml"}))

    def test_sine_initial_requires_amplitude(self):
        doc = json.loads(config_text())
        doc["initial"] = {"type": "sine", "mode": [1]}
        with pytest.raises(SchemaError, match=r"/initial/amplitude: missing required key"):
            load_config(json.dumps(doc))

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="10**400"),
    ])
    def test_non_finite_number_rejected_with_pointer(self, literal):
        text = config_text().replace('"k_samples": [[0.4]', f'"k_samples": [[{literal}]')
        with pytest.raises(SchemaError, match="^/analysis/k_samples/0/0: expected finite number"):
            load_config(text)

    def test_refinement_levels_minimum(self):
        with pytest.raises(SchemaError, match=r"/analysis/refinements"):
            load_config(config_text(analysis={**BASE["analysis"], "refinements": 3}))


class TestReferenceConfigs:
    @pytest.mark.parametrize("name,dim,q", [("d1q2", 1, 2), ("d1q3", 1, 3), ("d2q5", 2, 5)])
    def test_shipped_configs_load(self, name, dim, q):
        cfg = load_config(reference_config(name))
        assert cfg.spec.dim == dim
        assert cfg.spec.q == q

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown reference config"):
            reference_config("d3q7")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(config_text())
    return path


class TestSimulatePayload:
    def test_shift_matrices_built_once(self, monkeypatch):
        cfg = load_config(reference_config("d1q3"))
        calls = []
        build = scheme._shift_matrices
        monkeypatch.setattr(scheme, "_shift_matrices", lambda *args: calls.append(args) or build(*args))
        payload, _ = simulate_payload(cfg)
        assert len(payload["observables"]) == cfg.steps + 1
        assert len(calls) == 1

    def test_observables_follow_run(self):
        cfg = load_config(reference_config("d1q3"))
        payload, final = simulate_payload(cfg)
        start = initial_state(cfg.spec, cfg.grid_sizes, cfg.box_lengths, cfg.initial)
        for n in (0, 1, 57, cfg.steps):
            assert payload["observables"][n]["mass"] == float(np.sum(run(start, cfg.spec, n).f.real))
        np.testing.assert_array_equal(final.f, run(start, cfg.spec, cfg.steps).f)


class TestRefinementStudy:
    def test_set_up_runs_once(self, monkeypatch):
        cfg = load_config(reference_config("d2q5"))
        predictions, transforms = [], []
        derive, fftn = experiments.transition_prediction, np.fft.fftn
        monkeypatch.setattr(experiments, "transition_prediction",
                            lambda *args: predictions.append(args) or derive(*args))
        monkeypatch.setattr(np.fft, "fftn", lambda *args, **kw: transforms.append(args) or fftn(*args, **kw))
        grids = [16, 32, 64]
        study = experiments.refinement_study(cfg.spec, cfg.box_lengths, grids, cfg.initial, cfg.warmup)
        assert len(study["rows"]) == len(grids)
        assert len(predictions) == 1
        assert len(transforms) == len(grids)


class TestCli:
    def test_analyze_writes_report(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "analyze.json").read_text())
        assert payload["equation"]["tensors"]["c"] == [pytest.approx(0.3)]
        assert "∂t ρ" in result.output

    def test_analyze_order_override(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--config", str(config_file),
                                      "--output", str(out), "--order", "1"])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "analyze.json").read_text())
        assert payload["equation"]["order"] == 1
        assert payload["equation"]["tensors"]["D"] is None

    def test_dispersion_passes_and_writes(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["dispersion", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert "pass=True" in result.output
        report = json.loads((out / "dispersion.json").read_text())
        assert report["passed"] is True
        assert "elapsed_seconds" not in report

    def test_dispersion_csv_format(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["dispersion", "--config", str(config_file),
                                      "--output", str(out), "--format", "csv"])
        assert result.exit_code == 0, result.output
        lines = (out / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("k,order,measured_re")
        assert len(lines) == 1 + 3 * 3

    def test_simulate_writes_snapshot(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "simulate.json").exists()
        assert (out / "snapshot.csv").exists()
        meta = json.loads((out / "snapshot_meta.json").read_text())
        assert meta["step"] == 60
        payload = json.loads((out / "simulate.json").read_text())
        assert abs(payload["mass_relative_drift"]) < 1e-13

    def test_verify_all_sections_pass(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        for section in ("predictor_vs_oracle", "u_invariance",
                        "transition_scaling", "dhumieres_crosscheck"):
            assert f"{section}: PASS" in result.output
        assert "overall: PASS" in result.output
        report = json.loads((out / "verify.json").read_text())
        assert report["overall_pass"] is True

    def test_verify_output_is_reproducible(self, runner, config_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["verify", "--config", str(config_file),
                                          "--output", str(out)])
            assert result.exit_code == 0, result.output
            outs.append((out / "verify.json").read_bytes())
        assert outs[0] == outs[1]

    def test_verify_localizes_predictor_fault(self, runner, config_file, tmp_path,
                                              monkeypatch):
        true_predictor = dispersion.predicted_symbols

        def flipped(equation, k):
            mu = true_predictor(equation, k)
            return (mu[0], -mu[1]) + tuple(mu[2:])

        monkeypatch.setattr(dispersion, "predicted_symbols", flipped)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 1
        assert "predictor_vs_oracle: FAIL" in result.output
        assert "dhumieres_crosscheck: PASS" in result.output
        report = json.loads((out / "verify.json").read_text())
        assert report["predictor_vs_oracle"]["pass"] is False
        assert report["overall_pass"] is False

    def test_convergence_slopes(self, runner, config_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["convergence", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        study = json.loads((out / "convergence.json").read_text())
        assert 0.85 <= study["equilibrium_slope"] <= 1.15
        assert 2.7 <= study["transition_slope"] <= 3.3

    def test_missing_config_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--config", str(tmp_path / "no.json")])
        assert result.exit_code == 2

    def test_invalid_config_exits_two(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(config_text(scheme={**BASE["scheme"], "relaxation": [0.1, 1.2]}))
        result = runner.invoke(main, ["analyze", "--config", str(path)])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_singular_cell_shift_exits_two(self, runner, tmp_path):
        # basis (1, x, x^3) is singular at u = 0, which the sine shift hits at cell 0
        scheme = {
            **BASE["scheme"],
            "q": 3,
            "velocities": [[0], [1], [-1]],
            "polynomials": [
                [{"exps": [0], "coef": 1.0}],
                [{"exps": [1], "coef": 1.0}],
                [{"exps": [3], "coef": 1.0}],
            ],
            "relaxation": [0.0, 1.2, 1.6],
            "equilibrium": [0.5, 0.3, 0.2],
            "u_tilde": {"mode": "sine", "value": [0.2]},
        }
        path = tmp_path / "singular.json"
        path.write_text(config_text(scheme=scheme))
        result = runner.invoke(main, ["simulate", "--config", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "singular" in result.output
        assert isinstance(result.exception, SystemExit)

    def test_unstable_simulation_exits_two_without_output(self, runner, tmp_path):
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 2.5, 2.5]
        doc["analysis"]["steps"] = 2000
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "error:" in result.output and "not finite at step" in result.output
        assert not (out / "simulate.json").exists()

    def test_empty_wavevector_list_exits_two_without_output(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(config_text(analysis={**BASE["analysis"], "k_samples": []}))
        for command in ("verify", "dispersion"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, result.output
            assert "error: no wavevectors" in result.output
            assert not out.exists()

    def test_nan_wavevector_exits_two_with_pointer(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(config_text().replace('"k_samples": [[0.4]', '"k_samples": [[NaN]'))
        for command in ("verify", "dispersion"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert "error: /analysis/k_samples/0/0: expected finite number" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("sweep", [[], [0.2]], ids=["empty", "one"])
    def test_short_u_sweep_exits_two_without_output(self, runner, tmp_path, sweep):
        # one sweep value leaves u_invariance nothing to compare
        path = tmp_path / "sweep.json"
        path.write_text(config_text(analysis={**BASE["analysis"], "u_sweep": sweep}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: /analysis/u_sweep: expected at least 2 values, got {len(sweep)}" in result.output
        assert not (out / "verify.json").exists()

    @pytest.mark.parametrize("command", ["verify", "convergence"])
    @pytest.mark.parametrize("grids", [[], [64], [64, 64]], ids=["empty", "one", "repeated"])
    def test_short_grids_exit_two_without_output(self, runner, tmp_path, command, grids):
        # a log-log slope needs two distinct dx; fewer fit nothing or warn and mean nothing
        path = tmp_path / "grids.json"
        path.write_text(config_text(analysis={**BASE["analysis"], "grids": grids}))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stderr == (
            f"error: /analysis/grids: expected at least 2 distinct values, got {grids}\n"
        )
        assert not out.exists()

    def test_zero_relaxation_rate_exits_two_except_simulate(self, runner, tmp_path):
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 0.0, 1.6]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        for command in ("analyze", "dispersion", "verify"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert result.stderr.count("error: ") == 1
            assert "error: relaxation rate s[1] = 0" in result.stderr
            assert not out.exists()
        out = tmp_path / "simulate"
        result = runner.invoke(main, ["simulate", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "simulate.json").exists()

    def test_rate_near_zero_exits_two_except_simulate(self, runner, tmp_path):
        # s[1] = 1e-200 is inside (0, 2), but sigma_1 = 1e200 overflows the
        # third-order coefficients; no RuntimeWarning may escape on the way
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 1e-200, 1.6]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        for command in ("analyze", "dispersion", "verify", "convergence"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert result.stderr.count("error: ") == 1
            assert "has a non-finite coefficient" in result.stderr
            assert "order-3" in result.stderr and "s[1] = 1e-200" in result.stderr
            assert not out.exists()
        out = tmp_path / "simulate"
        result = runner.invoke(main, ["simulate", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "simulate.json").exists()

    @pytest.mark.parametrize("field, value", [("amplitude", 0.0), ("mode", [0])])
    def test_uniform_sine_exits_two_without_output(self, runner, tmp_path, field, value):
        # a sine of zero amplitude or mode 0 is uniform: the residual studies
        # would pass at the rounding floor having measured nothing
        doc = json.loads(reference_config("d1q3"))
        doc["initial"][field] = value
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "convergence"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith(f"error: /initial/{field}: expected a nonzero")
            assert not out.exists()

    def test_only_zero_wavevector_exits_two_without_output(self, runner, tmp_path):
        path = tmp_path / "zero_k.json"
        path.write_text(config_text(analysis={**BASE["analysis"], "k_samples": [[0.0]]}))
        for command in ("verify", "dispersion"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, result.output
            assert "error: no nonzero wavevector to compare" in result.output
            assert not out.exists()

    @pytest.mark.parametrize("command, target", [("verify", "verify_report"),
                                                 ("simulate", "simulate_payload")])
    def test_unexpected_exception_exits_three_without_output(
        self, runner, config_file, tmp_path, monkeypatch, command, target
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(experiments, target, fail)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(config_file), "--output", str(out)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "internal error: RuntimeError: unexpected\n"
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_output_dir_naming_a_file_exits_two(self, runner, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        path = tmp_path / "experiment.json"
        path.write_text(config_text(output={"dir": str(blocker)}))
        for command in ("analyze", "dispersion", "simulate", "verify", "convergence"):
            result = runner.invoke(main, [command, "--config", str(path)])
            assert result.exit_code == 2, (command, result.output)
            assert isinstance(result.exception, SystemExit)
            assert "Traceback" not in result.output
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
            assert str(blocker) in result.stderr
        assert blocker.read_text() == "not a directory"

    def test_unstable_scheme_warns_and_exits_zero(self, runner, tmp_path):
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 2.5, 2.5]
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        for command in ("analyze", "dispersion"):
            result = runner.invoke(main, [command, "--config", str(path),
                                          "--output", str(tmp_path / command)])
            assert result.exit_code == 0, result.output
            assert result.stderr.count("warning: scheme is linearly unstable: max |g| = 1.5 ") == 1
            assert (tmp_path / command / f"{command}.json").exists()

    @pytest.mark.filterwarnings("default:relaxation rate s")
    def test_rate_warning_prints_once_as_one_line(self, runner, tmp_path):
        # verify builds the spec at load and again for each swept shift; each
        # construction warns, and the user sees one plain line
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 2.5, 1.6]
        path = tmp_path / "rate.json"
        path.write_text(json.dumps(doc))
        filters, hook = warnings.filters, warnings.showwarning
        for command in ("verify", "dispersion"):
            result = runner.invoke(main, [command, "--config", str(path),
                                          "--output", str(tmp_path / command)])
            assert result.exit_code in (0, 1), (command, result.output)
            lines = result.stderr.splitlines()
            assert lines.count("warning: relaxation rate s[1] = 2.5 outside (0, 2)") == 1
            assert sum("relaxation rate" in line for line in lines) == 1
            assert "UserWarning" not in result.stderr and ".py:" not in result.stderr
        assert warnings.filters is filters and warnings.showwarning is hook

    @pytest.mark.parametrize("name", ["d1q2", "d1q3", "d2q5"])
    def test_shipped_configs_pass_stability_preflight(self, runner, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(reference_config(name))
        for command in ("analyze", "dispersion"):
            result = runner.invoke(main, [command, "--config", str(path),
                                          "--output", str(tmp_path / command)])
            assert result.exit_code == 0, result.output
            assert "warning" not in result.stderr

    def test_write_json_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json({"a": 1.0, "b": float("nan")}, path)
        assert not path.exists()

    def test_runs_without_scipy(self, tmp_path):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        probe = subprocess.run(
            [sys.executable, "-c", "import sys, rvlbm; print('scipy' in sys.modules)"],
            env=env, capture_output=True, text=True,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"

        path = tmp_path / "d1q2.json"
        path.write_text(reference_config("d1q2"))
        blocked = (
            "import sys; sys.modules['scipy'] = None\n"
            "from rvlbm.cli import main\n"
            "main(['verify', '--config', sys.argv[1], '--output', sys.argv[2]])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", blocked, str(path), str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert (tmp_path / "out" / "verify.json").exists()

    def test_reference_config_runs_end_to_end(self, runner, tmp_path):
        path = tmp_path / "d1q3.json"
        path.write_text(reference_config("d1q3"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--config", str(path),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "analyze.json").exists()
