import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

from dataclasses import replace

import numpy as np
import pytest
from cli_runner import CliRunner

from rvlbm import (
    VelocityShift,
    compare_with_prediction,
    derive_equivalent_equation,
    load_config,
    reference_config,
    run,
    scheme,
)
from rvlbm.cli import main
from rvlbm.config import InitialData, default_k_samples
from rvlbm.dispersion import ABSOLUTE_FLOORS, RELATIVE_TOLERANCES
from rvlbm.errors import OrderUnavailable, SchemaError, ValidationError
from rvlbm.experiments import initial_state, simulate_payload, write_json
from rvlbm.lattice import evaluate_terms
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
        # criterion 1's order is fixed at 3: an out-of-range order is an unknown key
        with pytest.raises(SchemaError, match=r"^/analysis/order: unknown key$"):
            load_config(config_text(analysis={**BASE["analysis"], "order": 4}))

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
        # the dt ladder is fixed at 10 levels: a count below the old minimum is an unknown key
        with pytest.raises(SchemaError, match=r"^/analysis/refinements: unknown key$"):
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

    def test_mode_phase_is_libms_atan2_of_the_mode_coefficient(self):
        cfg = load_config(reference_config("d1q3"))
        payload, _ = simulate_payload(cfg)
        start = initial_state(cfg.spec, cfg.grid_sizes, cfg.box_lengths, cfg.initial)
        for n in (0, 1, 57, cfg.steps):
            coeff = experiments.mode_coefficient(scheme.density(run(start, cfg.spec, n).f), cfg.initial.mode)
            record = payload["observables"][n]
            assert record["mode_phase"] == math.atan2(coeff.imag, coeff.real)
            assert record["mode_amplitude"] == abs(coeff)


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

    @pytest.mark.parametrize("grids, message", [
        ([256, 128, 64], "expected increasing values, got [256, 128, 64]"),
        ([64, 64, 128], "expected at least 2 distinct values, got [64, 64, 128]"),
        ([64], "expected at least 2 distinct values, got [64]"),
        ([], "expected at least 2 distinct values, got []"),
    ], ids=["decreasing", "repeated", "one", "empty"])
    def test_bad_grids_raise_before_any_run(self, monkeypatch, grids, message):
        cfg = load_config(reference_config("d1q3"))
        runs = []
        monkeypatch.setattr(experiments, "_residual_pair", lambda *args: runs.append(args))
        with pytest.raises(ValidationError) as err:
            experiments.refinement_study(cfg.spec, cfg.box_lengths, grids, cfg.initial, cfg.warmup)
        assert str(err.value) == message
        assert runs == []

    @pytest.mark.parametrize("initial, message", [
        (InitialData("sine", 1.0, 0.0, (1,)), "amplitude: expected a nonzero amplitude, got 0"),
        (InitialData("sine", 1.0, 0.01, (0,)), "mode: expected a nonzero mode, got [0]"),
    ], ids=["amplitude", "mode"])
    def test_uniform_sine_raises_before_any_run(self, monkeypatch, initial, message):
        # a uniform "sine" would leave both residuals at the floor, which passes
        cfg = load_config(reference_config("d1q3"))
        runs = []
        monkeypatch.setattr(experiments, "_residual_pair", lambda *args: runs.append(args))
        with pytest.raises(ValidationError) as err:
            experiments.refinement_study(cfg.spec, cfg.box_lengths, [64, 128, 256], initial, 40)
        assert str(err.value) == message
        assert runs == []

    @pytest.mark.parametrize("initial, message", [
        (InitialData("sine", 1.0, 0.0, (1,)), "amplitude: expected a nonzero amplitude, got 0"),
        (InitialData("sine", 1.0, 0.01, (0,)), "mode: expected a nonzero mode, got [0]"),
    ], ids=["amplitude", "mode"])
    def test_residual_pair_rejects_uniform_sine(self, monkeypatch, initial, message):
        # the public pair applies refinement_study's initial-field rule
        cfg = load_config(reference_config("d1q3"))
        runs = []
        monkeypatch.setattr(experiments, "_residual_pair", lambda *args: runs.append(args))
        with pytest.raises(ValidationError) as err:
            experiments.residual_pair(cfg.spec, (64,), cfg.box_lengths, initial, 40)
        assert str(err.value) == message
        assert runs == []

    def test_residual_pair_holds_few_state_arrays(self):
        # at most the run's input, f and out plus one K f block: 3.26 state arrays;
        # the moments, the density, its FFT and one complex grid stay below, at 2.82
        # (3.42 with a fresh product and inverse FFT, 4.4 before blocking)
        cfg = load_config(reference_config("d2q5"))
        n = 128
        args = (cfg.spec, (n, n), cfg.box_lengths, experiments._transition_initial(cfg), cfg.warmup,
                experiments.transition_prediction(cfg.spec, 3))
        experiments._residual_pair(*args)  # fills the lazy operator caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            experiments._residual_pair(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (cfg.spec.q * n * n * 8) < 3.3

    def test_fit_slope_is_the_least_squares_slope(self):
        # exact on a power law, and np.polyfit's line to rounding on scattered data
        dxs = [1 / 64, 1 / 128, 1 / 256]
        assert experiments._fit_slope(dxs, [3.0 * dx ** 3 for dx in dxs]) == pytest.approx(3.0, rel=1e-14)
        residuals = [2.1e-7, 3.3e-8, 3.6e-9]
        fitted = np.polyfit(np.log(dxs), np.log(residuals), 1)[0]
        assert experiments._fit_slope(dxs, residuals) == pytest.approx(fitted, rel=1e-14)

    def test_residual_pair_is_a_study_row(self):
        cfg = load_config(reference_config("d1q3"))
        grids = [16, 32]
        study = experiments.refinement_study(cfg.spec, cfg.box_lengths, grids, cfg.initial,
                                             cfg.warmup)
        for n, row in zip(grids, study["rows"]):
            pair = experiments.residual_pair(cfg.spec, (n,), cfg.box_lengths, cfg.initial,
                                             cfg.warmup)
            assert pair == row

    @pytest.mark.parametrize("shift", [(0.0, 0.0), (0.1, 0.0)], ids=["zero", "x"])
    @pytest.mark.parametrize("equilibrium, axes", [
        # at zero shift xi_1, xi_3 and xi_4 span x only and xi_2 is empty
        ((0.5, 0.25, 0.0, 0.25, 0.0), [[0], [], [0], [0]]),
        # at zero shift xi_1 spans x only and xi_2 y only
        ((0.2,) * 5, [[0], [1], [0, 1], [0, 1]]),
    ], ids=["x-only", "y-only"])
    def test_residual_pair_matches_whole_array_formulas(self, equilibrium, axes, shift):
        # symbols in fewer axes than the grid, or none, which no shipped config has
        cfg = load_config(reference_config("d2q5"))
        u_tilde = VelocityShift.zero() if shift == (0.0, 0.0) else VelocityShift.constant(shift)
        spec = replace(cfg.spec, equilibrium=equilibrium, u_tilde=u_tilde)
        prediction = experiments.transition_prediction(spec, 3)
        if u_tilde.mode == "zero":
            assert [sorted({a for e, _ in xi[0] + xi[1] for a, n in enumerate(e) if n})
                    for xi in prediction.xi[1:]] == axes
        grid, initial = (32, 32), experiments._transition_initial(cfg)
        got = experiments._residual_pair(spec, grid, cfg.box_lengths, initial, cfg.warmup,
                                         prediction)
        # the same residuals as whole-array formulas, each symbol a plain evaluate_terms sum
        state = run(initial_state(spec, grid, cfg.box_lengths, initial), spec, cfg.warmup)
        rho = scheme.density(state.f)
        e = np.reshape(spec.equilibrium, (-1, 1, 1))
        m = scheme.moment_field(state, spec)
        rho_hat = np.fft.fftn(rho)
        ik = experiments._wavenumbers(rho.shape, cfg.box_lengths)
        r_tr = 0.0
        for k in range(1, spec.q):
            xi = prediction.xi[k]
            terms = xi[0] + tuple((exps, state.dt * c) for exps, c in xi[1])
            xi_field = np.fft.ifftn(evaluate_terms(terms, ik) * rho_hat).real
            predicted = prediction.e[k] * rho + (state.dt * prediction.pre_collision_factor(k)) * xi_field
            r_tr = max(r_tr, float(np.max(np.abs(m[k] - predicted))))
        want = {"grid": list(grid), "dx": state.dx, "dt": state.dt,
                "equilibrium_residual": float(np.max(np.abs(state.f - e * rho))),
                "transition_residual": r_tr}
        assert json.dumps(got) == json.dumps(want)


def loop_invariance(cfg):
    """The u_invariance section as pairwise loops: the largest c and D difference
    over every pair of sweep members, and the mu2 spread grouped by json.dumps(k)."""
    lam, dim = cfg.spec.vset.lam, cfg.spec.dim
    specs = [
        replace(cfg.spec, u_tilde=VelocityShift.zero() if m == 0.0
                else VelocityShift.constant((float(m) * lam,) * dim))
        for m in cfg.u_sweep
    ]
    equations = [derive_equivalent_equation(spec, 3) for spec in specs]
    c_scale = max(max(np.max(np.abs(eq.c)) for eq in equations), 1e-300)
    d_scale = max(max(np.max(np.abs(eq.D)) for eq in equations), 1e-300)
    c_diff = d_diff = 0.0
    for i in range(len(equations)):
        for j in range(i + 1, len(equations)):
            c_diff = max(c_diff, float(np.max(np.abs(equations[i].c - equations[j].c))))
            d_diff = max(d_diff, float(np.max(np.abs(equations[i].D - equations[j].D))))
    by_k = {}
    for spec in specs:
        report = compare_with_prediction(
            spec, cfg.k_samples, order=3, relative=RELATIVE_TOLERANCES, floors=ABSOLUTE_FLOORS,
        ).to_json_dict()
        for rec in report["records"]:
            by_k.setdefault(json.dumps(rec["k"]), []).append(complex(*rec["mu"][2]))
    mu2_spread = 0.0
    for values in by_k.values():
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                mu2_spread = max(mu2_spread, abs(values[i] - values[j]))
    return {
        "pass": bool(c_diff / c_scale <= 1e-10 and d_diff / d_scale <= 1e-10),
        "c_max_rel_difference": c_diff / c_scale,
        "D_max_rel_difference": d_diff / d_scale,
        "mu2_max_spread": mu2_spread,
    }


def d2q5_repeated_samples():
    """d2q5 over four shifts, with a repeated wavevector and -0.0 components."""
    doc = json.loads(reference_config("d2q5"))
    doc["analysis"].update(
        u_sweep=[0.0, 0.1, 0.3, -0.2], grids=[16, 32],
        k_samples=[[0.4, -0.0], [0.4, -0.0], [0.4, 0.0], [0.0, 0.4], [-0.0, 0.8], [1.2, 0.5]],
    )
    return doc


def d1q2_cancelling_diffusion():
    """D1Q2 whose D is cancellation noise, so it moves with u well above rounding
    (the invariance check fails); the largest move is not between the first and
    last sweep members."""
    doc = json.loads(reference_config("d1q2"))
    doc["scheme"].update(equilibrium=[1e-12, 1 - 1e-12], relaxation=[0.0, 1.0])
    doc["analysis"].update(u_sweep=[0.0, 0.25, -0.3, 0.1], grids=[16, 32])
    return doc


class TestVerifyReport:
    @pytest.mark.parametrize("make_doc", [d2q5_repeated_samples, d1q2_cancelling_diffusion])
    def test_u_invariance_matches_pairwise_loops(self, make_doc):
        cfg = load_config(json.dumps(make_doc()))
        section = experiments.verify_report(cfg)["u_invariance"]
        assert section == loop_invariance(cfg)
        assert section["mu2_max_spread"] > 0.0

    @pytest.mark.parametrize("sweep, message", [
        ((), "expected at least 2 values, got 0"),
        ((0.2,), "expected at least 2 values, got 1"),
        ((0.2, 0.2), "expected at least 2 distinct values, got [0.2, 0.2]"),
    ], ids=["empty", "one", "repeated"])
    def test_vacuous_sweep_raises_before_any_work(self, monkeypatch, sweep, message):
        # load_config rejects these sweeps; a library caller's config bypasses it
        cfg = replace(load_config(reference_config("d1q3")), u_sweep=sweep)
        calls = []
        monkeypatch.setattr(experiments, "dispersion_payload", lambda *args: calls.append(args))
        with pytest.raises(ValidationError) as err:
            experiments.verify_report(cfg)
        assert str(err.value) == message
        assert calls == []

    @pytest.mark.parametrize("change, message", [
        ({"initial": InitialData("sine", 1.0, 0.0, (1,))}, "amplitude: expected a nonzero amplitude, got 0"),
        ({"grids": (64,)}, "expected at least 2 distinct values, got [64]"),
        ({"grids": (128, 64)}, "expected increasing values, got [128, 64]"),
    ], ids=["zero_amplitude", "one_grid", "decreasing"])
    def test_refinement_rules_raise_before_any_work(self, monkeypatch, change, message):
        # load_config rejects these too; a library caller's config bypasses it
        cfg = replace(load_config(reference_config("d1q3")), **change)
        calls = []
        monkeypatch.setattr(experiments, "compare_with_prediction", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValidationError) as err:
            experiments.verify_report(cfg)
        assert str(err.value) == message
        assert calls == []

    def test_third_order_fault_fails_verify(self, monkeypatch):
        # verify compares mu2 whatever the config says: a 1.5x predicted mu2 fails it
        true_predictor = dispersion.predicted_symbols

        def scaled(equation, k):
            mu = true_predictor(equation, k)
            return tuple(mu[:2]) + (1.5 * mu[2],) + tuple(mu[3:])

        monkeypatch.setattr(dispersion, "predicted_symbols", scaled)
        report = experiments.verify_report(load_config(reference_config("d1q3")))
        assert report["predictor_vs_oracle"]["pass"] is False
        assert report["u_invariance"]["mu2_max_spread"] > 0.0
        assert report["overall_pass"] is False

    def test_uniform_field_studies_the_default_sine(self):
        # the residual studies need a non-uniform field: a uniform one is replaced
        # by rho = 1 + 0.01 sin(2 pi x), which the shipped d1q3 config writes out
        doc = json.loads(reference_config("d1q3"))
        assert doc["initial"] == {"type": "sine", "base": 1.0, "amplitude": 0.01, "mode": [1]}
        sine = load_config(json.dumps(doc))
        uniform = replace(sine, initial=InitialData("uniform"))
        assert (experiments.verify_report(uniform)["transition_scaling"]
                == experiments.verify_report(sine)["transition_scaling"])


class TestPayloads:
    @pytest.mark.parametrize("payload", [experiments.analyze_payload,
                                         experiments.dispersion_payload])
    def test_order_zero_is_not_the_configs_order(self, payload):
        with pytest.raises(OrderUnavailable, match="order 0"):
            payload(load_config(reference_config("d1q3")), 0)


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

    def both_formats(self, runner, config_path, tmp_path, command):
        """The JSON payload and the CSV rows that `command` writes for one config."""
        for fmt in ("json", "csv"):
            result = runner.invoke(main, [command, "--config", str(config_path),
                                          "--output", str(tmp_path / fmt), "--format", fmt])
            assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "json" / f"{command}.json").read_text())
        with open(tmp_path / "csv" / f"{command}.csv", newline="", encoding="utf-8") as fh:
            return payload, list(csv.reader(fh))

    def test_analyze_csv_layout(self, runner, config_file, tmp_path):
        payload, rows = self.both_formats(runner, config_file, tmp_path, "analyze")
        assert rows[0] == ["order", "multi_index", "coefficient"]
        terms = [(entry["order"], term) for entry in payload["equation"]["operators"]
                 for term in entry["terms"]]
        assert len(rows) == 1 + len(terms) and len(terms) == 3  # c, D and the dispersion term
        for row, (order, term) in zip(rows[1:], terms):
            assert row == [str(order), " ".join(map(str, term["multi_index"])),
                           repr(term["coefficient"])]

    def test_convergence_csv_layout(self, runner, config_file, tmp_path):
        study, rows = self.both_formats(runner, config_file, tmp_path, "convergence")
        assert rows[0] == ["grid", "dx", "dt", "equilibrium_residual", "transition_residual"]
        assert len(rows) == 1 + len(BASE["analysis"]["grids"])
        for row, entry in zip(rows[1:], study["rows"]):
            assert row == ["x".join(map(str, entry["grid"]))] + [
                repr(entry[key]) for key in ("dx", "dt", "equilibrium_residual", "transition_residual")]

    @pytest.mark.parametrize("initial,header", [
        (BASE["initial"], ["step", "mass", "mode_amplitude", "mode_phase"]),
        ({"type": "uniform", "value": 1.0}, ["step", "mass"]),
    ], ids=["sine", "uniform"])
    def test_simulate_csv_layout(self, runner, tmp_path, initial, header):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({**BASE, "initial": initial}))
        payload, rows = self.both_formats(runner, path, tmp_path, "simulate")
        assert rows[0] == header
        assert len(rows) == 1 + BASE["analysis"]["steps"] + 1
        for row, rec in zip(rows[1:], payload["observables"]):
            assert row == [str(rec["step"])] + [repr(rec[key]) for key in header[1:]]

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

    def test_snapshot_fields_are_numbers(self, runner, config_file, tmp_path):
        # each coordinate is written as a float's repr, not a numpy scalar's
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "snapshot.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[0] == "x1" and rows
        for row in rows:
            assert len(row) == len(header)
            assert [repr(float(field)) for field in row] == row

    def test_simulate_drift_of_zero_mean_density(self, runner, tmp_path):
        # the mass of a zero-mean density is rounding noise, so the drift is
        # taken relative to sum |f| at step 0 rather than to the mass
        doc = json.loads(reference_config("d1q3"))
        doc["initial"] = {"type": "sine", "base": 0.0, "amplitude": 0.01, "mode": [1]}
        path = tmp_path / "zero_mean.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "simulate.json").read_text())
        assert payload["mass_relative_drift"] <= 1e-13

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

    def test_verify_reports_failing_crosscheck_numbers(self, runner, tmp_path):
        # shipped d1q2 with E = (7.8e-62, 1) and s_1 = 1: the direct A_2 is a
        # rounding-level term and the regrouped one is 0, so criterion 3 fails.
        # The failing section keeps the numbers its verdict rests on
        doc = json.loads(reference_config("d1q2"))
        doc["scheme"].update(equilibrium=[7.8e-62, 1.0], relaxation=[0.0, 1.0])
        path = tmp_path / "counterexample.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert "dhumieres_crosscheck: FAIL" in result.output
        report = json.loads((out / "verify.json").read_text())
        section = report["dhumieres_crosscheck"]
        assert "error" not in section
        assert section["pass"] is False
        assert section["relative_difference"] == 1.0
        assert section["max_abs_difference"] == section["scale"] > 0.0
        assert (section["direct_terms"], section["regrouped_terms"]) == (1, 0)
        assert section["tolerance"] == 1e-10
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

    @pytest.mark.parametrize("args", [
        [],
        ["verify", "--output", "out"],
        ["verify", "--config", "no.json", "--output", "out"],
        ["verify", "--config", ".", "--output", "out"],
        ["analyze", "--config", "experiment.json", "--output", "out", "--format", "xml"],
        ["analyze", "--config", "experiment.json", "--output", "out", "--order", "4"],
        ["plot", "--config", "experiment.json", "--output", "out"],
        ["verify", "--config", "experiment.json", "--output", "taken"],
        ["verify", "--config", "latin-1.json", "--output", "out"],
    ], ids=["no-command", "no-config", "missing-config", "config-is-a-directory",
            "format-xml", "order-4", "unknown-command", "output-is-a-file", "not-utf-8"])
    def test_usage_error_exits_two_without_output(self, runner, config_file, tmp_path,
                                                  monkeypatch, args):
        # relative paths, so that the config's default output dir "." is tmp_path too
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("not a directory")
        (tmp_path / "latin-1.json").write_bytes(b"\xff{}")
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "internal error" not in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["experiment.json", "latin-1.json",
                                                              "taken"]
        assert (tmp_path / "taken").read_text() == "not a directory"

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

    @pytest.mark.parametrize("key,value,message", [
        # a repeated shift leaves u_invariance comparing one shift with itself
        ("u_sweep", [0.2, 0.2],
         "/analysis/u_sweep: expected at least 2 distinct values, got [0.2, 0.2]"),
        # criterion 1's bounds are fixed, so a PASS in verify.json always means them
        ("tolerances", {"relative": [1e-8, 1e-6, 1e-4], "floors": [1e-12, 1e-10, 1e-8]},
         "/analysis/tolerances: unknown key"),
        # so are its order and dt ladder: verify always compares mu0, mu1 and mu2
        ("order", 1, "/analysis/order: unknown key"),
        ("dt0", 0.02, "/analysis/dt0: unknown key"),
        ("refinements", 10, "/analysis/refinements: unknown key"),
    ], ids=["repeated-u-sweep", "tolerances", "order", "dt0", "refinements"])
    @pytest.mark.parametrize("command", ["verify", "dispersion"])
    def test_shipped_config_with_rejected_analysis_exits_two(self, runner, tmp_path, command,
                                                             key, value, message):
        doc = json.loads(reference_config("d1q3"))
        doc["analysis"][key] = value
        path = tmp_path / "d1q3.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--output", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["d1q3.json"]

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

    @pytest.mark.parametrize("command", ["verify", "convergence"])
    def test_decreasing_grids_exit_two_without_output(self, runner, tmp_path, command):
        # each refinement ratio divides a residual by the next finer grid's
        doc = json.loads(reference_config("d1q3"))
        doc["analysis"]["grids"] = [256, 128, 64]
        path = tmp_path / "grids.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: /analysis/grids: expected increasing values, got [256, 128, 64]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "convergence", "simulate"])
    @pytest.mark.parametrize("name,length", [("d1q3", [-1.0]), ("d1q3", [0.0]), ("d2q5", [-1.0, -1.0])],
                             ids=["negative", "zero", "d2q5_negative"])
    def test_non_positive_box_length_exits_two_without_output(self, runner, tmp_path, command,
                                                              name, length):
        doc = json.loads(reference_config(name))
        doc["grid"]["length"] = length
        path = tmp_path / "length.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: box lengths must be positive, got {length}\n"
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

    @pytest.mark.parametrize("rate", [1e-200, 5e-324])
    def test_non_finite_coefficient_analyze_exits_two_without_report(self, runner, tmp_path,
                                                                     rate):
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, rate, 1.5]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "analyze"
        result = runner.invoke(main, ["analyze", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "has a non-finite coefficient (smallest relaxation rate s[1] = " in result.stderr
        assert not out.exists()

    def test_non_finite_transition_prediction_convergence_exits_two_without_report(self, runner,
                                                                                   tmp_path):
        # the error names the order-3 transition prediction the study asked for,
        # not the order-2 equivalent equation it reads A_1 from
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["relaxation"] = [0.0, 5e-324, 1.5]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "convergence"
        result = runner.invoke(main, ["convergence", "--config", str(path), "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert ("order-3 transition prediction has a non-finite coefficient "
                "(smallest relaxation rate s[1] = ") in result.stderr
        assert "equivalent equation" not in result.stderr
        assert not out.exists()

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
            assert result.stderr == ("error: wavevector k=(0.0,) has |k| = 0 in floating point; "
                                     "the oracle compares only a finite, nonzero |k|\n")
            assert not out.exists()

    @pytest.mark.parametrize("k_samples, k, norm", [
        ([[0.0], [0.4]], "0.0", "0"), ([[1e-300]], "1e-300", "0"), ([[1e300]], "1e+300", "inf"),
    ], ids=["zero", "norm-underflows", "norm-overflows"])
    def test_wavevector_without_finite_nonzero_norm_exits_two(self, runner, tmp_path,
                                                              k_samples, k, norm):
        # a norm that underflows would compare the zero series; one that overflows
        # would warn and then blame the dt ladder
        doc = json.loads(reference_config("d1q3"))
        doc["analysis"]["k_samples"] = k_samples
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "dispersion"):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, result.output
            assert result.stdout == ""
            assert result.stderr == (f"error: wavevector k=({k},) has |k| = {norm} in floating "
                                     "point; the oracle compares only a finite, nonzero |k|\n")
            assert not out.exists()

    def test_overflowing_equilibrium_exits_two_with_one_error_line(self, runner, tmp_path):
        # Theta = M (E o v) - (M E) (x) c overflows as it is formed: the derivation and
        # the transition prediction report their typed error, and no numpy warning
        doc = json.loads(reference_config("d1q3"))
        doc["scheme"]["equilibrium"] = [1e300, -1e300, 1.0]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        for command, what in (("verify", "equivalent equation"), ("analyze", "equivalent equation"),
                              ("dispersion", "equivalent equation"),
                              ("convergence", "transition prediction")):
            out = tmp_path / command
            result = runner.invoke(main, [command, "--config", str(path), "--output", str(out)])
            assert result.exit_code == 2, (command, result.output)
            assert result.stderr == (f"error: order-3 {what} has a non-finite coefficient "
                                     "(largest equilibrium weight |E[0]| = 1e+300)\n")
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

    def test_interrupt_exits_one_without_output(self, runner, config_file, tmp_path,
                                                monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "verify_report", interrupt)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", str(config_file), "--output", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "\nAborted!\n"
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

    @pytest.mark.parametrize("blocked", ["snapshot.csv", "snapshot_meta.json"])
    def test_unwritable_snapshot_exits_two_without_output(self, runner, config_file, tmp_path,
                                                          blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        result = runner.invoke(main, ["simulate", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert [p.name for p in out.iterdir()] == [blocked]

    def test_snapshot_internal_error_exits_three_without_output(self, runner, config_file,
                                                                tmp_path, monkeypatch):
        def fail(state, spec, csv_path, meta_path, step_count):
            csv_path.write_text("partial")
            raise RuntimeError("unexpected")

        monkeypatch.setattr(experiments, "save_snapshot", fail)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", str(config_file),
                                      "--output", str(out)])
        assert result.exit_code == 3, result.output
        assert result.stderr == "internal error: RuntimeError: unexpected\n"
        assert list(out.iterdir()) == []

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

    @staticmethod
    def src_env(**extra):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    @pytest.mark.parametrize("module", ["scipy", "click"])
    def test_runs_without_module(self, tmp_path, module):
        env = self.src_env()
        probe = subprocess.run(
            [sys.executable, "-c", f"import sys, rvlbm.cli; print({module!r} in sys.modules)"],
            env=env, capture_output=True, text=True,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "False"

        path = tmp_path / "d1q2.json"
        path.write_text(reference_config("d1q2"))
        blocked = (
            f"import sys; sys.modules[{module!r}] = None\n"
            "import rvlbm\n"
            "from rvlbm.cli import main\n"
            "main(['verify', '--config', sys.argv[1], '--output', sys.argv[2]])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", blocked, str(path), str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert (tmp_path / "out" / "verify.json").exists()

    def test_ascii_streams_get_utf8_bytes(self, tmp_path):
        # the equivalent equation prints ∂ and ρ, and an error line can echo any path
        env = self.src_env(PYTHONIOENCODING="ascii")
        path = tmp_path / "d1q3.json"
        path.write_text(reference_config("d1q3"))
        out = tmp_path / "out"
        cli = [sys.executable, "-m", "rvlbm.cli"]
        result = subprocess.run([*cli, "analyze", "--config", str(path), "--output", str(out)],
                                env=env, capture_output=True)
        assert result.returncode == 0, result.stderr
        pretty = experiments.analyze_payload(load_config(reference_config("d1q3")))["pretty"]
        assert pretty.startswith("∂t ρ")
        assert result.stdout == f"{pretty}\nwrote {out / 'analyze.json'}\n".encode("utf-8")
        assert result.stderr == b""

        blocker = tmp_path / "pris é"
        blocker.write_text("not a directory")
        path.write_text(config_text(output={"dir": str(blocker)}))
        result = subprocess.run([*cli, "verify", "--config", str(path)], env=env,
                                capture_output=True)
        assert result.returncode == 2, result.stderr
        assert result.stdout == b""
        assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
        assert repr(str(blocker)).encode("utf-8") in result.stderr

    def test_reference_config_runs_end_to_end(self, runner, tmp_path):
        path = tmp_path / "d1q3.json"
        path.write_text(reference_config("d1q3"))
        out = tmp_path / "out"
        result = runner.invoke(main, ["analyze", "--config", str(path),
                                      "--output", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "analyze.json").exists()
