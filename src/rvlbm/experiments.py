"""Experiment orchestration and reporting.

Builds the payloads behind the CLI commands: equivalent-equation analysis,
oracle comparison, time-domain simulation with observables, refinement
studies of the equilibrium-proximity and transition residuals, and the
combined verification report.  Differential operators are evaluated on the
periodic grid spectrally, so an O(dt^3) residual is not polluted by
finite-difference error.  All reports serialize deterministically: keys are
sorted and floats use the shortest round-trip form.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import replace

import numpy as np

from .config import (ExperimentConfig, InitialData, check_initial, check_refinement_grids,
                     check_u_sweep)
from .dispersion import DEFAULT_ORDER, ComparisonReport, compare_with_prediction
from .equivalent import (
    derive_equivalent_equation,
    dhumieres_crosscheck,
    transition_prediction,
)
from .errors import ValidationError
from .lattice import _term_values
from .scheme import (
    SchemeSpec,
    StateField,
    VelocityShift,
    cell_centers,
    density,
    equilibrium_state,
    moment_field,
    run,
    sine_density,
    spec_to_dict,
    _advance,
)

RESIDUAL_FLOOR = 1e-13
TRANSITION_SLOPE_RANGE = (2.7, 3.3)
TRANSITION_RATIO_RANGE = (6.5, 9.5)
EQUILIBRIUM_SLOPE_RANGE = (0.85, 1.15)
INVARIANCE_RTOL = 1e-10


def _wavenumbers(shape, box_lengths) -> list[np.ndarray]:
    """i k_a on the FFT grid of a periodic field of `shape`, one broadcastable array per axis."""
    ik = []
    for axis, (n, length) in enumerate(zip(shape, box_lengths)):
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        ik.append(1j * freqs.reshape((n,) + (1,) * (len(shape) - 1 - axis)))
    return ik


def initial_state(spec: SchemeSpec, grid_sizes, box_lengths, initial: InitialData) -> StateField:
    """Equilibrium-initialized state for a uniform or sine density."""
    if initial.kind == "uniform":
        rho = initial.value
    else:
        rho = sine_density(grid_sizes, box_lengths, initial.value, initial.amplitude, initial.mode)
    return equilibrium_state(spec, grid_sizes, box_lengths, rho)


def residual_pair(spec: SchemeSpec, grid_sizes, box_lengths, initial: InitialData,
                  warmup: int) -> dict:
    """Equilibrium-proximity and slaved-moment residuals after warm-up.

    The first residual is max_j ||f_j - E_j rho||_inf.  The second compares
    the pre-collision moments against e_k rho - dt (1/2 + sigma_k) xi_k rho
    with xi_k evaluated spectrally on the measured density.  A uniform sine
    `initial` raises ValidationError before the run, as in refinement_study.
    """
    check_initial(initial)
    prediction = transition_prediction(spec, 3)
    return _residual_pair(spec, grid_sizes, box_lengths, initial, warmup, prediction)


def _residual_pair(spec, grid_sizes, box_lengths, initial, warmup, prediction) -> dict:
    """residual_pair given the transition prediction.

    The initial state goes straight into `run`, which frees it once the
    collider has its copy, and the final state is let go once its moments
    are taken.  Each residual is formed component by component, with the
    operands of the whole-array formulas in their order, so they round as
    those do: the equilibrium one in a grid-sized scratch array, freed before
    the moments are taken.  One FFT of rho serves every xi_k.  Each
    xi_k = xi_k[0] + dt xi_k[1] is one term tuple, with xi_k[1]'s
    coefficients scaled by dt, whose terms are added into one zeroed grid,
    which rounds as evaluate_terms's 0.0 + t_0 + t_1 + ... does.  The grid
    then holds the product with the spectrum, its inverse FFT and, in the
    imaginary half, the predicted moment and its difference from m[k]:
    besides m, rho and rho_hat, one complex grid is live at a time.
    """
    state = run(initial_state(spec, grid_sizes, box_lengths, initial), spec, warmup)
    rho = density(state.f)
    scratch = np.empty_like(rho)
    r_eq = float(np.max([_max_abs_difference(f_j, np.multiply(e_j, rho, out=scratch), scratch)
                         for f_j, e_j in zip(state.f, spec.equilibrium)]))
    del scratch
    m = moment_field(state, spec)
    dx, dt = state.dx, state.dt
    del state
    rho_hat = np.fft.fftn(rho)
    ik = _wavenumbers(rho.shape, box_lengths)
    r_tr = 0.0
    for k in range(1, spec.q):
        xi = prediction.xi[k]
        terms = xi[0] + tuple((e, dt * c) for e, c in xi[1])
        spectrum = np.zeros_like(rho_hat)
        for term in _term_values(terms, ik):
            spectrum += term
        spectrum *= rho_hat
        xi_field = np.fft.ifftn(spectrum, out=spectrum).real
        # predicted = e_k rho + (dt * pre_collision_factor) xi_field, summed in the
        # imaginary half of the same grid, which nothing reads
        predicted = spectrum.imag
        np.multiply(prediction.e[k], rho, out=predicted)
        predicted += np.multiply(dt * prediction.pre_collision_factor(k), xi_field, out=xi_field)
        r_tr = max(r_tr, float(_max_abs_difference(m[k], predicted, predicted)))
        del spectrum, xi_field, predicted  # so the next symbol does not sit beside this grid
    return {
        "grid": list(grid_sizes),
        "dx": dx,
        "dt": dt,
        "equilibrium_residual": r_eq,
        "transition_residual": r_tr,
    }


def _max_abs_difference(minuend, subtrahend, out) -> np.floating:
    """max |minuend - subtrahend|, formed in `out`."""
    np.subtract(minuend, subtrahend, out=out)
    return np.max(np.abs(out, out=out))


def _fit_slope(dxs, residuals) -> float:
    """Least-squares slope of log(residual) against log(dx), in closed form.

    math.log and math.fsum round alike on every machine, where np.log follows
    numpy's SIMD dispatch and np.polyfit the BLAS kernel.
    """
    x = [math.log(v) for v in dxs]
    y = [math.log(v) for v in residuals]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    sxy = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y))
    return sxy / math.fsum((a - x_mean) ** 2 for a in x)


def refinement_study(spec: SchemeSpec, box_lengths, grids, initial: InitialData,
                     warmup: int) -> dict:
    """Residual scaling across grid refinements, with fitted log-log slopes.

    `grids` must hold at least 2 distinct values and increase, coarsest
    first: each ratio divides a grid's residual by the next finer grid's.
    Any other list, or a uniform sine `initial` (config.check_initial), raises
    ValidationError before the first run.

    Residuals at the rounding floor are reported with slope "floor" instead of
    a meaningless fit.
    """
    check_refinement_grids(grids)
    check_initial(initial)
    d = len(box_lengths)
    prediction = transition_prediction(spec, 3)
    rows = [_residual_pair(spec, (int(n),) * d, box_lengths, initial, warmup, prediction)
            for n in grids]
    dxs = np.array([row["dx"] for row in rows])
    out = {"rows": rows}
    for key, label in (
        ("equilibrium_residual", "equilibrium"),
        ("transition_residual", "transition"),
    ):
        values = np.array([row[key] for row in rows])
        ratios = [
            float(values[i] / values[i + 1]) if values[i + 1] > 0 else None
            for i in range(len(values) - 1)
        ]
        if np.all(values < RESIDUAL_FLOOR):
            out[f"{label}_slope"] = "floor"
        else:
            out[f"{label}_slope"] = _fit_slope(dxs, np.maximum(values, 1e-300))
        out[f"{label}_ratios"] = ratios
    return out


def _transition_pass(study: dict) -> bool:
    """Third-order gate: the transition slope and every refinement ratio in range."""
    slope = study["transition_slope"]
    ratios = [r for r in study["transition_ratios"] if r is not None]
    return bool(
        slope == "floor"
        or (
            TRANSITION_SLOPE_RANGE[0] <= slope <= TRANSITION_SLOPE_RANGE[1]
            and all(TRANSITION_RATIO_RANGE[0] <= r <= TRANSITION_RATIO_RANGE[1] for r in ratios)
        )
    )


def verify_report(cfg: ExperimentConfig) -> dict:
    """Run every verification channel of the configured scheme.

    Sections, in this order: predictor_vs_oracle (shift sweep), u_invariance
    (first- and second-order tensors must not move; the third-order spread is
    recorded), transition_scaling (refinement study of the slaved-moment
    residual), and dhumieres_crosscheck (zero-shift regrouping).  The sweep
    values are multiples of lambda applied to every component of the shift.
    A sweep without 2 distinct values, and the refinement study's grid and
    initial-field rules (refinement_study), raise ValidationError before any
    work.
    """
    check_u_sweep(cfg.u_sweep)
    check_refinement_grids(cfg.grids[:3])
    check_initial(_transition_initial(cfg))
    lam, dim = cfg.spec.vset.lam, cfg.spec.dim
    sweep = [replace(cfg.spec, u_tilde=VelocityShift.zero() if m == 0.0
                     else VelocityShift.constant((float(m) * lam,) * dim))
             for m in cfg.u_sweep]
    reports = [dispersion_payload(replace(cfg, spec=spec_u)) for spec_u in sweep]
    oracle_pass = all(report.passed for report in reports)

    # max - min of each entry is the largest difference over pairs of sweep members
    equations = [derive_equivalent_equation(spec_u, 3) for spec_u in sweep]
    c = np.stack([eq.c for eq in equations])
    d = np.stack([eq.D for eq in equations])
    c_rel = float(np.max(np.ptp(c, axis=0))) / max(np.max(np.abs(c)), 1e-300)
    d_rel = float(np.max(np.ptp(d, axis=0))) / max(np.max(np.abs(d)), 1e-300)
    # every member's records are sorted alike, by (|k|, k), so position i is one k
    mu2 = np.array([[rec["mu"][2] for rec in report.records] for report in reports])
    diff = mu2[:, None] - mu2[None, :]
    # hypot is abs() on one complex number
    mu2_spread = float(np.max(np.hypot(diff[..., 0], diff[..., 1])))
    invariance_pass = bool(c_rel <= INVARIANCE_RTOL and d_rel <= INVARIANCE_RTOL)

    study = refinement_study(
        cfg.spec, cfg.box_lengths, cfg.grids[:3], _transition_initial(cfg), cfg.warmup
    )
    scaling_pass = _transition_pass(study)

    crosscheck = dhumieres_crosscheck(replace(cfg.spec, u_tilde=VelocityShift.zero()))

    overall = bool(oracle_pass and invariance_pass and scaling_pass and crosscheck["pass"])
    return {
        "predictor_vs_oracle": {
            "pass": oracle_pass,
            "sweep": [{"u_multiplier": float(m), "report": report.to_json_dict()}
                      for m, report in zip(cfg.u_sweep, reports)],
        },
        "u_invariance": {
            "pass": invariance_pass,
            "c_max_rel_difference": c_rel,
            "D_max_rel_difference": d_rel,
            "mu2_max_spread": mu2_spread,
        },
        "transition_scaling": {"pass": scaling_pass, **study},
        "dhumieres_crosscheck": crosscheck,
        "overall_pass": overall,
    }


def _transition_initial(cfg: ExperimentConfig) -> InitialData:
    """Residual studies need a non-uniform smooth field; default to a sine."""
    if cfg.initial.kind == "sine":
        return cfg.initial
    return InitialData("sine", value=1.0, amplitude=0.01, mode=(1,) * cfg.spec.dim)


def analyze_payload(cfg: ExperimentConfig, order: int = DEFAULT_ORDER) -> dict:
    equation = derive_equivalent_equation(cfg.spec, order)
    return {"equation": equation.to_json_dict(), "pretty": equation.pretty()}


def dispersion_payload(cfg: ExperimentConfig, order: int = DEFAULT_ORDER) -> ComparisonReport:
    return compare_with_prediction(cfg.spec, cfg.k_samples, order)


def mode_coefficient(rho: np.ndarray, mode) -> complex:
    """Normalized DFT coefficient of the density at an integer mode vector."""
    spectrum = np.fft.fftn(rho)
    return complex(spectrum[tuple(m % n for m, n in zip(mode, rho.shape))] / rho.size)


# overflow ends in a non-finite mass, which simulate_payload reports as a typed error
@np.errstate(over="ignore", invalid="ignore")
def simulate_payload(cfg: ExperimentConfig) -> tuple[dict, StateField]:
    """Run the configured number of steps, recording per-step observables.

    Raises ValidationError at the first step whose mass is not finite, so an
    unstable scheme stops before NaN reaches a report.
    """
    state = initial_state(cfg.spec, cfg.grid_sizes, cfg.box_lengths, cfg.initial)
    mode = cfg.initial.mode if cfg.initial.kind == "sine" else None
    mass0 = float(np.sum(state.f.real))
    # the drift is relative to sum |f| at step 0, which is the mass itself unless
    # a population is negative: the mass of a zero-mean density is rounding noise
    scale = max(float(np.sum(np.abs(state.f.real))), 1e-300)
    observables = []
    for n, f in enumerate(itertools.chain([state.f], _advance(state, cfg.spec, cfg.steps))):
        record = {"step": n, "mass": float(np.sum(f.real))}
        if not np.isfinite(record["mass"]):
            raise ValidationError(
                f"mass is not finite at step {n}: the scheme is unstable for this configuration"
            )
        if mode is not None:
            coeff = mode_coefficient(np.asarray(density(f)), mode)
            record["mode_amplitude"] = abs(coeff)
            # libm's atan2, not np.angle, whose rounding follows numpy's SIMD dispatch
            record["mode_phase"] = math.atan2(coeff.imag, coeff.real)
        observables.append(record)
    state = replace(state, f=f)
    drift = abs(observables[-1]["mass"] - mass0) / scale
    payload = {
        "steps": cfg.steps,
        "grid": list(cfg.grid_sizes),
        "dx": state.dx,
        "dt": state.dt,
        "mass_relative_drift": drift,
        "observables": observables,
    }
    return payload, state


def convergence_payload(cfg: ExperimentConfig) -> dict:
    """Refinement table for both residual scalings, with fitted slopes."""
    study = refinement_study(
        cfg.spec, cfg.box_lengths, cfg.grids, _transition_initial(cfg), cfg.warmup
    )
    slope = study["equilibrium_slope"]
    study["equilibrium_pass"] = bool(
        slope == "floor"
        or EQUILIBRIUM_SLOPE_RANGE[0] <= slope <= EQUILIBRIUM_SLOPE_RANGE[1]
    )
    study["transition_pass"] = _transition_pass(study)
    study["overall_pass"] = study["equilibrium_pass"] and study["transition_pass"]
    return study


def write_json(payload: dict, path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    The payload is serialized before the file is opened, so a payload that
    cannot be written (NaN, say) leaves no partial file behind.
    """
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(rows, path) -> None:
    """Write an iterable of rows; a generator is written as it runs."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def save_snapshot(state: StateField, spec: SchemeSpec, csv_path, meta_path, step_count: int) -> None:
    """Write one CSV row per cell (coordinates, rho, f_j) plus a JSON header."""
    x = cell_centers(state.grid_sizes, state.box_lengths).reshape(state.dim, -1)
    f = state.f.reshape(spec.q, -1)
    rho = f.sum(axis=0).real
    header = [f"x{a + 1}" for a in range(state.dim)] + ["rho"] + [f"f{j}" for j in range(spec.q)]
    cells = ([repr(float(v)) for v in x[:, c]] + [repr(float(rho[c]))]
             + [repr(float(v)) for v in f[:, c].real] for c in range(x.shape[1]))
    write_csv(itertools.chain([header], cells), csv_path)
    write_json({
        "scheme": spec_to_dict(spec),
        "grid": {"n": list(state.grid_sizes), "length": list(state.box_lengths)},
        "dx": state.dx,
        "dt": state.dt,
        "step": int(step_count),
    }, meta_path)


def analyze_csv_rows(payload: dict) -> list[list]:
    rows = [["order", "multi_index", "coefficient"]]
    for entry in payload["equation"]["operators"]:
        for term in entry["terms"]:
            rows.append([
                entry["order"],
                " ".join(str(e) for e in term["multi_index"]),
                repr(term["coefficient"]),
            ])
    return rows


def convergence_csv_rows(study: dict) -> list[list]:
    rows = [["grid", "dx", "dt", "equilibrium_residual", "transition_residual"]]
    for row in study["rows"]:
        rows.append([
            "x".join(str(n) for n in row["grid"]),
            repr(row["dx"]),
            repr(row["dt"]),
            repr(row["equilibrium_residual"]),
            repr(row["transition_residual"]),
        ])
    return rows


def simulate_csv_rows(payload: dict) -> list[list]:
    has_mode = payload["observables"] and "mode_amplitude" in payload["observables"][0]
    header = ["step", "mass"] + (["mode_amplitude", "mode_phase"] if has_mode else [])
    rows = [header]
    for rec in payload["observables"]:
        row = [rec["step"], repr(rec["mass"])]
        if has_mode:
            row += [repr(rec["mode_amplitude"]), repr(rec["mode_phase"])]
        rows.append(row)
    return rows
