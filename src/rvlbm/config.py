"""Experiment configuration: JSON schema, validation, shipped reference files.

Structural problems (wrong type, missing key) raise SchemaError carrying a
JSON-pointer path to the offending element; semantic problems (rate vector
not starting at zero, non-lattice velocity, inconsistent grid spacing) raise
ValidationError with the scheme's own message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import SchemaError, ValidationError
from .lattice import MomentPolynomial, VelocitySet, default_basis
from .scheme import SchemeSpec, VelocityShift, _grid_spacing

DEFAULT_ORDER = 3
DEFAULT_LEVELS = 10
DEFAULT_WARMUP = 20
DEFAULT_STEPS = 200
DEFAULT_GRIDS = (64, 128, 256)
DEFAULT_U_SWEEP = (0.0, 0.2, 0.5)
REFERENCE_NAMES = ("d1q2", "d1q3", "d2q5")


@dataclass(frozen=True)
class InitialData:
    """Initial density field: uniform value or a sine perturbation."""

    kind: str
    value: float = 1.0
    amplitude: float = 0.0
    mode: tuple[int, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; `spec` is ready to run."""

    spec: SchemeSpec
    grid_sizes: tuple[int, ...]
    box_lengths: tuple[float, ...]
    initial: InitialData
    order: int
    k_samples: tuple[tuple[float, ...], ...]
    dt0: float | None
    levels: int
    relative_tolerances: tuple[float, float, float]
    absolute_floors: tuple[float, float, float]
    u_sweep: tuple[float, ...]
    grids: tuple[int, ...]
    warmup: int
    steps: int
    output_path: str
    output_format: str


def _type_name(value) -> str:
    return type(value).__name__


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise SchemaError(f"{path}/{key}: missing required key")
        return default
    return obj[key]


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected object, got {_type_name(value)}")
    return value

def _expect_array(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected array, got {_type_name(value)}")
    if length is not None and len(value) != length:
        raise SchemaError(f"{path}: expected {length} elements, got {len(value)}")
    return value


def _expect_number(value, path: str) -> float:
    """`value` as a finite float; JSON's NaN, Infinity and overflowing literals are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected number, got {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected finite number, got {number}")
    return number


def _expect_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected integer, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}: expected integer >= {minimum}, got {value}")
    return value


def _expect_string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected string, got {_type_name(value)}")
    if choices is not None and value not in choices:
        raise SchemaError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _number_vector(value, path: str, length: int | None = None) -> tuple[float, ...]:
    arr = _expect_array(value, path, length)
    return tuple(_expect_number(v, f"{path}/{i}") for i, v in enumerate(arr))


def _parse_polynomials(raw, path: str, dim: int) -> tuple[MomentPolynomial, ...]:
    polys = []
    for i, entry in enumerate(_expect_array(raw, path)):
        terms = []
        for j, term in enumerate(_expect_array(entry, f"{path}/{i}")):
            term = _expect_object(term, f"{path}/{i}/{j}")
            exps = _expect_array(_get(term, "exps", f"{path}/{i}/{j}"), f"{path}/{i}/{j}/exps", dim)
            exps = tuple(
                _expect_int(e, f"{path}/{i}/{j}/exps/{a}", minimum=0)
                for a, e in enumerate(exps)
            )
            coef = _expect_number(_get(term, "coef", f"{path}/{i}/{j}"), f"{path}/{i}/{j}/coef")
            terms.append((exps, coef))
        polys.append(MomentPolynomial.from_terms(dim, terms))
    return tuple(polys)


def _parse_scheme(raw, path: str) -> SchemeSpec:
    raw = _expect_object(raw, path)
    dim = _expect_int(_get(raw, "d", path), f"{path}/d", minimum=1)
    lam = _expect_number(_get(raw, "lambda", path, required=False, default=1.0), f"{path}/lambda")
    q_declared = _get(raw, "q", path, required=False)
    vel_raw = _expect_array(_get(raw, "velocities", path), f"{path}/velocities")
    if q_declared is not None:
        q_declared = _expect_int(q_declared, f"{path}/q", minimum=dim + 1)
        if q_declared != len(vel_raw):
            raise ValidationError(
                f"q = {q_declared} does not match the {len(vel_raw)} velocities given"
            )
    vectors = tuple(
        _number_vector(v, f"{path}/velocities/{j}", dim) for j, v in enumerate(vel_raw)
    )
    vset = VelocitySet(dim, lam, vectors)

    polys_raw = _get(raw, "polynomials", path, required=False)
    basis = (
        default_basis(vset)
        if polys_raw is None
        else _parse_polynomials(polys_raw, f"{path}/polynomials", dim)
    )
    s = _number_vector(_get(raw, "relaxation", path), f"{path}/relaxation")
    ew = _number_vector(_get(raw, "equilibrium", path), f"{path}/equilibrium")

    shift_raw = _get(raw, "u_tilde", path, required=False)
    if shift_raw is None:
        shift = VelocityShift.zero()
    else:
        shift_raw = _expect_object(shift_raw, f"{path}/u_tilde")
        mode = _expect_string(
            _get(shift_raw, "mode", f"{path}/u_tilde"),
            f"{path}/u_tilde/mode",
            choices={"zero", "constant", "sine"},
        )
        if mode == "zero":
            shift = VelocityShift.zero()
        else:
            value = _number_vector(
                _get(shift_raw, "value", f"{path}/u_tilde"), f"{path}/u_tilde/value", dim
            )
            shift = VelocityShift(mode, value)
    return SchemeSpec(vset, basis, s, ew, shift)


def default_k_samples(dim: int, count: int = 8) -> tuple[tuple[float, ...], ...]:
    """Wavevectors cycling through the axes and the main diagonal."""
    samples = []
    for i in range(1, count + 1):
        magnitude = 0.4 * i
        pick = (i - 1) % (dim + 1) if dim > 1 else 0
        if dim > 1 and pick == dim:
            direction = np.ones(dim) / np.sqrt(dim)
        else:
            direction = np.zeros(dim)
            direction[pick] = 1.0
        samples.append(tuple(float(x) for x in magnitude * direction))
    return tuple(samples)


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment document."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise SchemaError(f"/: invalid JSON ({exc})") from None
    raw = _expect_object(raw, "/")
    spec = _parse_scheme(_get(raw, "scheme", ""), "/scheme")
    dim = spec.dim

    grid_raw = _get(raw, "grid", "", required=False)
    if grid_raw is None:
        grid_sizes = (64,) * dim
        box_lengths = (1.0,) * dim
    else:
        grid_raw = _expect_object(grid_raw, "/grid")
        grid_sizes = tuple(
            _expect_int(n, f"/grid/n/{i}", minimum=2)
            for i, n in enumerate(_expect_array(_get(grid_raw, "n", "/grid"), "/grid/n", dim))
        )
        box_lengths = _number_vector(
            _get(grid_raw, "length", "/grid", required=False, default=[1.0] * dim),
            "/grid/length",
            dim,
        )
    _grid_spacing(grid_sizes, box_lengths)

    init_raw = _get(raw, "initial", "", required=False)
    if init_raw is None:
        initial = InitialData("uniform")
    else:
        init_raw = _expect_object(init_raw, "/initial")
        kind = _expect_string(
            _get(init_raw, "type", "/initial"), "/initial/type", choices={"uniform", "sine"}
        )
        if kind == "uniform":
            initial = InitialData(
                "uniform",
                value=_expect_number(
                    _get(init_raw, "value", "/initial", required=False, default=1.0),
                    "/initial/value",
                ),
            )
        else:
            mode = tuple(
                _expect_int(m, f"/initial/mode/{i}")
                for i, m in enumerate(
                    _expect_array(_get(init_raw, "mode", "/initial"), "/initial/mode", dim)
                )
            )
            amplitude = _expect_number(
                _get(init_raw, "amplitude", "/initial"), "/initial/amplitude"
            )
            # a uniform "sine" leaves the residual studies nothing to measure
            if amplitude == 0.0:
                raise SchemaError("/initial/amplitude: expected a nonzero amplitude, got 0")
            if not any(mode):
                raise SchemaError(f"/initial/mode: expected a nonzero mode, got {list(mode)}")
            initial = InitialData(
                "sine",
                value=_expect_number(
                    _get(init_raw, "base", "/initial", required=False, default=1.0),
                    "/initial/base",
                ),
                amplitude=amplitude,
                mode=mode,
            )

    ana_raw = _expect_object(_get(raw, "analysis", "", required=False, default={}), "/analysis")
    order = _expect_int(
        _get(ana_raw, "order", "/analysis", required=False, default=DEFAULT_ORDER),
        "/analysis/order",
    )
    if order not in (1, 2, 3):
        raise SchemaError(f"/analysis/order: expected 1, 2 or 3, got {order}")
    ks_raw = _get(ana_raw, "k_samples", "/analysis", required=False)
    if ks_raw is None:
        k_samples = default_k_samples(dim)
    else:
        k_samples = tuple(
            _number_vector(k, f"/analysis/k_samples/{i}", dim)
            for i, k in enumerate(_expect_array(ks_raw, "/analysis/k_samples"))
        )
    dt0_raw = _get(ana_raw, "dt0", "/analysis", required=False)
    dt0 = None if dt0_raw is None else _expect_number(dt0_raw, "/analysis/dt0")
    levels = _expect_int(
        _get(ana_raw, "refinements", "/analysis", required=False, default=DEFAULT_LEVELS),
        "/analysis/refinements",
        minimum=5,
    )
    tol_raw = _expect_object(
        _get(ana_raw, "tolerances", "/analysis", required=False, default={}),
        "/analysis/tolerances",
    )
    rel = _number_vector(
        _get(tol_raw, "relative", "/analysis/tolerances", required=False,
             default=[1e-8, 1e-6, 1e-4]),
        "/analysis/tolerances/relative",
        3,
    )
    floors = _number_vector(
        _get(tol_raw, "floors", "/analysis/tolerances", required=False,
             default=[1e-12, 1e-10, 1e-8]),
        "/analysis/tolerances/floors",
        3,
    )
    u_sweep = _number_vector(
        _get(ana_raw, "u_sweep", "/analysis", required=False, default=list(DEFAULT_U_SWEEP)),
        "/analysis/u_sweep",
    )
    if len(u_sweep) < 2:
        raise SchemaError(f"/analysis/u_sweep: expected at least 2 values, got {len(u_sweep)}")
    grids = tuple(
        _expect_int(n, f"/analysis/grids/{i}", minimum=2)
        for i, n in enumerate(
            _expect_array(
                _get(ana_raw, "grids", "/analysis", required=False, default=list(DEFAULT_GRIDS)),
                "/analysis/grids",
            )
        )
    )
    if len(grids) < 2 or len(set(grids)) != len(grids):
        # a slope fitted through fewer than two distinct dx means nothing
        raise SchemaError(
            f"/analysis/grids: expected at least 2 distinct values, got {list(grids)}"
        )
    warmup = _expect_int(
        _get(ana_raw, "warmup", "/analysis", required=False, default=DEFAULT_WARMUP),
        "/analysis/warmup",
        minimum=0,
    )
    steps = _expect_int(
        _get(ana_raw, "steps", "/analysis", required=False, default=DEFAULT_STEPS),
        "/analysis/steps",
        minimum=1,
    )

    out_raw = _expect_object(_get(raw, "output", "", required=False, default={}), "/output")
    output_path = _expect_string(
        _get(out_raw, "dir", "/output", required=False, default="."), "/output/dir"
    )
    output_format = _expect_string(
        _get(out_raw, "format", "/output", required=False, default="json"),
        "/output/format",
        choices={"json", "csv"},
    )

    return ExperimentConfig(
        spec=spec,
        grid_sizes=grid_sizes,
        box_lengths=box_lengths,
        initial=initial,
        order=order,
        k_samples=k_samples,
        dt0=dt0,
        levels=levels,
        relative_tolerances=rel,
        absolute_floors=floors,
        u_sweep=u_sweep,
        grids=grids,
        warmup=warmup,
        steps=steps,
        output_path=output_path,
        output_format=output_format,
    )


def reference_config(name: str) -> str:
    """Text of a shipped reference configuration (d1q2, d1q3 or d2q5)."""
    if name not in REFERENCE_NAMES:
        raise ValidationError(f"unknown reference config {name!r}; available: {REFERENCE_NAMES}")
    return resources.files("rvlbm").joinpath("configs", f"{name}.json").read_text("utf-8")
