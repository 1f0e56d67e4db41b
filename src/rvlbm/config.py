"""Experiment configuration: JSON schema, validation, shipped reference files.

Structural problems (wrong type, missing or unknown key) raise SchemaError
carrying a JSON-pointer path to the offending element; semantic problems (rate
vector not starting at zero, non-lattice velocity, inconsistent grid spacing)
raise ValidationError with the scheme's own message. Every key is read through
`_Object.field`, which settles its pointer, default and type in one place.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dispersion import ABSOLUTE_FLOORS, DEFAULT_LEVELS, DEFAULT_ORDER, RELATIVE_TOLERANCES
from .errors import SchemaError, ValidationError
from .lattice import MomentPolynomial, VelocitySet, default_basis
from .scheme import SchemeSpec, VelocityShift, _grid_spacing

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
    k_samples: tuple[tuple[float, ...], ...]
    u_sweep: tuple[float, ...]
    grids: tuple[int, ...]
    warmup: int
    steps: int
    output_path: str
    output_format: str
    # criterion 1's order, dt ladder and bounds, fixed in rvlbm.dispersion: class attributes
    # that no config sets; order, dt0 and levels go with the next benchmark change
    order, dt0, levels = DEFAULT_ORDER, None, DEFAULT_LEVELS
    relative_tolerances = RELATIVE_TOLERANCES
    absolute_floors = ABSOLUTE_FLOORS


_REQUIRED = object()


def _wrong_type(path: str, kind: str, value) -> SchemaError:
    """The error for a value at `path` that is not a `kind`; an object is a dict,
    also when one of its keys repeats."""
    name = "dict" if isinstance(value, dict) else type(value).__name__
    return SchemaError(f"{path}: expected {kind}, got {name}")


def _expect_number(value, path: str) -> float:
    """`value` as a finite float; JSON's NaN, Infinity and overflowing literals are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _wrong_type(path, "number", value)
    try:
        number = float(value)
    except OverflowError:
        number = float("inf")
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected finite number, got {number}")
    return number


def _expect_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _wrong_type(path, "integer", value)
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}: expected integer >= {minimum}, got {value}")
    return value


def _expect_string(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise _wrong_type(path, "string", value)
    if choices is not None and value not in choices:
        raise SchemaError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _array(item, length: int | None = None, **constraints):
    """Parser of an array whose elements `item` parses, each under its own index."""
    def parse(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise _wrong_type(path, "array", value)
        if length is not None and len(value) != length:
            raise SchemaError(f"{path}: expected {length} elements, got {len(value)}")
        return tuple(item(v, f"{path}/{i}", **constraints) for i, v in enumerate(value))
    return parse


class _Repeated(dict):
    """A JSON object in which the key `repeated` is given more than once."""

    repeated: str


def _object_pairs(pairs: list) -> dict:
    """json.loads's object hook: a plain dict, or a _Repeated one when a key repeats."""
    value = dict(pairs)
    if len(value) < len(pairs):
        seen = set()
        value = _Repeated(value)
        value.repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
    return value


class _Object:
    """A JSON object at pointer `path` ("" for the document root), read key by key.

    Its methods are the one place where a key's pointer is formed; `field` also
    settles the key's presence, default and type. `close` rejects every key that
    was not read, so a misspelled key fails instead of falling back to a default,
    and a key given twice is rejected before any is read.
    """

    def __init__(self, value, path: str):
        if not isinstance(value, dict):
            raise _wrong_type(path or "/", "object", value)
        self.items, self.path, self.read = value, path, set()
        if isinstance(value, _Repeated):
            raise self.error(value.repeated, "duplicate key")

    def field(self, key: str, parse, default=_REQUIRED, nullable=False, **constraints):
        """`key` parsed by `parse`; `default` when absent, or null and `nullable`."""
        self.read.add(key)
        if key not in self.items or (nullable and self.items[key] is None):
            if default is _REQUIRED:
                raise self.error(key, "missing required key")
            return default
        return parse(self.items[key], f"{self.path}/{key}", **constraints)

    def section(self, key: str) -> _Object:
        """The object under `key`, to be read by its own fields; absent reads as empty."""
        self.read.add(key)
        return _Object(self.items.get(key, {}), f"{self.path}/{key}")

    def close(self, *unread: str) -> None:
        """Reject the first key that was neither read nor listed in `unread`."""
        for key in self.items:
            if key not in self.read and key not in unread:
                raise self.error(key, "unknown key")

    def error(self, key: str, message: str) -> SchemaError:
        """A SchemaError pointing at `key`, for checks that span more than one value."""
        # RFC 6901 escapes, since the key can be the user's own text
        return SchemaError(f"{self.path}/{key.replace('~', '~0').replace('/', '~1')}: {message}")


def _parse_term(value, path: str, dim: int) -> tuple:
    term = _Object(value, path)
    exps = term.field("exps", _array(_expect_int, dim, minimum=0))
    coef = term.field("coef", _expect_number)
    term.close()
    return exps, coef


def _parse_polynomial(value, path: str, dim: int) -> MomentPolynomial:
    return MomentPolynomial.from_terms(dim, _array(_parse_term, dim=dim)(value, path))


def _parse_shift(value, path: str, dim: int) -> VelocityShift:
    shift = _Object(value, path)
    mode = shift.field("mode", _expect_string, choices={"zero", "constant", "sine"})
    if mode == "zero":
        shift.close("value")  # the shipped files write "value": [] with a zero shift
        return VelocityShift.zero()
    value = shift.field("value", _array(_expect_number, dim))
    shift.close()
    return VelocityShift(mode, value)


def _parse_scheme(value, path: str) -> SchemeSpec:
    scheme = _Object(value, path)
    dim = scheme.field("d", _expect_int, minimum=1)
    lam = scheme.field("lambda", _expect_number, 1.0)
    q = scheme.field("q", _expect_int, None, nullable=True, minimum=dim + 1)
    vectors = scheme.field("velocities", _array(_array(_expect_number, dim)))
    if q is not None and q != len(vectors):
        raise ValidationError(f"q = {q} does not match the {len(vectors)} velocities given")
    vset = VelocitySet(dim, lam, vectors)
    basis = scheme.field("polynomials", _array(_parse_polynomial, dim=dim), None, nullable=True)
    if basis is None:
        basis = default_basis(vset)
    s = scheme.field("relaxation", _array(_expect_number))
    ew = scheme.field("equilibrium", _array(_expect_number))
    shift = scheme.field("u_tilde", _parse_shift, VelocityShift.zero(), nullable=True, dim=dim)
    scheme.close()
    return SchemeSpec(vset, basis, s, ew, shift)


def _parse_grid(value, path: str, dim: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    grid = _Object(value, path)
    sizes = grid.field("n", _array(_expect_int, dim, minimum=2))
    lengths = grid.field("length", _array(_expect_number, dim), (1.0,) * dim)
    grid.close()
    return sizes, lengths


def _parse_initial(value, path: str, dim: int) -> InitialData:
    initial = _Object(value, path)
    kind = initial.field("type", _expect_string, choices={"uniform", "sine"})
    if kind == "uniform":
        data = InitialData("uniform", value=initial.field("value", _expect_number, 1.0))
    else:
        mode = initial.field("mode", _array(_expect_int, dim))
        amplitude = initial.field("amplitude", _expect_number)
        try:
            check_initial(InitialData("sine", amplitude=amplitude, mode=mode))
        except ValidationError as err:  # its message starts with the key it names
            raise SchemaError(f"{initial.path}/{err}") from None
        data = InitialData("sine", initial.field("base", _expect_number, 1.0), amplitude, mode)
    initial.close()
    return data


def check_initial(initial: InitialData) -> None:
    """Raise ValidationError when a sine `initial` is uniform: a zero amplitude, or
    a zero mode, leaves the residual studies nothing to measure.  The message
    starts with the field it names, "amplitude: " or "mode: "."""
    if initial.kind != "sine":
        return
    if initial.amplitude == 0.0:
        raise ValidationError("amplitude: expected a nonzero amplitude, got 0")
    if not any(initial.mode):
        raise ValidationError(f"mode: expected a nonzero mode, got {list(initial.mode)}")


def default_k_samples(dim: int) -> tuple[tuple[float, ...], ...]:
    """Eight wavevectors cycling through the axes and the main diagonal."""
    samples = []
    for i in range(1, 9):
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
        raw = json.loads(text, object_pairs_hook=_object_pairs)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise SchemaError(f"/: invalid JSON ({exc})") from None
    root = _Object(raw, "")
    spec = root.field("scheme", _parse_scheme)
    dim = spec.dim
    grid_sizes, box_lengths = root.field(
        "grid", _parse_grid, ((64,) * dim, (1.0,) * dim), nullable=True, dim=dim
    )
    _grid_spacing(grid_sizes, box_lengths)
    initial = root.field("initial", _parse_initial, InitialData("uniform"), nullable=True, dim=dim)

    analysis = root.section("analysis")
    k_samples = analysis.field("k_samples", _array(_array(_expect_number, dim)),
                               default_k_samples(dim), nullable=True)
    u_sweep = analysis.field("u_sweep", _array(_expect_number), DEFAULT_U_SWEEP)
    try:
        check_u_sweep(u_sweep)
    except ValidationError as err:
        raise analysis.error("u_sweep", str(err)) from None
    grids = analysis.field("grids", _array(_expect_int, minimum=2), DEFAULT_GRIDS)
    try:
        check_refinement_grids(grids)
    except ValidationError as err:
        raise analysis.error("grids", str(err)) from None
    warmup = analysis.field("warmup", _expect_int, DEFAULT_WARMUP, minimum=0)
    steps = analysis.field("steps", _expect_int, DEFAULT_STEPS, minimum=1)
    analysis.close()

    output = root.section("output")
    output_path = output.field("dir", _expect_string, ".")
    output_format = output.field("format", _expect_string, "json", choices={"json", "csv"})
    output.close()
    root.close()

    return ExperimentConfig(
        spec=spec, grid_sizes=grid_sizes, box_lengths=box_lengths, initial=initial,
        k_samples=k_samples, u_sweep=u_sweep, grids=grids, warmup=warmup, steps=steps,
        output_path=output_path, output_format=output_format,
    )


def check_u_sweep(u_sweep) -> None:
    """Raise ValidationError unless `u_sweep` holds 2 distinct values for u_invariance."""
    if len(set(u_sweep)) < 2:
        raise ValidationError(f"expected at least 2 values, got {len(u_sweep)}" if len(u_sweep) < 2
                              else f"expected at least 2 distinct values, got {list(u_sweep)}")


def check_refinement_grids(grids) -> None:
    """Raise ValidationError unless `grids` holds at least 2 values, each once, increasing."""
    grids = [int(n) for n in grids]
    if len(grids) < 2 or len(set(grids)) != len(grids):
        # a slope fitted through fewer than two distinct dx means nothing
        raise ValidationError(f"expected at least 2 distinct values, got {grids}")
    if grids != sorted(grids):
        # each refinement ratio divides a residual by the next finer grid's
        raise ValidationError(f"expected increasing values, got {grids}")


def reference_config(name: str) -> str:
    """Text of a shipped reference configuration (d1q2, d1q3 or d2q5)."""
    if name not in REFERENCE_NAMES:
        raise ValidationError(f"unknown reference config {name!r}; available: {REFERENCE_NAMES}")
    return resources.files("rvlbm").joinpath("configs", f"{name}.json").read_text("utf-8")
