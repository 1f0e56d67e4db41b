"""Every key of the experiment file, one table row per fault.

Each row edits one key of a fully explicit document (the shipped d1q3 file)
and pins the exact exception type and message: a key that is missing where
it is required, null, of the wrong type or out of range.  A JSON `null`
reads as an absent key for `q`, `polynomials`, `u_tilde`, `grid`, `initial`
and `k_samples`, and as a wrong type everywhere else.
"""

import copy
import json
import math
from dataclasses import replace

import pytest
from cli_runner import CliRunner

from rvlbm import VelocityShift, load_config, reference_config
from rvlbm.cli import main
from rvlbm.config import REFERENCE_NAMES
from rvlbm.errors import DimensionMismatch, NonLatticeVelocity, SchemaError, ValidationError
from rvlbm.scheme import spec_to_dict

DELETE = object()

FULL = json.loads(reference_config("d1q3"))
SINE = FULL["initial"]
UNIFORM = {"type": "uniform", "value": 1.0}


def edited(path, value, doc=FULL):
    """`doc` with the element at `path` replaced by `value`, or removed for DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def key_faults(path, kind, required=False, nullable=False):
    """The missing, null and wrong-type rows of one key whose value is a `kind`."""
    pointer = "/" + "/".join(str(p) for p in path)
    rows = []
    if required:
        rows.append((path, DELETE, SchemaError, f"{pointer}: missing required key"))
    if not nullable:
        rows.append((path, None, SchemaError, f"{pointer}: expected {kind}, got NoneType"))
    wrong = {"object": [], "array": {"a": 1}, "string": 1, "number": "1", "integer": 1.0}[kind]
    rows.append((path, wrong, SchemaError,
                 f"{pointer}: expected {kind}, got {type(wrong).__name__}"))
    if kind in ("number", "integer"):
        rows.append((path, True, SchemaError, f"{pointer}: expected {kind}, got bool"))
    return rows


def unknown_rows(path, values):
    """One row per value of a key that the experiment file no longer has."""
    pointer = "/" + "/".join(str(p) for p in path)
    return [(path, value, SchemaError, f"{pointer}: unknown key") for value in values]


S = ("scheme",)
POLY = S + ("polynomials",)
TERM = POLY + (0, 0)
SHIFT = S + ("u_tilde",)
A = ("analysis",)
TOL = A + ("tolerances",)

ROWS = [
    ((), [], SchemaError, "/: expected object, got list"),
    ((), None, SchemaError, "/: expected object, got NoneType"),
    *key_faults(S, "object", required=True),
    # scheme
    *key_faults(S + ("d",), "integer", required=True),
    (S + ("d",), 0, SchemaError, "/scheme/d: expected integer >= 1, got 0"),
    *key_faults(S + ("lambda",), "number"),
    (S + ("lambda",), 0.0, ValidationError, "lattice speed must be positive, got 0.0"),
    (S + ("lambda",), math.inf, SchemaError, "/scheme/lambda: expected finite number, got inf"),
    *key_faults(S + ("q",), "integer", nullable=True),
    (S + ("q",), 1, SchemaError, "/scheme/q: expected integer >= 2, got 1"),
    (S + ("q",), 4, ValidationError, "q = 4 does not match the 3 velocities given"),
    *key_faults(S + ("velocities",), "array", required=True),
    (S + ("velocities", 2), "x", SchemaError, "/scheme/velocities/2: expected array, got str"),
    (S + ("velocities", 2), [-1, 0], SchemaError,
     "/scheme/velocities/2: expected 1 elements, got 2"),
    (S + ("velocities", 2, 0), None, SchemaError,
     "/scheme/velocities/2/0: expected number, got NoneType"),
    (S + ("velocities", 2, 0), math.nan, SchemaError,
     "/scheme/velocities/2/0: expected finite number, got nan"),
    (S + ("velocities", 2, 0), -0.5, NonLatticeVelocity,
     "velocity 2 = (-0.5,) is not an integer lattice vector "
     "(an integer multiple of lam per axis)"),
    (S + ("velocities", 2), [1], ValidationError, "velocities must be pairwise distinct"),
    *key_faults(POLY, "array", nullable=True),
    (POLY + (0,), {}, SchemaError, "/scheme/polynomials/0: expected array, got dict"),
    *key_faults(TERM, "object"),
    *key_faults(TERM + ("exps",), "array", required=True),
    (TERM + ("exps",), [0, 0], SchemaError,
     "/scheme/polynomials/0/0/exps: expected 1 elements, got 2"),
    *key_faults(TERM + ("exps", 0), "integer"),
    (TERM + ("exps", 0), -1, SchemaError,
     "/scheme/polynomials/0/0/exps/0: expected integer >= 0, got -1"),
    *key_faults(TERM + ("coef",), "number", required=True),
    *key_faults(S + ("relaxation",), "array", required=True),
    *key_faults(S + ("relaxation", 1), "number"),
    (S + ("relaxation", 0), 0.1, ValidationError, "s[0] must be 0"),
    (S + ("relaxation",), [0.0, 1.2], DimensionMismatch,
     "relaxation vector has length 2, expected 3"),
    *key_faults(S + ("equilibrium",), "array", required=True),
    *key_faults(S + ("equilibrium", 0), "number"),
    (S + ("equilibrium", 0), 1.5, ValidationError,
     "equilibrium coefficients sum to 2.0, expected 1"),
    *key_faults(SHIFT, "object", nullable=True),
    *key_faults(SHIFT + ("mode",), "string", required=True),
    (SHIFT + ("mode",), "linear", SchemaError,
     "/scheme/u_tilde/mode: expected one of ['constant', 'sine', 'zero'], got 'linear'"),
    *key_faults(SHIFT + ("value",), "array", required=True),
    (SHIFT + ("value",), [0.1, 0.0], SchemaError,
     "/scheme/u_tilde/value: expected 1 elements, got 2"),
    *key_faults(SHIFT + ("value", 0), "number"),
    # grid
    *key_faults(("grid",), "object", nullable=True),
    *key_faults(("grid", "n"), "array", required=True),
    (("grid", "n"), [64, 64], SchemaError, "/grid/n: expected 1 elements, got 2"),
    *key_faults(("grid", "n", 0), "integer"),
    (("grid", "n", 0), 1, SchemaError, "/grid/n/0: expected integer >= 2, got 1"),
    *key_faults(("grid", "length"), "array"),
    (("grid", "length"), [], SchemaError, "/grid/length: expected 1 elements, got 0"),
    *key_faults(("grid", "length", 0), "number"),
    (("grid", "length"), [-1.0], ValidationError, "box lengths must be positive, got [-1.0]"),
    (("grid", "length"), [0.0], ValidationError, "box lengths must be positive, got [0.0]"),
    # initial
    *key_faults(("initial",), "object", nullable=True),
    *key_faults(("initial", "type"), "string", required=True),
    (("initial", "type"), "cosine", SchemaError,
     "/initial/type: expected one of ['sine', 'uniform'], got 'cosine'"),
    *key_faults(("initial", "mode"), "array", required=True),
    (("initial", "mode"), [1, 0], SchemaError, "/initial/mode: expected 1 elements, got 2"),
    *key_faults(("initial", "mode", 0), "integer"),
    (("initial", "mode"), [0], SchemaError, "/initial/mode: expected a nonzero mode, got [0]"),
    *key_faults(("initial", "amplitude"), "number", required=True),
    (("initial", "amplitude"), 0.0, SchemaError,
     "/initial/amplitude: expected a nonzero amplitude, got 0"),
    *key_faults(("initial", "base"), "number"),
    # analysis
    *key_faults(A, "object"),
    # criterion 1's order and dt ladder are fixed: the former keys are unknown, whatever
    # their value, the shipped 3, null and 10 included
    *unknown_rows(A + ("order",), [None, 1.0, True, 4, 0, 1, 3]),
    *key_faults(A + ("k_samples",), "array", nullable=True),
    (A + ("k_samples", 1), 0.8, SchemaError, "/analysis/k_samples/1: expected array, got float"),
    (A + ("k_samples", 1), [0.8, 0.0], SchemaError,
     "/analysis/k_samples/1: expected 1 elements, got 2"),
    *key_faults(A + ("k_samples", 1, 0), "number"),
    *unknown_rows(A + ("dt0",), ["1", True, -math.inf, None, 0.02]),
    *unknown_rows(A + ("refinements",), [None, 1.0, True, 4, 10]),
    # criterion 1's bounds are fixed: the former tolerances section is unknown, null included
    (TOL, None, SchemaError, "/analysis/tolerances: unknown key"),
    (TOL, [], SchemaError, "/analysis/tolerances: unknown key"),
    (TOL, {"relative": [1e-8, 1e-6, 1e-4], "floors": [1e-12, 1e-10, 1e-8]}, SchemaError,
     "/analysis/tolerances: unknown key"),
    *key_faults(A + ("u_sweep",), "array"),
    (A + ("u_sweep",), [0.0], SchemaError,
     "/analysis/u_sweep: expected at least 2 values, got 1"),
    (A + ("u_sweep",), [0.2, 0.2], SchemaError,
     "/analysis/u_sweep: expected at least 2 distinct values, got [0.2, 0.2]"),
    (A + ("u_sweep",), [0, 0.0, -0.0], SchemaError,
     "/analysis/u_sweep: expected at least 2 distinct values, got [0.0, 0.0, -0.0]"),
    *key_faults(A + ("u_sweep", 1), "number"),
    *key_faults(A + ("grids",), "array"),
    (A + ("grids",), [64], SchemaError,
     "/analysis/grids: expected at least 2 distinct values, got [64]"),
    (A + ("grids",), [64, 128, 64], SchemaError,
     "/analysis/grids: expected at least 2 distinct values, got [64, 128, 64]"),
    (A + ("grids",), [256, 128, 64], SchemaError,
     "/analysis/grids: expected increasing values, got [256, 128, 64]"),
    (A + ("grids",), [64, 256, 128], SchemaError,
     "/analysis/grids: expected increasing values, got [64, 256, 128]"),
    *key_faults(A + ("grids", 0), "integer"),
    (A + ("grids", 0), 1, SchemaError, "/analysis/grids/0: expected integer >= 2, got 1"),
    *key_faults(A + ("warmup",), "integer"),
    (A + ("warmup",), -1, SchemaError, "/analysis/warmup: expected integer >= 0, got -1"),
    *key_faults(A + ("steps",), "integer"),
    (A + ("steps",), 0, SchemaError, "/analysis/steps: expected integer >= 1, got 0"),
    # output
    *key_faults(("output",), "object"),
    *key_faults(("output", "dir"), "string"),
    *key_faults(("output", "format"), "string"),
    (("output", "format"), "yaml", SchemaError,
     "/output/format: expected one of ['csv', 'json'], got 'yaml'"),
]

# keys read only under one initial type are checked on a document of that type
UNIFORM_ROWS = [
    *key_faults(("initial", "value"), "number"),
    (("initial", "value"), math.nan, SchemaError, "/initial/value: expected finite number, got nan"),
]


def _row_id(row):
    path, value, _, message = row
    return "/" + "/".join(map(str, path)) + " <- " + (
        "DELETE" if value is DELETE else json.dumps(value))


def _raises(doc, exc, message):
    with pytest.raises(Exception) as info:
        load_config(json.dumps(doc))
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("path,value,exc,message", ROWS, ids=[_row_id(r) for r in ROWS])
def test_key_fault(path, value, exc, message):
    _raises(edited(path, value), exc, message)


@pytest.mark.parametrize("path,value,exc,message", UNIFORM_ROWS,
                         ids=[_row_id(r) for r in UNIFORM_ROWS])
def test_uniform_initial_key_fault(path, value, exc, message):
    _raises(edited(path, value, edited(("initial",), UNIFORM)), exc, message)


def test_full_document_loads():
    cfg = load_config(json.dumps(FULL))
    assert cfg == load_config(reference_config("d1q3"))


NULL_AS_ABSENT = [S + ("q",), POLY, SHIFT, ("grid",), ("initial",), A + ("k_samples",)]


@pytest.mark.parametrize("path", NULL_AS_ABSENT, ids=["/".join(p) for p in NULL_AS_ABSENT])
def test_null_reads_as_absent(path):
    absent = load_config(json.dumps(edited(path, DELETE)))
    assert load_config(json.dumps(edited(path, None))) == absent


@pytest.mark.parametrize("name", REFERENCE_NAMES)
def test_scheme_layout_round_trips(name):
    """The layout `spec_to_dict` writes (snapshot_meta.json) reads back as the same scheme."""
    spec = load_config(reference_config(name)).spec
    assert load_config(json.dumps({"scheme": spec_to_dict(spec)})).spec == spec


def test_zero_shift_writes_no_value():
    """A zero shift keeps no value, so snapshot_meta.json writes none, as the config reader reads it."""
    spec = load_config(reference_config("d1q3")).spec
    shifted = replace(spec, u_tilde=VelocityShift("zero", (0.3,)))
    assert spec_to_dict(shifted)["u_tilde"] == {"mode": "zero", "value": []}
    assert shifted == replace(spec, u_tilde=VelocityShift.zero())


UNKNOWN = [
    ((), "warmpu"),
    (S, "lamda"),
    (TERM, "coeff"),
    (SHIFT, "values"),
    (("grid",), "size"),
    (("initial",), "phase"),
    (("initial",), "value"),  # a uniform field's key, not read for a sine one
    (A, "warmpu"),
    (A, "tolerances"),
    (("output",), "fmt"),
]


@pytest.mark.parametrize("path,key", UNKNOWN, ids=["/".join(map(str, p + (k,))) for p, k in UNKNOWN])
def test_unknown_key_rejected(path, key):
    doc = edited(path + (key,), 5)
    pointer = "".join(f"/{p}" for p in path + (key,))
    _raises(doc, SchemaError, f"{pointer}: unknown key")


def test_unknown_key_pointer_is_escaped():
    _raises(edited(A + ("warm/up~",), 5), SchemaError, "/analysis/warm~1up~0: unknown key")


def test_unknown_key_under_uniform_initial():
    doc = edited(("initial",), {**UNIFORM, "amplitude": 0.01})
    _raises(doc, SchemaError, "/initial/amplitude: unknown key")


@pytest.mark.parametrize("value", [[], [0.3]])
def test_zero_shift_accepts_an_unread_value(value):
    doc = edited(SHIFT, {"mode": "zero", "value": value})
    assert load_config(json.dumps(doc)).spec.u_tilde.mode == "zero"


def test_misspelled_key_exits_two(tmp_path):
    path = tmp_path / "d1q3.json"
    path.write_text(json.dumps(edited(A + ("warmpu",), 5)))
    result = CliRunner().invoke(main, ["verify", "--config", str(path),
                                       "--output", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error: /analysis/warmpu: unknown key" in result.output
    assert not (tmp_path / "out").exists()


REPEATED = [((), "grid"), (A, "warmup"), (TERM, "coef")]


def repeated(path, key):
    """Text of the explicit document with `key` given a second time at `path`."""
    doc = edited(path + ("<repeat>",), 5)
    return json.dumps(doc).replace('"<repeat>"', json.dumps(key))


@pytest.mark.parametrize("path,key", REPEATED, ids=["/".join(map(str, p + (k,))) for p, k in REPEATED])
def test_repeated_key_rejected(path, key):
    with pytest.raises(SchemaError) as info:
        load_config(repeated(path, key))
    assert str(info.value) == "".join(f"/{p}" for p in path + (key,)) + ": duplicate key"


def test_repeated_key_pointer_is_escaped():
    text = json.dumps(edited(A + ("a/b~",), 5)).replace('"a/b~": 5', '"a/b~": 5, "a/b~": 5')
    with pytest.raises(SchemaError, match=r"^/analysis/a~1b~0: duplicate key$"):
        load_config(text)


def test_repeated_key_exits_two(tmp_path):
    path = tmp_path / "d1q3.json"
    path.write_text(reference_config("d1q3").replace('"warmup": 40', '"warmup": 5, "warmup": 40'))
    result = CliRunner().invoke(main, ["verify", "--config", str(path),
                                       "--output", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error: /analysis/warmup: duplicate key" in result.output
    assert not (tmp_path / "out").exists()


REPEATED_ELSEWHERE = [
    (S + ("relaxation",), "array"),
    (S + ("lambda",), "number"),
    (A + ("warmup",), "integer"),
    (("output", "format"), "string"),
]


@pytest.mark.parametrize("path,kind", REPEATED_ELSEWHERE,
                         ids=["/".join(map(str, p)) for p, _ in REPEATED_ELSEWHERE])
def test_object_with_repeated_key_where_another_type_is_expected(path, kind):
    # the type check names the JSON object a dict, whether or not a key of it repeats
    text = json.dumps(edited(path, "<object>")).replace('"<object>"', '{"a": 1, "a": 2}')
    with pytest.raises(SchemaError) as info:
        load_config(text)
    assert str(info.value) == "".join(f"/{p}" for p in path) + f": expected {kind}, got dict"
