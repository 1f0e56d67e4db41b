"""Fourier analysis of a scheme: amplification matrices and growth-rate series.

This is the verification channel that never touches the derivation.  A
plane wave exp(i k.x) turns one collide-and-stream update into multiplication
by the q x q matrix

    G(k, dt) = diag(exp(-i k.v_j dt)) M(u)^-1 [(I - S) M(u) + S (M(u) E) 1^T],

whose dominant eigenvalue branch g(k, dt) is continuous from 1 at k = 0.  The
growth rate y = log(g)/dt is fitted over a geometric dt sequence to recover
the series y = mu0 + mu1 dt + mu2 dt^2 + ..., which the equivalent-equation
operators must reproduce order by order.

For a real collision matrix the exact symmetry g(k, -dt) = conj(g(k, dt))
makes Im(y) even and Re(y) odd in dt, so the two parts are fitted separately
on even and odd powers.  This keeps the mu1 estimate free of the dt^4 and
dt^6 contamination a plain cubic fit would leak into it, which matters for
schemes whose mu1 is exactly zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .equivalent import derive_equivalent_equation
from .errors import BranchAmbiguity, PoorFit, ValidationError
from .scheme import SchemeSpec

POOR_FIT_FACTOR = 1e-8
AMBIGUITY_GAP = 1e-9
COINCIDENT_GAP = 1e-13
MAX_PHASE = 0.1
DEFAULT_ORDER = 3
DEFAULT_PHASE = 0.05
DEFAULT_LEVELS = 10
WALK_INCREMENTS = 10
STABILITY_POINTS = 33
STABILITY_TOL = 1e-10
SMALLEST_NORMAL = float(np.finfo(float).tiny)

RELATIVE_TOLERANCES = (1e-8, 1e-6, 1e-4)
ABSOLUTE_FLOORS = (1e-12, 1e-10, 1e-8)


@dataclass(frozen=True)
class AmplificationMatrix:
    """One-step Fourier operator of the scheme at one wavevector and step."""

    g: np.ndarray


@dataclass(frozen=True)
class SymbolSeries:
    """Fitted growth-rate coefficients at one wavevector."""

    k: tuple[float, ...]
    mu0: complex
    mu1: complex
    mu2: complex
    fit_residual: float
    poor_fit: bool = False

    @property
    def mu(self) -> tuple[complex, complex, complex]:
        return (self.mu0, self.mu1, self.mu2)


def amplification_matrix(spec: SchemeSpec, k, dt: float) -> AmplificationMatrix:
    """Exact one-step Fourier operator; requires a constant shift."""
    k = np.asarray(k, dtype=float)
    if k.shape != (spec.dim,):
        raise ValidationError(f"wavevector shape {k.shape}, expected ({spec.dim},)")
    phases = np.exp(-1j * (spec.vset.velocities @ k) * dt)
    return AmplificationMatrix(phases[:, None] * spec._collision_factor)


def von_neumann_radius(spec: SchemeSpec) -> tuple[float, tuple[float, ...]]:
    """Largest spectral radius of G over the Brillouin zone, and the phase where it occurs.

    G depends on k and dt only through the phases theta = k lambda dt, so it is
    sampled on a grid of STABILITY_POINTS values per axis of theta in
    [-pi, pi]^d and all its eigenvalues are taken in one batch.  A radius above
    1 + STABILITY_TOL means some Fourier mode grows: the scheme is linearly
    unstable (von Neumann analysis, Lallemand & Luo, Phys. Rev. E 61, 2000).
    Requires a constant shift.
    """
    axis = np.linspace(-np.pi, np.pi, STABILITY_POINTS)
    theta = np.stack(np.meshgrid(*([axis] * spec.dim), indexing="ij"), axis=-1).reshape(-1, spec.dim)
    phases = np.exp(-1j * (theta @ np.asarray(spec.vset.lattice_vectors, dtype=float).T))
    radii = np.abs(np.linalg.eigvals(phases[:, :, None] * spec._collision_factor)).max(axis=1)
    worst = int(np.argmax(radii))
    return float(radii[worst]), tuple(float(t) for t in theta[worst])


def dominant_eigenvalue(g, continuity_hint: complex = 1.0 + 0.0j) -> complex:
    """Eigenvalue of the branch continuous from 1 at k = 0.

    Selected as the eigenvalue nearest to `continuity_hint`.  When the two
    nearest candidates lie within 1e-9 of each other and of the hint the
    selection is ambiguous and BranchAmbiguity is raised, unless they agree to
    1e-13 (coincident eigenvalues carry no ambiguity in value).
    """
    matrix = g.g if isinstance(g, AmplificationMatrix) else np.asarray(g)
    eigs = np.linalg.eigvals(matrix.astype(complex))
    index, ambiguous = _nearest(eigs, continuity_hint)
    pick = eigs[index]
    if ambiguous:
        raise BranchAmbiguity(
            f"two eigenvalues within {AMBIGUITY_GAP:g} of the hint {continuity_hint}, "
            f"nearest {complex(pick)}"
        )
    return complex(pick)


def _nearest(eigs: np.ndarray, hints) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (..., q) eigenvalues, the index of the one nearest its (...)
    hint, and where that pick is ambiguous under dominant_eigenvalue's rule.

    The rows of eigs broadcast against the hints."""
    hints = np.asarray(hints, dtype=complex)
    distance = np.abs(eigs - hints[..., None])
    order = np.argsort(distance, axis=-1)
    # an ambiguous pick needs two eigenvalues within AMBIGUITY_GAP of its hint; the margin
    # of 2 covers np.abs rounding |eig - hint| apart below, where it sees a shorter array
    near = distance < 2 * AMBIGUITY_GAP
    if np.count_nonzero(near) < 2 or near.sum(axis=-1).max() < 2:
        return order[..., 0], np.zeros(order.shape[:-1], dtype=bool)
    ranked = np.take_along_axis(eigs, order[..., :2], axis=-1)
    best = ranked[..., 0]
    runner = ranked[..., 1]
    gap = np.abs(best - runner)
    ambiguous = (
        (gap > COINCIDENT_GAP)
        & (gap < AMBIGUITY_GAP)
        & (np.abs(best - hints) < AMBIGUITY_GAP)
        & (np.abs(runner - hints) < AMBIGUITY_GAP)
    )
    return order[..., 0], ambiguous


def _walked_eigenvalue(spec: SchemeSpec, k: np.ndarray, dt: float) -> complex:
    """Track the branch by stepping the wavevector from 0 to k."""
    hint = 1.0 + 0.0j
    for step in range(1, WALK_INCREMENTS + 1):
        g = amplification_matrix(spec, k * (step / WALK_INCREMENTS), dt)
        hint = dominant_eigenvalue(g, hint)
    return hint


def geometric_dt_sequence(dt0, levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """dt0 / 2^m for m = 0..levels-1; a column of dt0 values gives one ladder per row.

    A levels that is not an integer or is negative, or a positive dt0 whose
    smallest step would fall below the smallest normal float, raises ValidationError.
    """
    if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)):
        raise ValidationError(f"levels must be an integer, got {levels!r}")
    if levels < 0:
        raise ValidationError(f"levels must be >= 0, got {levels}")
    dts = np.ldexp(dt0, -np.arange(levels))  # exact halving, no overflow in 2^m
    underflow = (dts[..., 0] > 0) & (dts[..., -1] < SMALLEST_NORMAL) if levels else np.False_
    if underflow.any():
        first = float(dts[..., 0][underflow].flat[0])
        raise ValidationError(f"{levels} dt levels: dt0 = {first:g} halved {levels - 1} times "
                              "underflows")
    return dts


def _branch_values(spec: SchemeSpec, k: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Dominant eigenvalue at each dt, followed from the smallest step upward.

    k has shape (..., d) and dts (..., levels) with the same leading axes; the
    result has the shape of dts.  Every G(k, dt) is built from the spec's one
    collision factor and all their eigenvalues come from one batched solve.
    The nearest-eigenvalue rule then runs twice: at the smallest dt with hint
    1, and at every other level with each eigenvalue of the level below as a
    candidate hint.  The branch is followed by index through those picks.
    Only when some pick is ambiguous are the flags along the chain read: a row
    whose chain meets an ambiguous pick is redone from that level, a walk in k
    there, then the rule from the walked value, level by level.
    """
    k = np.asarray(k, dtype=float)
    dts = np.asarray(dts, dtype=float)
    phases = np.exp(-1j * (k @ spec.vset.velocities.T)[..., None, :] * dts[..., None])
    eigs = np.linalg.eigvals(phases[..., None] * spec._collision_factor)
    shape = dts.shape
    dts = dts.reshape(-1, shape[-1])
    levels = np.argsort(dts, axis=-1)  # smallest dt first
    rows, columns = np.arange(len(dts))[:, None], np.arange(shape[-1])
    eigs = eigs.reshape(dts.shape + eigs.shape[-1:])[rows, levels]
    start, start_ambiguous = _nearest(eigs[:, 0], np.ones(len(dts)))
    step, step_ambiguous = _nearest(eigs[:, 1:, None, :], eigs[:, :-1])  # (rows, levels - 1, q)
    chain = []
    for index, picks in zip(start.tolist(), step.tolist()):  # one lookup per row and level
        path = [index]
        for pick in picks:
            index = pick[index]
            path.append(index)
        chain.append(path)
    chain = np.array(chain, dtype=int).reshape(dts.shape)
    values = eigs[rows, columns, chain]
    if start_ambiguous.any() or step_ambiguous.any():  # else no chain meets an ambiguous pick
        ambiguous = np.column_stack([start_ambiguous,
                                     step_ambiguous[rows, columns[:-1], chain[:, :-1]]])
        redo = np.flatnonzero(ambiguous.any(axis=-1))
        first = np.argmax(ambiguous[redo], axis=-1)
        k = k.reshape(-1, k.shape[-1])
        # level by level, so a walk that raises is the one a level-by-level pick would meet first
        for m in range(first.min(initial=shape[-1]), shape[-1]):
            for r, f in zip(redo, first):
                if m < f:
                    continue
                # the first ambiguous level walks at once; later ones ask the rule first
                index, unsure = _nearest(eigs[r, m], values[r, m - 1]) if m > f else (None, True)
                values[r, m] = (_walked_eigenvalue(spec, k[r], dts[r, levels[r, m]]) if unsure
                                else eigs[r, m, index])
    out = np.empty(dts.shape, dtype=complex)
    out[rows, levels] = values
    return out.reshape(shape)


def _check_ladders(spec: SchemeSpec, ks, norms: np.ndarray, dts: np.ndarray) -> None:
    """Raise ValidationError unless each row dts[i] is a usable dt ladder for the
    wavevector ks[i] of norm norms[i] = np.linalg.norm(ks[i]).

    The rows are tested in order, and each row in this order: ks[i] has shape
    (d,), its norm is finite and nonzero, the ladder is 1-D, has at least 5
    levels, is positive, is geometric, and |k| lambda dt0 <= MAX_PHASE; the
    first failing test raises.  The ladders are read sorted, largest first,
    in one array sort.  A NaN step fails only the last test: np.sort puts it
    first, as dt0, and makes the first ratio NaN, from which no ratio differs
    by 1e-9.
    """
    if dts.ndim != 2:
        shared = f"dt sequence must be one-dimensional, got shape {dts.shape[1:]}"
    elif dts.shape[-1] < 5:
        shared = f"need at least 5 dt levels, got {dts.shape[-1]}"
    else:
        shared = None
        ordered = np.sort(dts, axis=-1)[:, ::-1]
        ratios = ordered[:, 1:] / ordered[:, :-1]
        # the smallest step is not positive, unless every step is NaN
        nonpositive = (ordered[:, -1] <= 0).tolist()
        skewed = (np.abs(ratios - ratios[:, :1]) > 1e-9).any(axis=-1).tolist()
        phases = (norms * spec.vset.lam * ordered[:, 0]).tolist()
    for i, (k, norm) in enumerate(zip(ks, norms.tolist())):
        if np.shape(k) != (spec.dim,):
            raise ValidationError(f"wavevector shape {np.shape(k)}, expected ({spec.dim},)")
        if not 0.0 < norm < math.inf:
            raise ValidationError(f"wavevector k={tuple(float(x) for x in k)} has |k| = {norm:g} "
                                  "in floating point; the oracle compares only a finite, "
                                  "nonzero |k|")
        if shared is not None:
            raise ValidationError(shared)
        if nonpositive[i]:
            raise ValidationError("dt sequence must be positive")
        if skewed[i]:
            raise ValidationError("dt sequence must be geometric")
        if not phases[i] <= MAX_PHASE + 1e-12:
            raise ValidationError(f"|k| lambda dt0 = {phases[i]:g} exceeds {MAX_PHASE}")


@lru_cache(maxsize=8)
def _fit_designs(shape: tuple[int, int], t: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The even (t, t^3, t^5, t^7) and odd (t^2, t^4, t^6) designs, (n, levels, 4)
    and (n, levels, 3), over the ladders t = dts / dt0 of the given shape and
    bytes, read-only.  Every halving ladder has t = 2^-m, so calls that fit
    one ladder shape build their designs once."""
    t = np.frombuffer(t).reshape(shape)
    designs = np.stack([t, t**3, t**5, t**7], axis=-1), np.stack([t**2, t**4, t**6], axis=-1)
    for design in designs:
        design.setflags(write=False)
    return designs


def _fit(dts: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit each row of z = log(g) over its (n, levels) ladder dts (see extract_symbol_series).

    Returns mu0, mu1, mu2 as an (n, 3) complex array and the fit residual (n,).
    The even (Im) and odd (Re) fits run over t = dts / dt0, on the designs of
    _fit_designs, with one lstsq per row and part; the reconstruction and the
    residual run for all rows at once.  The caller holds np.errstate: a
    non-finite mu is its to reject.
    """
    dt0 = dts.max(axis=-1)
    t = dts / dt0[:, None]
    even, odd = _fit_designs(t.shape, t.tobytes())
    coef_even = np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(even, z.imag)])
    coef_odd = np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(odd, z.real)])
    fitted = (odd @ coef_odd[..., None])[..., 0] + 1j * (even @ coef_even[..., None])[..., 0]
    residual = (np.abs(fitted - z) / dts).max(axis=-1)
    mu = np.empty((len(dts), 3), dtype=complex)
    mu[:, 0] = 1j * (coef_even[:, 0] / dt0)
    mu[:, 1] = coef_odd[:, 0] / (dt0 * dt0)
    mu[:, 2] = 1j * (coef_even[:, 1] / (dt0 * dt0 * dt0))
    return mu, residual


def _symbol_series(spec: SchemeSpec, ks: np.ndarray, norms: np.ndarray, dts: np.ndarray,
                   phases, on_poor_fit: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fitted series at each (d,) wavevector ks[i] over its (levels,) dt ladder dts[i].

    Returns arrays, one row per wavevector: mu0, mu1, mu2 as an (n, 3) complex
    array, the fit residual (n,) and the poor-fit flag (n,).  norms[i] is
    np.linalg.norm(ks[i]) and phases[i], an array row or one ladder shared by
    every row, is the phase ladder |k| dts[i].  G(k, dt) depends on k and dt only through the phases
    dt k.v_j = (|k| dt) khat.v_j with khat = k / |k|, so wavevectors whose
    direction khat and phase ladder are bitwise equal share every matrix.
    Each such group is solved once, at its first wavevector over that one's
    ladder (one batched _branch_values call for all groups), and fitted once.
    Every member is then scaled from it: mu_l(k) = mu_l(khat) |k|^(l+1) and
    residual(k) = |k| residual(khat), so mu_l scales by (|k| / |k_first|)^(l+1)
    and the residual by |k| / |k_first|.  The poor-fit test runs per
    wavevector, against its own |mu0 + 1|.  Every |k| is finite and nonzero
    (_check_ladders).  The caller holds np.errstate: a ladder so fine that
    some mu is not finite raises ValidationError naming its dt0.
    """
    groups: dict[bytes, int] = {}  # each group's number, in order of its first row
    owner = [groups.setdefault(khat.tobytes() + phase.tobytes(), len(groups))
             for khat, phase in zip(ks / norms[:, None], phases)]
    first = [owner.index(g) for g in range(len(groups))]
    solved = dts[first]
    fits, misfit = _fit(solved, np.log(_branch_values(spec, ks[first], solved)))
    ratio = norms / norms[first][owner]  # exactly 1 for a solved row
    square = ratio * ratio  # products, not np.power: its SIMD loops round by machine
    powers = np.stack([ratio, square, square * ratio], axis=-1)
    # parts apart: keeps the sign of a zero
    mu = (fits.view(float).reshape(-1, 3, 2)[owner] * powers[..., None]).view(complex)[..., 0]
    residual = ratio * misfit[owner]
    if not np.isfinite(mu).all():
        r = int(np.argmin(np.isfinite(mu).all(axis=-1)))
        raise ValidationError(f"dt0 = {dts[r].max():g} is too small: the fitted mu "
                              f"at k={tuple(float(x) for x in ks[r])} is not finite")
    shifted = mu[:, 0] + 1.0
    poor = residual > POOR_FIT_FACTOR * np.hypot(shifted.real, shifted.imag)  # abs(mu0 + 1)
    if poor.any() and on_poor_fit != "flag":
        r = int(np.argmax(poor))
        raise PoorFit(f"fit residual {residual[r]:.3e} exceeds {POOR_FIT_FACTOR:g}*|mu0+1| "
                      f"at k={tuple(float(x) for x in ks[r])}")
    return mu, residual, poor


def extract_symbol_series(
    spec: SchemeSpec, k, dt_sequence, on_poor_fit: str = "raise"
) -> SymbolSeries:
    """Fit y = log(g)/dt over the dt sequence and read off mu0, mu1, mu2.

    The sequence must be geometric with at least 5 levels and satisfy
    |k| lambda dt <= 0.1 so the principal log stays on the right branch.
    Because g(k, -dt) = conj(g(k, dt)) for any real collision matrix, the
    even-index mu are purely imaginary and the odd-index ones purely real,
    so Im and Re are fitted separately; the least squares runs on log(g)
    itself (weighting y by dt), whose rounding noise is flat across levels,
    instead of on y where it grows like 1/dt.  Coefficients beyond mu2 are
    absorbed, not reported.  A fit residual above 1e-8 |mu0 + 1| (maximum
    deviation on the y scale) raises PoorFit, or flags the result when
    on_poor_fit="flag"; an on_poor_fit of neither raises ValidationError.
    compare_with_prediction fits the same way (see _symbol_series).
    """
    if on_poor_fit not in ("raise", "flag"):
        raise ValidationError(f"on_poor_fit must be 'raise' or 'flag', got {on_poor_fit!r}")
    k = np.asarray(k, dtype=float)
    dts = np.asarray(dt_sequence, dtype=float)
    # an overflowing |k| is inf, which _check_ladders rejects, as _symbol_series does a non-finite mu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norms = np.array([np.linalg.norm(k)])
        _check_ladders(spec, [k], norms, np.atleast_1d(dts)[None])
        mu, residual, poor = _symbol_series(spec, k[None], norms, dts[None], norms * dts[None],
                                            on_poor_fit)
    return SymbolSeries(tuple(k.tolist()), *mu[0].tolist(), float(residual[0]), bool(poor[0]))


def predicted_symbols(equation, k) -> tuple[complex, ...]:
    """Symbol values of the derived operators at k; module-level so tests can
    substitute a corrupted predictor."""
    return equation.symbol_series(k)


@dataclass(frozen=True)
class ComparisonReport:
    """Predictor-vs-oracle outcome over a set of wavevectors."""

    records: tuple[dict, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "records": [dict(r) for r in self.records],
        }

    def csv_rows(self) -> list[list]:
        rows = [["k", "order", "measured_re", "measured_im", "predicted_re",
                 "predicted_im", "abs_err", "rel_err", "pass"]]
        for r in self.records:
            for l in range(len(r["mu"])):
                rows.append([
                    " ".join(repr(x) for x in r["k"]),
                    l,
                    r["mu"][l][0],
                    r["mu"][l][1],
                    r["predicted"][l][0],
                    r["predicted"][l][1],
                    r["abs_err"][l],
                    r["rel_err"][l],
                    r["order_pass"][l],
                ])
        return rows


def _pairs(z: np.ndarray) -> list:
    """Each complex entry of the (n, m) array z as a [re, im] list of floats."""
    return z.view(float).reshape(z.shape + (2,)).tolist()


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _order_bounds(name: str, bounds, order: int) -> np.ndarray:
    """The first `order` entries of compare_with_prediction's `relative` or `floors`,
    as floats; anything but a sequence of at least `order` numbers raises
    ValidationError naming the argument."""
    try:
        entries = list(bounds)
    except TypeError:
        entries = None
    if entries is None or not all(map(_is_number, entries)):
        raise ValidationError(f"{name} must be a sequence of numbers, got {bounds!r}")
    if len(entries) < order:  # one bound per order compared
        raise ValidationError(f"{name} needs {order} entries, got {len(entries)}")
    return np.array(entries[:order], dtype=float)


def compare_with_prediction(
    spec: SchemeSpec,
    k_samples,
    order: int = DEFAULT_ORDER,
    relative=RELATIVE_TOLERANCES,
    floors=ABSOLUTE_FLOORS,
    dt0: float | None = None,
    levels: int = DEFAULT_LEVELS,
) -> ComparisonReport:
    """Confront the derived operators with the Fourier oracle at each k.

    Each order-l coefficient passes when |predicted - measured| is below
    max(relative[l] |measured|, floors[l]).  When dt0 is not given it is
    chosen per wavevector so that |k| lambda dt0 = DEFAULT_PHASE.  Failures,
    including poor oracle fits, are recorded rather than raised.

    No wavevectors, a `relative` or `floors` that is not a sequence of at
    least `order` numbers, or a dt0 that is neither None nor a number, raise
    ValidationError naming the argument, and so does the first wavevector, in
    norm order, that _check_ladders rejects with its ladder (a zero, NaN or
    infinite |k| among them); all before the oracle solves anything.  The
    oracle then solves and fits once per direction and phase ladder (see
    _symbol_series): with the default dt0 every wavevector along one direction
    shares one phase ladder DEFAULT_PHASE / lambda / 2^m, while an explicit dt0
    gives each |k| its own.  predicted_symbols runs once per wavevector; the
    errors, relative errors and flags of all wavevectors are then taken as
    whole arrays, and the first wavevector in norm order whose error is not
    finite raises ValidationError.  The spec's collision factor and the fit
    designs are the only work kept from one call to the next.
    """
    ks = [tuple(map(float, k)) for k in k_samples]
    # an overflowing |k| is inf, which _check_ladders rejects; so are a NaN or infinite
    # predicted symbol and a non-finite mu, each with its own error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if len({len(k) for k in ks}) == 1:  # np.linalg.norm's own dot, for all rows in one matmul
            rows = np.array(ks)
            norms = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
        else:  # no wavevectors, or two lengths, which _check_ladders rejects
            rows = None
            norms = np.array([np.linalg.norm(k) for k in ks])
        if not ks:
            raise ValidationError("no wavevectors to compare")
        keys = norms.tolist()
        by_norm = sorted(range(len(ks)), key=lambda i: (keys[i], ks[i]))  # then the components
        ks = [ks[i] for i in by_norm]
        rows = ks if rows is None else rows[by_norm]
        norms = norms[by_norm]
        equation = derive_equivalent_equation(spec, order)
        relative = _order_bounds("relative", relative, order)
        floors = _order_bounds("floors", floors, order)
        if dt0 is not None and not _is_number(dt0):
            raise ValidationError(f"dt0 must be a number or None, got {dt0!r}")
        lam = spec.vset.lam
        base_dts = [dt0] * len(ks) if dt0 is not None else (DEFAULT_PHASE / (norms * lam)).tolist()
        ladders = geometric_dt_sequence(np.array(base_dts)[:, None], levels)
        _check_ladders(spec, rows, norms, ladders)
        if dt0 is not None:
            phases = norms[:, None] * ladders
        else:  # one phase ladder for all: |k| dt0 can round apart between wavevectors
            phases = [geometric_dt_sequence(DEFAULT_PHASE / lam, levels)] * len(ks)
        mu, residual, poor = _symbol_series(spec, rows, norms, ladders, phases, "flag")
        measured = mu[:, :order]
        predicted = np.array([predicted_symbols(equation, k) for k in ks], dtype=complex)
        diff = predicted[:, :order] - measured
        # hypot is abs() on one complex number; np.abs on an array can round apart from it
        abs_err = np.hypot(diff.real, diff.imag)
        scale = np.hypot(measured.real, measured.imag)
        rel_err = abs_err / scale
        bound = np.maximum(relative * scale, floors)
    finite = np.isfinite(abs_err).all(axis=-1)
    if not finite.all():
        raise ValidationError(f"order-{order} equivalent equation gives a non-finite "
                              f"predicted symbol at k={ks[int(np.argmin(finite))]}")
    order_pass = abs_err <= bound
    record_pass = order_pass.all(axis=-1) & ~poor
    # null where mu is 0 (0/0 or err/0) and where err/|mu| overflows
    rel_err = np.where(rel_err < math.inf, rel_err, None)
    records = tuple(
        {
            "k": list(k),
            "dt0": base_dt,
            "mu": m,
            "predicted": p,
            "abs_err": a,
            "rel_err": r,
            "order_pass": o,
            "fit_residual": res,
            "poor_fit": bad_fit,
            "pass": ok,
        }
        for k, base_dt, m, p, a, r, o, res, bad_fit, ok in zip(
            ks, base_dts, _pairs(measured), _pairs(predicted), abs_err.tolist(),
            rel_err.tolist(), order_pass.tolist(), residual.tolist(), poor.tolist(),
            record_pass.tolist())
    )
    return ComparisonReport(records, bool(record_pass.all()))
