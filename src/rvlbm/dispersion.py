"""Fourier analysis of a scheme: amplification matrices and growth-rate series.

This is the verification channel that never touches the operator algebra.  A
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

from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguity, NonConstantShift, PoorFit, ValidationError
from .scheme import SchemeSpec

POOR_FIT_FACTOR = 1e-8
AMBIGUITY_GAP = 1e-9
COINCIDENT_GAP = 1e-13
MAX_PHASE = 0.1
DEFAULT_PHASE = 0.05
DEFAULT_LEVELS = 10
WALK_INCREMENTS = 10
STABILITY_POINTS = 33
STABILITY_TOL = 1e-10

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
    if not spec.u_tilde.is_constant:
        raise NonConstantShift("Fourier analysis requires a constant shift")
    k = np.asarray(k, dtype=float)
    if k.shape != (spec.dim,):
        raise ValidationError(f"wavevector shape {k.shape}, expected ({spec.dim},)")
    phases = np.exp(-1j * (spec.vset.velocities @ k) * dt)
    return AmplificationMatrix(phases[:, None] * _collision_factor(spec))


def _collision_factor(spec: SchemeSpec) -> np.ndarray:
    """One collision as a q x q matrix, M(u)^-1 [(I - S) M(u) + S (M(u) E) 1^T]."""
    mm = spec.moment_matrix
    s = np.asarray(spec.s)
    e_moments = mm.m @ np.asarray(spec.equilibrium)
    return mm.m_inv @ ((1.0 - s)[:, None] * mm.m + np.outer(s * e_moments, np.ones(spec.q)))


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
    radii = np.abs(np.linalg.eigvals(phases[:, :, None] * _collision_factor(spec))).max(axis=1)
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
    pick, ambiguous = _nearest(np.linalg.eigvals(matrix.astype(complex)), continuity_hint)
    if ambiguous:
        raise BranchAmbiguity(
            f"two eigenvalues within {AMBIGUITY_GAP:g} of the hint {continuity_hint}, "
            f"nearest {complex(pick)}"
        )
    return complex(pick)


def _nearest(eigs: np.ndarray, hints) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (..., q) eigenvalues, the one nearest its (...) hint, and
    where that pick is ambiguous under dominant_eigenvalue's rule."""
    hints = np.asarray(hints, dtype=complex)
    order = np.argsort(np.abs(eigs - hints[..., None]), axis=-1)
    ranked = np.take_along_axis(eigs, order[..., :2], axis=-1)
    best = ranked[..., 0]
    if eigs.shape[-1] < 2:
        return best, np.zeros(best.shape, dtype=bool)
    runner = ranked[..., 1]
    gap = np.abs(best - runner)
    ambiguous = (
        (gap > COINCIDENT_GAP)
        & (gap < AMBIGUITY_GAP)
        & (np.abs(best - hints) < AMBIGUITY_GAP)
        & (np.abs(runner - hints) < AMBIGUITY_GAP)
    )
    return best, ambiguous


def _walked_eigenvalue(spec: SchemeSpec, k: np.ndarray, dt: float) -> complex:
    """Track the branch by stepping the wavevector from 0 to k."""
    hint = 1.0 + 0.0j
    for step in range(1, WALK_INCREMENTS + 1):
        g = amplification_matrix(spec, k * (step / WALK_INCREMENTS), dt)
        hint = dominant_eigenvalue(g, hint)
    return hint


def geometric_dt_sequence(dt0: float, levels: int = DEFAULT_LEVELS) -> np.ndarray:
    """dt0 / 2^m for m = 0..levels-1; a column of dt0 values gives one ladder per row."""
    return dt0 / 2.0 ** np.arange(levels)


def _branch_values(spec: SchemeSpec, k: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """Dominant eigenvalue at each dt, walking from the smallest step upward.

    k has shape (..., d) and dts (..., levels) with the same leading axes; the
    result has the shape of dts.  Every G(k, dt) is built from one collision
    factor and all their eigenvalues come from one batched solve.  The branch
    is then selected one level at a time for all wavevectors together; an
    ambiguous selection falls back to a walk in k for that wavevector alone.
    """
    k = np.asarray(k, dtype=float)
    dts = np.asarray(dts, dtype=float)
    phases = np.exp(-1j * (k @ spec.vset.velocities.T)[..., None, :] * dts[..., None])
    eigs = np.linalg.eigvals(phases[..., None] * _collision_factor(spec))
    shape = dts.shape
    k = k.reshape(-1, k.shape[-1])
    dts = dts.reshape(-1, shape[-1])
    eigs = eigs.reshape(dts.shape + eigs.shape[-1:])
    rows = np.arange(len(dts))
    values = np.empty(dts.shape, dtype=complex)
    hints = np.ones(len(dts), dtype=complex)
    for level in np.argsort(dts, axis=-1).T:  # one level index per row, smallest dt first
        picks, ambiguous = _nearest(eigs[rows, level], hints)
        for r in np.flatnonzero(ambiguous):
            picks[r] = _walked_eigenvalue(spec, k[r], dts[r, level[r]])
        values[rows, level] = hints = picks
    return values.reshape(shape)


def _check_ladders(spec: SchemeSpec, ks, ladders: np.ndarray) -> None:
    """Raise ValidationError unless ladders[i] is a usable dt ladder for the (d,) wavevector ks[i].

    A ladder must be geometric and positive with at least 5 levels, and
    |k| lambda dt0 must be at most MAX_PHASE; a NaN anywhere fails that test.
    All rows are tested in one pass; the first unusable row raises the first
    test it fails, so the error is the one a row-by-row check would give.
    """
    def shape_error(i):
        return ValidationError(f"wavevector shape {np.shape(ks[i])}, expected ({spec.dim},)")

    shape_failed = np.array([np.shape(k) != (spec.dim,) for k in ks])
    levels = ladders.shape[-1]
    if levels < 5:  # every row fails here, so row 0 raises
        raise shape_error(0) if shape_failed[0] else ValidationError(
            f"need at least 5 dt levels, got {levels}")
    ordered = np.sort(ladders, axis=-1)[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # only unusable rows divide by 0
        ratios = ordered[:, 1:] / ordered[:, :-1]
    phase = np.array([float(np.linalg.norm(k)) for k in ks]) * spec.vset.lam * ordered[:, 0]
    failed = np.stack([
        shape_failed,
        np.any(ladders <= 0, axis=-1),
        np.any(np.abs(ratios - ratios[:, :1]) > 1e-9, axis=-1),
        ~(phase <= MAX_PHASE + 1e-12),
    ], axis=-1)
    if not failed.any():
        return
    row = int(np.argmax(failed.any(axis=-1)))
    test = int(np.argmax(failed[row]))
    if test == 0:
        raise shape_error(row)
    raise ValidationError((
        "dt sequence must be positive",
        "dt sequence must be geometric",
        f"|k| lambda dt0 = {phase[row]:g} exceeds {MAX_PHASE}",
    )[test - 1])


def _design_matrices(dts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even- and odd-power design matrices of the fit over t = dts / dt0, per (..., levels) ladder.

    Built for every ladder in one step; a compare_with_prediction ladder gives
    t = 2^-m, but no row is assumed to equal another.
    """
    t = dts / dts.max(axis=-1, keepdims=True)
    return np.stack([t, t**3, t**5, t**7], axis=-1), np.stack([t**2, t**4, t**6], axis=-1)


def _fit_series(k: np.ndarray, dts: np.ndarray, z, even: np.ndarray, odd: np.ndarray,
                on_poor_fit: str) -> SymbolSeries:
    """Fit z = log(g) over the ladder and read off mu0, mu1, mu2 (see extract_symbol_series).

    even and odd are the ladder's design matrices.  A zero wavevector gives the
    zero series without reading z.
    """
    if not np.any(k):
        return SymbolSeries(tuple(k), 0j, 0j, 0j, 0.0)
    dt0 = dts.max()
    coef_even, *_ = np.linalg.lstsq(even, z.imag, rcond=None)
    coef_odd, *_ = np.linalg.lstsq(odd, z.real, rcond=None)
    fitted = odd @ coef_odd + 1j * (even @ coef_even)
    residual = float(np.max(np.abs(fitted - z) / dts))

    mu0 = 1j * coef_even[0] / dt0
    mu1 = complex(coef_odd[0] / dt0**2)
    mu2 = 1j * coef_even[1] / dt0**3
    poor = residual > POOR_FIT_FACTOR * abs(mu0 + 1.0)
    if poor and on_poor_fit != "flag":
        raise PoorFit(
            f"fit residual {residual:.3e} exceeds {POOR_FIT_FACTOR:g}*|mu0+1| at k={tuple(k)}"
        )
    return SymbolSeries(tuple(k), mu0, mu1, mu2, residual, poor)


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
    on_poor_fit="flag".
    """
    k = np.asarray(k, dtype=float)
    dts = np.asarray(dt_sequence, dtype=float)
    _check_ladders(spec, [k], dts[None])
    z = np.log(_branch_values(spec, k, dts)) if np.any(k) else None
    return _fit_series(k, dts, z, *_design_matrices(dts), on_poor_fit)


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


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def compare_with_prediction(
    spec: SchemeSpec,
    k_samples,
    order: int = 3,
    relative=RELATIVE_TOLERANCES,
    floors=ABSOLUTE_FLOORS,
    dt0: float | None = None,
    levels: int = DEFAULT_LEVELS,
    target_phase: float = DEFAULT_PHASE,
) -> ComparisonReport:
    """Confront the derived operators with the Fourier oracle at each k.

    Each order-l coefficient passes when |predicted - measured| is below
    max(relative[l] |measured|, floors[l]).  When dt0 is not given it is
    chosen per wavevector so that |k| lambda dt0 = target_phase.  Failures,
    including poor oracle fits, are recorded rather than raised.

    No wavevectors, or any invalid ladder, raise ValidationError before the
    oracle solves anything; the eigenvalues of every G(k, dt) are then taken
    in one batch (see _branch_values).
    """
    from .equivalent import derive_equivalent_equation

    ks = [tuple(float(x) for x in k) for k in k_samples]
    keyed = sorted((np.linalg.norm(k), k) for k in ks)  # norm first, then the components
    if not keyed:
        raise ValidationError("no wavevectors to compare")
    ks = [k for _, k in keyed]
    equation = derive_equivalent_equation(spec, order)
    if dt0 is not None:
        base_dts = [dt0] * len(ks)
    else:
        lam = spec.vset.lam
        base_dts = [target_phase / (knorm * lam) if knorm > 0 else target_phase / lam
                    for knorm in (float(norm) for norm, _ in keyed)]
    ladders = geometric_dt_sequence(np.array(base_dts)[:, None], levels)
    _check_ladders(spec, ks, ladders)
    k_array = np.array(ks)
    moving = np.any(k_array, axis=-1)
    values = np.ones(ladders.shape, dtype=complex)  # log 1 = 0 where k = 0 is never read
    values[moving] = _branch_values(spec, k_array[moving], ladders[moving])
    z = np.log(values)
    even, odd = _design_matrices(ladders)

    records = []
    all_pass = True
    for k, base_dt, k_row, dts, z_row, even_row, odd_row in zip(
        ks, base_dts, k_array, ladders, z, even, odd
    ):
        series = _fit_series(k_row, dts, z_row, even_row, odd_row, on_poor_fit="flag")
        predicted = predicted_symbols(equation, k)
        measured = series.mu[:order]
        abs_err, rel_err, order_pass = [], [], []
        for l in range(order):
            err = abs(predicted[l] - measured[l])
            scale = abs(measured[l])
            abs_err.append(err)
            rel_err.append(err / scale if scale > 0 else None)
            order_pass.append(bool(err <= max(relative[l] * scale, floors[l])))
        record_pass = all(order_pass) and not series.poor_fit
        all_pass = all_pass and record_pass
        records.append({
            "k": list(k),
            "dt0": base_dt,
            "mu": [_pair(m) for m in measured],
            "predicted": [_pair(p) for p in predicted],
            "abs_err": abs_err,
            "rel_err": rel_err,
            "order_pass": order_pass,
            "fit_residual": series.fit_residual,
            "poor_fit": series.poor_fit,
            "pass": record_pass,
        })
    return ComparisonReport(tuple(records), all_pass)
