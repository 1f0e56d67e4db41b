import json
import math
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings, strategies as st

from rvlbm import (
    MomentPolynomial,
    SchemeSpec,
    VelocitySet,
    VelocityShift,
    amplification_matrix,
    compare_with_prediction,
    default_basis,
    density,
    derive_equivalent_equation,
    dhumieres_crosscheck,
    dominant_eigenvalue,
    extract_symbol_series,
    fourier_mode_state,
    geometric_dt_sequence,
    load_config,
    reference_config,
    step,
)
from rvlbm.config import default_k_samples
from rvlbm.experiments import INVARIANCE_RTOL
import rvlbm.dispersion as dispersion
from rvlbm.errors import (
    BranchAmbiguity,
    NonConstantShift,
    PoorFit,
    SingularMatrix,
    ValidationError,
)


def d1q2_spec(c=0.5, s1=1.0, u=None):
    vset = VelocitySet(1, 1.0, ((1,), (-1,)))
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, default_basis(vset), (0.0, s1), ((1 + c) / 2, (1 - c) / 2), shift)


def d1q3_spec(u=None):
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    basis = (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(2,): 1.0}),
    )
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, basis, (0.0, 1.2, 1.6), (0.5, 0.3, 0.2), shift)


class TestAmplificationMatrix:
    def test_zero_wavevector_is_pure_collision(self):
        spec = d1q2_spec(c=0.3, s1=1.2)
        g = amplification_matrix(spec, [0.0], 0.01)
        ones = np.ones(2)
        e = np.asarray(spec.equilibrium)
        # mass row and equilibrium column are both fixed by collision
        np.testing.assert_allclose(ones @ g.g, ones, atol=1e-15)
        np.testing.assert_allclose(g.g @ e, e, atol=1e-15)
        assert dominant_eigenvalue(g) == pytest.approx(1.0, abs=1e-14)

    def test_no_relaxation_gives_streaming_phases(self):
        spec = d1q2_spec(s1=0.0)
        k, dt = np.array([0.7]), 0.02
        g = amplification_matrix(spec, k, dt)
        phases = np.exp(-1j * spec.vset.velocities @ k * dt)
        np.testing.assert_allclose(g.g, np.diag(phases), atol=1e-15)
        assert np.abs(np.linalg.eigvals(g.g)) == pytest.approx(1.0, abs=1e-12)

    def test_wavevector_shape_checked(self):
        with pytest.raises(ValidationError):
            amplification_matrix(d1q2_spec(), [0.1, 0.2], 0.01)

    def test_space_dependent_shift_rejected(self):
        spec = replace(d1q2_spec(), u_tilde=VelocityShift.sine((0.1,)))
        with pytest.raises(NonConstantShift):
            amplification_matrix(spec, [0.5], 0.01)

    def test_one_step_on_grid_matches_matrix(self):
        spec = d1q2_spec(c=0.3, s1=1.1)
        n, length, mode = 64, 2.0 * np.pi, 3
        rng = np.random.RandomState(5)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = fourier_mode_state(spec, (n,), (length,), w, (mode,))
        stepped = step(state, spec)
        k = np.array([2.0 * np.pi * mode / length])
        g = amplification_matrix(spec, k, state.dt)
        expected = (g.g @ w)[:, None] * (state.f / w[:, None])
        np.testing.assert_allclose(stepped.f, expected, atol=1e-13)


class TestDominantEigenvalue:
    def test_identity_branch(self):
        assert dominant_eigenvalue(np.eye(3)) == 1.0 + 0.0j

    def test_follows_hint(self):
        m = np.diag([0.5, 0.9])
        assert dominant_eigenvalue(m, 1.0 + 0j) == pytest.approx(0.9)
        assert dominant_eigenvalue(m, 0.4 + 0j) == pytest.approx(0.5)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.RandomState(11)
        m = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        picked = dominant_eigenvalue(m)
        roots = np.roots(np.poly(m))
        nearest = roots[np.argmin(np.abs(roots - 1.0))]
        assert picked == pytest.approx(nearest, abs=1e-10)

    def test_near_degenerate_branch_raises(self):
        m = np.diag([1.0 + 1e-10, 1.0 + 2e-10, 0.5])
        with pytest.raises(BranchAmbiguity):
            dominant_eigenvalue(m)

    def test_coincident_eigenvalues_are_not_ambiguous(self):
        m = np.diag([1.0 + 1e-15, 1.0 + 2e-15, 0.5])
        assert dominant_eigenvalue(m) == pytest.approx(1.0, abs=1e-12)

    def test_clear_gap_needs_no_walk(self):
        m = np.diag([1.0 + 1e-10, 0.5])
        assert dominant_eigenvalue(m) == pytest.approx(1.0 + 1e-10, abs=1e-15)


class TestGeometricSequence:
    def test_halving_ladder(self):
        dts = geometric_dt_sequence(0.04, 6)
        np.testing.assert_allclose(dts, 0.04 / 2.0 ** np.arange(6))


class TestExtractSymbolSeries:
    def ladder(self, k=1.0, levels=10):
        return geometric_dt_sequence(0.05 / abs(k), levels)

    def test_zero_wavevector_short_circuits(self):
        series = extract_symbol_series(d1q2_spec(), [0.0], self.ladder())
        assert series.mu == (0j, 0j, 0j)
        assert series.fit_residual == 0.0

    def test_advection_coefficient(self):
        series = extract_symbol_series(d1q2_spec(c=0.5, s1=1.0), [1.0], self.ladder())
        assert series.mu0 == pytest.approx(-0.5j, rel=1e-8)
        assert not series.poor_fit

    def test_diffusion_coefficient(self):
        # sigma (lam^2 - c^2) = 0.5 * 0.75 at s = 1, c = 0.5
        series = extract_symbol_series(d1q2_spec(c=0.5, s1=1.0), [1.0], self.ladder())
        assert series.mu1 == pytest.approx(-0.375, rel=1e-6)

    def test_parity_of_fitted_coefficients(self):
        series = extract_symbol_series(d1q2_spec(c=0.3, s1=1.4), [0.8], self.ladder(0.8))
        assert series.mu0.real == 0.0
        assert series.mu1.imag == 0.0
        assert series.mu2.real == 0.0

    def test_rejects_non_geometric_ladder(self):
        with pytest.raises(ValidationError):
            extract_symbol_series(d1q2_spec(), [1.0], [0.05, 0.02, 0.01, 0.005, 0.002])

    def test_rejects_short_ladder(self):
        with pytest.raises(ValidationError):
            extract_symbol_series(d1q2_spec(), [1.0], geometric_dt_sequence(0.05, 4))

    def test_rejects_negative_steps(self):
        with pytest.raises(ValidationError):
            extract_symbol_series(d1q2_spec(), [1.0], [0.04, 0.02, 0.01, 0.005, -0.0025])

    def test_rejects_oversized_phase(self):
        with pytest.raises(ValidationError):
            extract_symbol_series(d1q2_spec(), [4.0], geometric_dt_sequence(0.05, 10))

    def test_noisy_branch_raises_poor_fit(self, monkeypatch):
        def jittered(spec, k, dts):
            wobble = 1e-5 * np.cos(7.0 * np.arange(len(dts)))
            return np.exp(-0.5j * dts) * (1.0 + wobble)

        monkeypatch.setattr(dispersion, "_branch_values", jittered)
        with pytest.raises(PoorFit):
            extract_symbol_series(d1q2_spec(), [1.0], self.ladder())

    def test_poor_fit_flag_mode(self, monkeypatch):
        def jittered(spec, k, dts):
            wobble = 1e-5 * np.cos(7.0 * np.arange(len(dts)))
            return np.exp(-0.5j * dts) * (1.0 + wobble)

        monkeypatch.setattr(dispersion, "_branch_values", jittered)
        series = extract_symbol_series(d1q2_spec(), [1.0], self.ladder(), on_poor_fit="flag")
        assert series.poor_fit

    @given(st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_branch_conjugate_under_wavevector_flip(self, k):
        spec = d1q2_spec(c=0.3, s1=1.4)
        dt = 0.03 / k
        plus = dominant_eigenvalue(amplification_matrix(spec, [k], dt))
        minus = dominant_eigenvalue(amplification_matrix(spec, [-k], dt))
        assert minus == pytest.approx(np.conj(plus), abs=1e-12)

    def test_shift_moves_only_third_order(self):
        k = [0.9]
        series = {
            u: extract_symbol_series(d1q3_spec(u=u), k, self.ladder(0.9))
            for u in (None, 0.2, 0.5)
        }
        base = series[None]
        for u in (0.2, 0.5):
            assert series[u].mu0 == pytest.approx(base.mu0, abs=1e-10)
            assert series[u].mu1 == pytest.approx(base.mu1, abs=1e-9)
        spread = max(abs(series[u].mu2 - base.mu2) for u in (0.2, 0.5))
        assert spread > 1e-6

    def test_two_velocity_collision_is_shift_blind(self):
        # with q = 2 the non-conserved complement is one dimensional, so the
        # relaxed direction cannot depend on the shift: every order coincides
        k = [0.9]
        base = extract_symbol_series(d1q2_spec(c=0.3, s1=1.2), k, self.ladder(0.9))
        moved = extract_symbol_series(d1q2_spec(c=0.3, s1=1.2, u=0.4), k, self.ladder(0.9))
        assert moved.mu == pytest.approx(base.mu, abs=1e-10)


class TestMomentMatrixReuse:
    def test_warm_spec_ladder_inverts_nothing(self, monkeypatch):
        spec = d1q3_spec(u=0.1)
        spec.moment_matrix
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        series = extract_symbol_series(spec, [0.8], geometric_dt_sequence(0.0625, 10))
        assert not series.poor_fit
        assert len(calls) == 0


class TestCompareWithPrediction:
    def test_clean_scheme_passes_everywhere(self):
        report = compare_with_prediction(d1q2_spec(c=0.3, s1=1.2), [[0.3], [0.7], [1.1]])
        assert report.passed
        assert [r["k"] for r in report.records] == [[0.3], [0.7], [1.1]]
        for r in report.records:
            assert r["pass"] and not r["poor_fit"]
            assert all(r["order_pass"])

    def test_floor_covers_exactly_vanishing_coefficient(self):
        # s = 2 makes the diffusion coefficient exactly zero; only the
        # absolute floor can admit the measured residual noise
        report = compare_with_prediction(d1q2_spec(c=0.3, s1=2.0), [[0.5], [1.0]])
        assert report.passed
        for r in report.records:
            assert abs(complex(*r["predicted"][1])) == 0.0
            assert r["abs_err"][1] <= 1e-10

    def test_corrupted_predictor_fails_one_order(self, monkeypatch):
        true_predictor = dispersion.predicted_symbols

        def flipped(equation, k):
            mu = true_predictor(equation, k)
            return (mu[0], -mu[1]) + mu[2:]

        monkeypatch.setattr(dispersion, "predicted_symbols", flipped)
        report = compare_with_prediction(d1q2_spec(c=0.5, s1=1.0), [[1.0]])
        assert not report.passed
        assert report.records[0]["order_pass"] == [True, False, True]

    def test_records_sorted_by_wavevector_norm(self):
        report = compare_with_prediction(d1q2_spec(), [[1.1], [0.3], [-0.7]])
        norms = [abs(r["k"][0]) for r in report.records]
        assert norms == sorted(norms)

    def test_json_dict_is_deterministic_and_timing_free(self):
        spec = d1q2_spec(c=0.3, s1=1.2)
        a = compare_with_prediction(spec, [[0.4], [0.8]])
        b = compare_with_prediction(spec, [[0.4], [0.8]])
        assert "elapsed_seconds" not in a.to_json_dict()
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_csv_rows_layout(self):
        report = compare_with_prediction(d1q2_spec(), [[0.4], [0.8]])
        rows = report.csv_rows()
        assert rows[0][0] == "k"
        assert len(rows) == 1 + 3 * len(report.records)
        assert [row[1] for row in rows[1:4]] == [0, 1, 2]


def counting_eigvals(monkeypatch) -> list:
    """Patch np.linalg.eigvals to record each call; return the record."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(np.shape(a)) or eigvals(a))
    return calls


def d2q5_config_case():
    cfg = load_config(reference_config("d2q5"))
    return cfg.spec, cfg.k_samples


BATCH_CASES = {
    "d1q2": lambda: (d1q2_spec(c=0.3, s1=1.4), default_k_samples(1)),
    "d1q3_u0": lambda: (d1q3_spec(), default_k_samples(1)),
    "d1q3_u0.2": lambda: (d1q3_spec(u=0.2), default_k_samples(1)),
    "d1q3_u0.5": lambda: (d1q3_spec(u=0.5), default_k_samples(1)),
    "d2q5": d2q5_config_case,
}


RANDOM_SCHEME_SETS = {
    "d1q2": ((1,), (-1,)),
    "d1q3": ((0,), (1,), (-1,)),
    "d2q5": ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
    "d2q9": tuple((a, b) for a in (0, 1, -1) for b in (0, 1, -1)),
    "d3q7": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
}


@st.composite
def random_schemes(draw):
    """A standard velocity set with the default basis, random rates in (0, 2),
    random equilibrium weights summing to 1 and a random constant shift."""
    vectors = RANDOM_SCHEME_SETS[draw(st.sampled_from(sorted(RANDOM_SCHEME_SETS)))]
    vset = VelocitySet(len(vectors[0]), 1.0, vectors)
    rates = draw(st.lists(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
                          min_size=vset.q - 1, max_size=vset.q - 1))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=vset.q - 1, max_size=vset.q - 1))
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=vset.dim, max_size=vset.dim))
    return SchemeSpec(vset, default_basis(vset), (0.0, *rates), (*weights, 1.0 - sum(weights)),
                      VelocityShift.constant(shift))


def rates_near_zero_d2q5():
    """A D2Q5 scheme whose last two rates are so small that 1 - s rounds to 1:
    several eigenvalues of G sit at 1 for small k dt, and the branch is ambiguous."""
    vset = VelocitySet(2, 1.0, RANDOM_SCHEME_SETS["d2q5"])
    return SchemeSpec(vset, default_basis(vset), (0.0, 1.5, 1.0, 1.2907626000065785e-37, 7e-160),
                      (0.0, 0.0, 0.0, 0.0, 1.0), VelocityShift.constant((0.0, 0.0)))


class TestBatchedOracle:
    def test_one_eigen_solve_per_comparison(self, monkeypatch):
        spec = d1q3_spec(u=0.2)
        calls = counting_eigvals(monkeypatch)
        report = compare_with_prediction(spec, default_k_samples(1))
        assert report.passed and len(report.records) == 8
        assert calls == [(8, dispersion.DEFAULT_LEVELS, 3, 3)]

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_batched_branch_equals_per_matrix_walk(self, monkeypatch, name):
        # the per-matrix walk is the reference: one G(k, dt) and one
        # dominant_eigenvalue per level, smallest dt first
        spec, ks = BATCH_CASES[name]()
        seen = []
        batched = dispersion._branch_values

        def spy(spec_, k, dts):
            values = batched(spec_, k, dts)
            seen.append((np.array(k), np.array(dts), values))
            return values

        monkeypatch.setattr(dispersion, "_branch_values", spy)
        assert compare_with_prediction(spec, ks).passed
        [(k_stack, dt_stack, values)] = seen
        assert len(k_stack) == len(ks)
        for k, dts, row in zip(k_stack, dt_stack, values):
            hint = 1.0 + 0.0j
            for i in np.argsort(dts):
                hint = dominant_eigenvalue(amplification_matrix(spec, k, dts[i]), hint)
                assert row[i] == hint

    @given(random_schemes())
    @example(rates_near_zero_d2q5())
    @settings(max_examples=60, deadline=None)
    def test_one_pass_pick_equals_per_matrix_walk_on_random_schemes(self, spec):
        # The only filter is the documented cond M(u) <= 1e12 check.  Stability
        # is not required: both sides apply one rule to the same eigenvalues
        # (and a von Neumann sweep of D3Q7 alone takes about a second).  Where
        # the per-matrix walk finds a level ambiguous (rates near 0 leave
        # several eigenvalues at 1), the one-pass pick must flag that same
        # matrix and hand it to the walk in k; a walk that fails too yields NaN
        # here, so the levels before it are still compared.
        try:
            spec.moment_matrix
        except SingularMatrix:
            assume(False)
        ks = np.array(default_k_samples(spec.dim))
        dts = np.array([
            geometric_dt_sequence(dispersion.DEFAULT_PHASE / (np.linalg.norm(k) * spec.vset.lam),
                                  dispersion.DEFAULT_LEVELS)
            for k in ks
        ])
        walks = {}
        walk = dispersion._walked_eigenvalue

        def first_walk_per_row(spec_, k, dt):
            walks.setdefault(tuple(k), dt)
            try:
                return walk(spec_, k, dt)
            except BranchAmbiguity:
                return complex("nan")

        with mock.patch.object(dispersion, "_walked_eigenvalue", first_walk_per_row):
            values = dispersion._branch_values(spec, ks, dts)
        stops = {}
        for k, row_dts, row in zip(ks, dts, values):
            hint = 1.0 + 0.0j
            for i in np.argsort(row_dts):
                try:
                    hint = dominant_eigenvalue(amplification_matrix(spec, k, row_dts[i]), hint)
                except BranchAmbiguity:
                    stops[tuple(k)] = row_dts[i]
                    break
                assert row[i] == hint
        assert walks == stops

    def test_rule_runs_twice_per_unambiguous_ladder(self, monkeypatch):
        # once at the smallest dt with hint 1, once for every other level with
        # each eigenvalue below as a candidate hint; the branch is then followed
        # by index (a level-by-level pick ran the rule once per level, 10 times)
        spec = d1q3_spec(u=0.2)
        ks = np.array(default_k_samples(1))
        dts = np.array([geometric_dt_sequence(0.05 / k[0], 10) for k in ks])
        calls = []
        nearest = dispersion._nearest
        monkeypatch.setattr(dispersion, "_nearest",
                            lambda eigs, hints: calls.append(np.shape(eigs)) or nearest(eigs, hints))
        dispersion._branch_values(spec, ks, dts)
        assert calls == [(8, 3), (8, 9, 1, 3)]

    def test_one_wavevector_keeps_a_flat_ladder(self):
        spec = d1q3_spec(u=0.2)
        dts = geometric_dt_sequence(0.05, 6)
        flat = dispersion._branch_values(spec, np.array([1.0]), dts)
        stacked = dispersion._branch_values(spec, np.array([[1.0]]), dts[None])
        assert flat.shape == (6,)
        np.testing.assert_array_equal(stacked[0], flat)

    def test_ambiguous_level_falls_back_to_walk(self, monkeypatch):
        # the first selection of the batch (row 0 at its smallest dt) is marked
        # ambiguous; the walk in k ends on the same matrix, so it must land on
        # the same eigenvalue
        spec = d1q3_spec(u=0.2)
        ks = np.array([[0.8], [1.6]])
        dts = np.array([geometric_dt_sequence(0.05 / k[0], 8) for k in ks])
        clean = dispersion._branch_values(spec, ks, dts)
        nearest = dispersion._nearest
        calls, walks = [], []
        walk = dispersion._walked_eigenvalue

        def first_ambiguous(eigs, hints):
            picks, ambiguous = nearest(eigs, hints)
            calls.append(hints)
            if len(calls) == 1:
                ambiguous = ambiguous.copy()
                ambiguous[0] = True
            return picks, ambiguous

        monkeypatch.setattr(dispersion, "_nearest", first_ambiguous)
        monkeypatch.setattr(dispersion, "_walked_eigenvalue",
                            lambda *args: walks.append(args) or walk(*args))
        np.testing.assert_array_equal(dispersion._branch_values(spec, ks, dts), clean)
        assert len(walks) == 1
        assert walks[0][1] == pytest.approx([0.8]) and walks[0][2] == dts[0].min()

    def test_no_wavevectors_rejected(self):
        with pytest.raises(ValidationError, match="no wavevectors"):
            compare_with_prediction(d1q2_spec(), [])

    def test_nan_wavevector_rejected_before_any_solve(self, monkeypatch):
        calls = counting_eigvals(monkeypatch)
        ladder = geometric_dt_sequence(0.05, 10)
        with pytest.raises(ValidationError):
            extract_symbol_series(d1q2_spec(), [float("nan")], ladder)
        with pytest.raises(ValidationError):
            compare_with_prediction(d1q2_spec(), [[0.4], [float("nan")]])
        with pytest.raises(ValidationError):
            compare_with_prediction(d1q2_spec(), [[0.4]], dt0=float("nan"))
        assert calls == []

    def test_zero_wavevector_in_batch(self):
        report = compare_with_prediction(d1q2_spec(c=0.3, s1=1.2), [[0.0], [0.5]])
        assert report.passed
        assert report.records[0]["mu"] == [[0.0, 0.0]] * 3
        alone = compare_with_prediction(d1q2_spec(c=0.3, s1=1.2), [[0.5]])
        assert report.records[1] == alone.records[0]


def rounding_scale(spec) -> float:
    """Size of the terms that A_2 is summed from, (1 + max|sigma|)^2 Sum|E_j|
    lam^3 max|M| max|M^-1|: both channels round at about eps times this,
    however small A_2 itself comes out."""
    sigma = max(abs(1.0 / s - 0.5) for s in spec.s[1:])
    mm = spec.moment_matrix
    return ((1.0 + sigma) * (1.0 + sigma) * sum(abs(e) for e in spec.equilibrium)
            * spec.vset.lam ** 3 * float(np.abs(mm.m).max()) * float(np.abs(mm.m_inv).max()))


def diffusion_rounding_scale(spec) -> float:
    """Size of the terms that D is summed from, max|sigma| Sum|E_j| max(1, Sum|E_j|)
    lam max|v_j^b - u_b|: the shift enters D only through terms that cancel
    exactly, so two shifts round apart by about eps times this, however small D
    itself comes out.  Rows 1..d of M(u) hold v_j^b - u_b."""
    sigma = max(abs(1.0 / s - 0.5) for s in spec.s[1:])
    weight = sum(abs(e) for e in spec.equilibrium)
    rows = spec.moment_matrix.m[1:spec.dim + 1]
    return sigma * weight * max(1.0, weight) * spec.vset.lam * float(np.abs(rows).max())


def cancelled_diffusion_d1q2():
    """c = 2e-12 - lam, so D = sigma (lam^2 - c^2) is 2e-12 and comes out 5.6e-5
    apart, relative, between u = 0 and u = 0.25 lam."""
    vset = VelocitySet(1, 1.0, RANDOM_SCHEME_SETS["d1q2"])
    return SchemeSpec(vset, default_basis(vset), (0.0, 1.0), (1e-12, 1.0 - 1e-12),
                      VelocityShift.constant((0.25,)))


def cancelled_d1q2():
    """c rounds to -lam, so A_1 is 0 and A_2 is 1.3e-62 in the direct channel
    and 0 in the regrouped one."""
    vset = VelocitySet(1, 1.0, RANDOM_SCHEME_SETS["d1q2"])
    return SchemeSpec(vset, default_basis(vset), (0.0, 1.0), (7.784102904730544e-62, 1.0))


def cancelled_d1q3():
    """A_2 is exactly 0 in the direct channel and 3.8e-17 in the regrouped one."""
    vset = VelocitySet(1, 1.0, RANDOM_SCHEME_SETS["d1q3"])
    return SchemeSpec(vset, default_basis(vset), (0.0, 0.5, 0.5), (0.5, 0.5, 0.0))


class TestRandomSchemeDerivation:
    @given(random_schemes())
    @example(cancelled_d1q2())
    @example(cancelled_d1q3())
    @settings(max_examples=100, deadline=None)
    def test_direct_and_regrouped_third_order_agree_at_zero_shift(self, spec):
        # Criteria 3 and 8 over random schemes in d = 1, 2, 3: the paper's
        # third-order equation holds for any dimension and velocity set
        # (Dubois, Fevrier & Graille, arXiv:1502.02143).  The only filter is
        # cond M(0) <= 1e12.  A coefficient that a rate near 0 drives past the
        # float range must raise the typed ValidationError.  Where A_2 is
        # cancellation noise (c near +-lam, or all of A_2 cancelling), the
        # relative bound of criterion 3 fails although both channels agree to
        # rounding of the terms they sum; those are the open counterexamples of
        # ROADMAP item 2, and for them the difference must stay at that rounding.
        spec = replace(spec, u_tilde=VelocityShift.zero())
        try:
            spec.moment_matrix
        except SingularMatrix:
            assume(False)
        try:
            equation = derive_equivalent_equation(spec, 3)
            report = dhumieres_crosscheck(spec, rtol=math.inf)
        except ValidationError as exc:
            assert "non-finite coefficient" in str(exc)
            return
        assert equation.structure_violations() == []
        if report["relative_difference"] > 1e-10:
            assert report["max_abs_difference"] <= 1e-13 * rounding_scale(spec)

    @given(random_schemes())
    @example(cancelled_diffusion_d1q2())
    @settings(max_examples=100, deadline=None)
    def test_transport_and_diffusion_shift_invariant(self, spec):
        # Criterion 2 over random schemes: c and D at the drawn shift against
        # zero shift, by the relative bound of verify's u_invariance.  The only
        # filter is cond M(u) <= 1e12.  Where D is cancellation noise that bound
        # fails although both shifts agree to the rounding of the terms D is
        # summed from; that is the open counterexample of ROADMAP item 2, and for
        # it the difference must stay at that rounding: 1e-14 (45 eps) times
        # diffusion_rounding_scale, against a worst of 1.24 eps in 5,337 finite
        # random draws.
        try:
            spec.moment_matrix
        except SingularMatrix:
            assume(False)
        zero = replace(spec, u_tilde=VelocityShift.zero())
        try:
            shifted = derive_equivalent_equation(spec, 2)
            unshifted = derive_equivalent_equation(zero, 2)
        except ValidationError as exc:
            assert "non-finite coefficient" in str(exc)
            return
        for name, a, b in (("c", shifted.c, unshifted.c), ("D", shifted.D, unshifted.D)):
            diff = float(np.max(np.abs(a - b)))
            scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
            if diff / scale > INVARIANCE_RTOL:
                assert name == "D", (name, diff / scale)
                assert diff <= 1e-14 * max(diffusion_rounding_scale(spec),
                                           diffusion_rounding_scale(zero))
