"""Mechanical derivation of the equivalent equation of a scheme.

The density of a scheme with one conservation law obeys, after elimination of
the fast moments,

    d_t rho = A_0 rho + Delta A_1 rho + Delta^2 A_2 rho + O(Delta^3),

where each A_l is a constant-coefficient spatial differential operator.  This
module builds the A_l by substitution of the time derivative: the conservation
defaults theta_k are formed from the per-velocity derivative
E_j (d_t + v_j . grad) with d_t replaced by A_0, and the Henon parameters
sigma_k = 1/s_k - 1/2 weight their contributions.  The order-1 part of theta
inside the Delta term is taken at zero shift, where e_b(0) = c_b, so a
derivation does the same work at every constant shift.  A_l holds only
derivatives of order l + 1, so it is a symmetric rank-(l + 1) tensor, and the
derivation is a few tensor contractions read off as operators.  The module
also predicts the slaved non-conserved moments (xi_k) for the
transition-residual experiments, and cross-checks A_2 against the zero-shift
regrouped form based on the momentum-velocity tensor.  Both are contractions
too, and all three read Theta, the coefficients of theta_k, from
conservation_defaults.

Each operator is read off its tensor as a term tuple of (multi_index, coefficient)
pairs, the terms of a lattice.MomentPolynomial read with X_b = d_b, so its Fourier
symbol is lattice.evaluate_terms at ik.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    OrderUnavailable,
    ValidationError,
)
from .lattice import evaluate_terms
from .scheme import SchemeSpec

CROSSCHECK_RTOL = 1e-10


def _derivative_name(exps, dim: int) -> str:
    """Axis letters of the derivative d^exps, e.g. 'xyy' for (1, 2)."""
    return "".join(("xyz"[a] if dim <= 3 else f"x{a + 1}") * e for a, e in enumerate(exps))


def henon_sigma(s) -> tuple:
    """Henon parameters (None, sigma_1, ...) with sigma_k = 1/s_k - 1/2.

    Slot 0 is None: the conserved moment has no relaxation time.  A zero rate
    has no sigma and raises ValidationError.
    """
    s = tuple(float(sk) for sk in s)
    if 0.0 in s[1:]:
        k = s.index(0.0, 1)
        raise ValidationError(
            f"relaxation rate s[{k}] = 0: sigma_{k} = 1/s[{k}] - 1/2 is undefined"
        )
    return (None,) + tuple(1.0 / sk - 0.5 for sk in s[1:])


def _require_finite(spec: SchemeSpec, what: str, coefficients) -> None:
    """Raise ValidationError when a coefficient is not finite, naming the smallest
    rate if its sigma = 1/s - 1/2 squared is past float range, else the largest |E_j|."""
    if not all(math.isfinite(coef) for coef in coefficients):
        k = min(range(1, spec.q), key=lambda j: spec.s[j])
        j = max(range(spec.q), key=lambda i: abs(spec.equilibrium[i]))
        sigma = 1.0 / spec.s[k] - 0.5
        cause = (f"smallest relaxation rate s[{k}] = {spec.s[k]:g}" if math.isinf(sigma * sigma)
                 else f"largest equilibrium weight |E[{j}]| = {abs(spec.equilibrium[j]):g}")
        raise ValidationError(f"{what} has a non-finite coefficient ({cause})")


def advection_vector(spec: SchemeSpec) -> np.ndarray:
    """First-order transport velocity c = Sum_j v_j E_j."""
    return np.asarray(spec.equilibrium) @ spec.vset.velocities


def conservation_defaults(spec: SchemeSpec) -> np.ndarray:
    """Theta = M(u) (E o v) - (M(u) E) (x) c, shape (q, d): theta_k^(0) = Theta_k . grad.

    theta_k^(0) is Sum_j M_kj(u) E_j (d_t + v_j . grad) with d_t -> A_0 = -c . grad,
    so row k is g_k - e_k(u) c with e_k(u) = Sum_j M_kj(u) E_j and
    g_k^h = Sum_j M_kj(u) E_j v_j^h.
    """
    m = spec.moment_matrix.m
    ew = np.asarray(spec.equilibrium)
    return m @ (ew[:, None] * spec.vset.velocities) - (m @ ew)[:, None] * advection_vector(spec)


@dataclass(frozen=True)
class EquivalentEquation:
    """Operators [A_0, A_1, A_2] and the tensors they are read off.

    Each operator A_l is a term tuple of (multi_index, coefficient) pairs, the
    constant-coefficient operator Sum_a C_a d^a.  The arrays c, D and T are
    read-only, because derive_equivalent_equation hands one instance to every
    caller that asks for the same scheme and order.
    """

    dim: int
    order: int
    ops: tuple[tuple, ...]
    c: np.ndarray
    D: np.ndarray | None
    T: np.ndarray | None

    def symbol_series(self, k) -> tuple[complex, ...]:
        """Predicted growth-rate coefficients (mu_0 .. mu_{order-1}) at k: each
        operator's symbol, with ik formed once."""
        k = np.asarray(k, dtype=float)
        if k.shape != (self.dim,):
            raise DimensionMismatch(f"wavevector shape {k.shape}, expected ({self.dim},)")
        ik = list(1j * k)
        return tuple(evaluate_terms(op, ik) for op in self.ops)

    def structure_violations(self) -> list[tuple[int, tuple[int, ...]]]:
        """Multi-indices whose derivative order differs from Delta-order + 1."""
        bad = []
        for l, op in enumerate(self.ops):
            for exps, _ in op:
                if sum(exps) != l + 1:
                    bad.append((l, exps))
        return bad

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "operators": [
                {"order": l, "terms": [{"multi_index": list(e), "coefficient": c}
                                       for e, c in op]}
                for l, op in enumerate(self.ops)
            ],
            "tensors": {
                "c": self.c.tolist(),
                "D": None if self.D is None else self.D.tolist(),
                "T": None if self.T is None else self.T.tolist(),
            },
        }

    def pretty(self) -> str:
        """Text form, e.g. '∂t ρ + 0.5 ∂x ρ = Δ·(0.375 ∂xx ρ) + ...'."""
        lhs = ["∂t ρ"]
        for exps, coef in self.ops[0]:
            sign = "+" if coef <= 0 else "-"
            lhs.append(f"{sign} {abs(coef):g} ∂{_derivative_name(exps, self.dim)} ρ")
        rhs = []
        prefix = {1: "Δ·", 2: "Δ²·"}
        for l, op in enumerate(self.ops[1:], start=1):
            if not op:
                continue
            body = ""
            for i, (exps, coef) in enumerate(op):
                term = f"{abs(coef) if i else coef:g} ∂{_derivative_name(exps, self.dim)} ρ"
                body += f" {'-' if coef < 0 else '+'} {term}" if i else term
            rhs.append(f"{prefix[l]}({body})")
        return " ".join(lhs) + " = " + (" + ".join(rhs) if rhs else "0")


def derive_equivalent_equation(spec: SchemeSpec, order: int) -> EquivalentEquation:
    """Build the equivalent equation of `spec` up to the requested Delta order.

    order 1 gives transport only (A_0); order 2 adds the diffusion operator
    A_1 = Sum_b sigma_b d_b theta_b^(0); order 3 adds A_2 assembled from the
    shift-frame sigma-sigma group, the (1/12) fourth-moment group, the (1/6)
    mixed time-space group, and the order-1 correction of the Delta term taken
    at zero shift, Sum_b sigma_b d_b (c_b A_1).

    The result is shared by every caller that asks for the same (spec, order)
    while it stays among the 4 most recent; its c, D and T are read-only.
    """
    if order not in (1, 2, 3):
        raise OrderUnavailable(f"order {order!r} not derivable; choose 1, 2 or 3")
    spec.u_tilde.constant_vector(spec.dim)  # raises for a sine shift: the order-1 path reads no M(u)
    return _derive(spec, order)


@lru_cache(maxsize=None)
def _index_classes(dim: int, rank: int) -> tuple:
    """The multi-indices of degree `rank` in canonical order and, for a flat
    (dim,)*rank tensor: its positions grouped by multi-index (lexicographic within
    a group), the first position of each group, and for each position its group
    and that group's size."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for flat, idx in enumerate(itertools.product(range(dim), repeat=rank)):
        groups.setdefault(tuple(idx.count(a) for a in range(dim)), []).append(flat)
    exps = sorted(groups)  # one degree, so graded lexicographic is lexicographic
    members = [flat for e in exps for flat in groups[e]]
    sizes = [len(groups[e]) for e in exps]
    of = np.empty(dim ** rank, dtype=np.intp)
    of[members] = np.repeat(np.arange(len(exps)), sizes)
    return (tuple(exps), np.array(members), np.cumsum(sizes) - sizes, of,
            np.array(sizes, dtype=float)[of])


def _read_operator(tensor: np.ndarray) -> tuple:
    """The operator Sum over index tuples of tensor[i_1..i_r] d_i1 .. d_ir, as its
    canonical term tuple with exact zeros dropped, and its coefficients as a fully
    symmetric read-only tensor.

    A multi-index's coefficient sums the entries of its index tuples in one fixed
    order; the symmetric tensor spreads it uniformly over them, so summing over its
    indices reproduces the operator.
    """
    exps, members, starts, of, size = _index_classes(tensor.shape[0], tensor.ndim)
    coefs = np.add.reduceat(tensor.reshape(-1)[members], starts) + 0.0  # no -0.0 left
    spread = (coefs[of] / size).reshape(tensor.shape)
    spread.setflags(write=False)
    return tuple((e, v) for e, v in zip(exps, coefs.tolist()) if v != 0.0), spread


def _scaled(factor, x: np.ndarray) -> np.ndarray:
    """factor * x, but 0 wherever x is exactly 0: a sigma that overflowed to inf scales
    only the terms an operator holds and adds no inf * 0."""
    return np.where(x == 0.0, 0.0, factor * x)


def _diffusion(spec: SchemeSpec, sigma: np.ndarray, theta: np.ndarray, what: str) -> tuple:
    """A_1 = Sum_b sigma_b d_b theta_b^(0) as read by _read_operator, for the rates
    sigma_1.. and the conservation defaults Theta; a non-finite coefficient raises
    naming `what`, the result the caller was asked for."""
    d = spec.dim
    a1, D = _read_operator(_scaled(sigma[:d, None], theta[1:d + 1]))
    _require_finite(spec, what, (coef for _, coef in a1))
    return a1, D


@lru_cache(maxsize=4)
def _derive(spec: SchemeSpec, order: int) -> EquivalentEquation:
    """derive_equivalent_equation after validation, once per (spec, order).

    Each A_l is one symmetric tensor contraction, read off as an operator:
    with Theta the (q, d) coefficients of the conservation defaults theta_k^(0)
    (conservation_defaults), A_1 is sigma_b Theta_b, and A_2 is the
    Delta-term correction sigma_b c_b A_1, the (1/6) group -c (x) Theta_b / 6,
    the (1/12) group Sum_j E_j v_j (x) v_j (x) (v_j - c) / 12, less the
    sigma-sigma group sigma_b sigma_l (Sum_j v_j^b M^-1_jl (v_j - c)) (x) Theta_l,
    with b = 1..d and l = 1..q-1.
    """
    d = spec.dim
    vel = spec.vset.velocities

    c = advection_vector(spec)
    c.setflags(write=False)
    a0, _ = _read_operator(-c)
    if order == 1:
        return EquivalentEquation(d, 1, (a0,), c, None, None)

    what = f"order-{order} equivalent equation"
    mm = spec.moment_matrix
    ew = np.asarray(spec.equilibrium)
    sigma = np.array(henon_sigma(spec.s)[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient raises
        theta = conservation_defaults(spec)
        a1, D = _diffusion(spec, sigma, theta, what)
        if order == 2:
            return EquivalentEquation(d, 2, (a0, a1), c, D, None)

        # order-1 correction of the Delta term at zero shift: theta_b^(1) = e_b(0) A_1, and
        # e_b(0) = Sum_j v_j^b E_j = c_b because the basis fixes P_b = X_b for b = 1..d
        correction = _scaled(sigma[:d, None, None], c[:, None, None] * D)
        sixth = theta[1:d + 1, None, :] * (c[None, :, None] / -6.0)
        rel = vel - c  # v_j - c: the transport A_0 + v_j . grad
        twelfth = np.einsum("jb,jg,jh->bgh", ew[:, None] * vel, vel, rel) / 12.0
        # sigma_b sigma_l group, summed over j in order; w[b, l, g] = Sum_j v_j^b M^-1_jl (v_j - c)_g
        w = (vel[:, :, None, None] * mm.m_inv[:, None, 1:, None] * rel[:, None, None, :]).sum(axis=0)
        pairs = _scaled((sigma[:d, None] * sigma)[:, :, None, None],
                        w[:, :, :, None] * theta[None, 1:, None, :]).sum(axis=1)
        a2, T = _read_operator(correction + sixth + twelfth - pairs)
        _require_finite(spec, what, (coef for _, coef in a2))
    return EquivalentEquation(d, 3, (a0, a1, a2), c, D, T)


@dataclass(frozen=True)
class XiPrediction:
    """Slaved-moment predictors: m_k and m_k* as corrections to equilibrium.

    xi[k] is a Delta-series of operators, each a term tuple; the predictions read
      m_k  = e_k rho - Delta (1/2 + sigma_k) xi_k rho + O(Delta^3)
      m_k* = e_k rho + Delta (1/2 - sigma_k) xi_k rho + O(Delta^3)
    with xi_k truncated after its order-(order-2) part.
    """

    dim: int
    order: int
    e: tuple[float, ...]
    sigma: tuple
    xi: tuple[tuple[tuple, ...], ...]

    def pre_collision_factor(self, k: int) -> float:
        return -(0.5 + self.sigma[k])

    def post_collision_factor(self, k: int) -> float:
        return 0.5 - self.sigma[k]


def transition_prediction(spec: SchemeSpec, order: int) -> XiPrediction:
    """Predict the non-conserved moments to O(Delta^order).

    xi_k = theta_k^(0) + Delta (e_k(u) A_1 - psi_k), with d_t already substituted,
    where psi_k = Sum_{j, l>=1} sigma_l M_kj(u) (d_t + v_j . grad) (M^-1(u))_jl theta_l^(0)
    has the rank-2 tensor psi[k, g, h] = Sum_{l>=1} sigma_l w[k, l, g] Theta_{l, h}
    with w[k, l, g] = Sum_j M_kj M^-1_jl (v_j - c)_g; order 2 keeps only theta_k^(0)
    and reads no A_1.  A non-finite coefficient, of A_1 or of xi, raises naming
    this transition prediction, not the equation A_1 also belongs to.
    """
    if order not in (2, 3):
        raise OrderUnavailable(f"order {order!r} not predictable; choose 2 or 3")
    mm = spec.moment_matrix  # first: a sine shift raises here, before a zero rate's sigma does
    q = spec.q
    what = f"order-{order} transition prediction"
    sigma = henon_sigma(spec.s)
    e = (mm.m @ np.asarray(spec.equilibrium)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite coefficient raises
        theta = conservation_defaults(spec)
        parts = [[theta[k]] for k in range(q)]
        if order == 3:
            rates = np.array(sigma[1:])
            _, D = _diffusion(spec, rates, theta, what)
            rel = spec.vset.velocities - advection_vector(spec)  # v_j - c: A_0 + v_j . grad
            w = (mm.m.T[:, :, None, None] * mm.m_inv[:, None, 1:, None]
                 * rel[:, None, None, :]).sum(axis=0)
            psi = _scaled(rates[:, None, None],
                          w[:, :, :, None] * theta[None, 1:, None, :]).sum(axis=1)
            for k in range(q):
                parts[k].append(e[k] * D - psi[k])
        xi = tuple(tuple(_read_operator(t)[0] for t in p) for p in parts)
    # the residuals scale xi_k by 1/2 + sigma_k and 1/2 - sigma_k, at most 1/2 + |sigma_k|
    _require_finite(spec, what, (
        (0.5 + abs(sigma[k])) * coef for k in range(1, q) for op in xi[k] for _, coef in op))
    return XiPrediction(spec.dim, order, tuple(e), sigma, xi)


def momentum_velocity_tensor(spec: SchemeSpec) -> np.ndarray:
    """Lambda^{bg}_l = Sum_j v_j^b v_j^g (M(u)^-1)_jl at the scheme's constant shift u,
    shape (d, d, q); the crosscheck reads it at u = 0."""
    vel = spec.vset.velocities
    return np.einsum("jb,jg,jl->bgl", vel, vel, spec.moment_matrix.m_inv)


def dhumieres_crosscheck(spec: SchemeSpec) -> dict:
    """Recompute A_2 at zero shift through the regrouped tensor form.

    The regrouping splits the per-velocity derivative into time and transport
    parts, collapses the sigma-sigma transport part onto the
    momentum-velocity tensor, and turns the (1/12) group into second
    derivatives of Lambda-contracted conservation defaults.  It is built from
    c, sigma, Theta and Lambda alone and takes only A_2 from the derivation,
    so a fault in A_0 or A_1 does not enter both sides.  The report passes
    when the largest coefficient difference is within CROSSCHECK_RTOL of the
    largest coefficient; a failing report signals an implementation bug or a
    coefficient past float range.  Only an invalid input raises.
    """
    u = spec.u_tilde.constant_vector(spec.dim)
    if any(v != 0.0 for v in u):
        raise ValidationError("crosscheck is defined at zero shift only")
    d = spec.dim
    a2_direct = derive_equivalent_equation(spec, 3).ops[2]
    sigma = henon_sigma(spec.s)[1:]
    # the regrouped form squares each sigma, which the direct form need not do.  Past
    # this check every sigma factor below is finite, and each multiplies a product of
    # the other factors last, so an exactly zero term stays 0 and adds no inf * 0
    _require_finite(spec, "regrouped order-3 operator", (sg * sg for sg in sigma))
    sigma = np.array(sigma)
    sb = sigma[:d]
    c = advection_vector(spec)
    theta = conservation_defaults(spec)
    lam = momentum_velocity_tensor(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        # order-1 theta correction: sigma_b c_b d_b A_1, with A_1 = sigma_g Theta_g
        correction = (sb[:, None] * sb)[:, :, None] * (c[:, None, None] * theta[None, 1:d + 1])
        # time parts of the sigma-sigma and (1/6) groups collapse onto moment b itself
        c_theta = c[None, :, None] * theta[1:d + 1, None, :]  # c_g Theta_{b,h}
        collapsed = (sb * sb - 1.0 / 6.0)[:, None, None] * c_theta
        # transport part of the sigma-sigma group via the Lambda tensor, l = 1..q-1
        pairs = ((sb[:, None] * sigma)[:, None, :, None]
                 * (lam[:, :, 1:, None] * theta[None, None, 1:, :])).sum(axis=2)
        # (1/12) group via Lambda-contracted conservation defaults, l = 0..q-1
        twelfth = np.einsum("bgl,lh->bgh", lam, theta) / 12.0
        regrouped, _ = _read_operator(correction + collapsed - pairs + twelfth)
    _require_finite(spec, "regrouped order-3 operator", (coef for _, coef in regrouped))
    direct, other = dict(a2_direct), dict(regrouped)
    diff = max((abs(direct.get(e, 0.0) - other.get(e, 0.0)) for e in direct.keys() | other.keys()),
               default=0.0)
    scale = max(map(abs, [*direct.values(), *other.values(), 1e-300]))
    rel = diff / scale
    return {
        "max_abs_difference": diff,
        "scale": scale,
        "relative_difference": rel,
        "tolerance": CROSSCHECK_RTOL,
        "pass": bool(rel <= CROSSCHECK_RTOL),
        "direct_terms": len(direct),
        "regrouped_terms": len(other),
    }
