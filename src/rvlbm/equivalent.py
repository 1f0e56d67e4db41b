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
derivation does the same work at every constant shift.  The module also
predicts the slaved non-conserved moments (xi_k) for the transition-residual
experiments, and cross-checks A_2 against the zero-shift regrouped form based
on the momentum-velocity tensor.

DifferentialOperator subclasses lattice.MomentPolynomial, read with X_b = d_b,
and adds the operator algebra; a Fourier symbol is that polynomial at ik.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import (
    DimensionMismatch,
    MismatchBeyondTolerance,
    NonConstantShift,
    OrderUnavailable,
    ValidationError,
)
from .lattice import MomentPolynomial
from .scheme import SchemeSpec

CROSSCHECK_RTOL = 1e-10


def _derivative_name(exps, dim: int) -> str:
    """Axis letters of the derivative d^exps, e.g. 'xyy' for (1, 2)."""
    return "".join(("xyz"[a] if dim <= 3 else f"x{a + 1}") * e for a, e in enumerate(exps))


class DifferentialOperator(MomentPolynomial):
    """Constant-coefficient operator Sum_a C_a d^a, sparse over multi-indices a.

    It is the moment polynomial Sum_a C_a X^a read with X_b = d_b, so it shares
    that type's canonical form and evaluation and adds only the operator
    algebra.  Composition is commutative (all coefficients are constants) and
    `symbol` evaluates the Fourier symbol Sum_a C_a prod_b (i k_b)^{a_b}.
    """

    @classmethod
    def zero(cls, dim: int) -> "DifferentialOperator":
        return cls(dim, ())

    @classmethod
    def partial(cls, dim: int, axis: int) -> "DifferentialOperator":
        return cls.coordinate(dim, axis)

    @classmethod
    def gradient_dot(cls, dim: int, vector) -> "DifferentialOperator":
        """The transport operator v . grad for a constant vector v."""
        unit = [tuple(1 if b == a else 0 for b in range(dim)) for a in range(dim)]
        return cls(dim, tuple((unit[a], float(v)) for a, v in enumerate(vector)))

    def coefficient(self, exps) -> float:
        return dict(self.terms).get(tuple(int(e) for e in exps), 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for _, c in self.terms), default=0.0)

    def __add__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        if self.dim != other.dim:
            raise DimensionMismatch("operator dimensions differ")
        return DifferentialOperator(self.dim, self.terms + other.terms)

    def __sub__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        return self + (-other)

    def __neg__(self) -> "DifferentialOperator":
        return DifferentialOperator(self.dim, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, scalar) -> "DifferentialOperator":
        return DifferentialOperator(
            self.dim, tuple((e, c * float(scalar)) for e, c in self.terms)
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "DifferentialOperator") -> "DifferentialOperator":
        """Composition; exponents add since all coefficients are constant."""
        if self.dim != other.dim:
            raise DimensionMismatch("operator dimensions differ")
        out: dict[tuple[int, ...], float] = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return DifferentialOperator(self.dim, tuple(out.items()))

    def symbol(self, k) -> complex:
        k = np.asarray(k, dtype=float)
        if k.shape != (self.dim,):
            raise DimensionMismatch(f"wavevector shape {k.shape}, expected ({self.dim},)")
        return self.evaluate(1j * k)

    def __str__(self) -> str:
        parts = []
        for exps, coef in self.terms:
            d = _derivative_name(exps, self.dim)
            parts.append(f"{coef:g} ∂{d}" if d else f"{coef:g}")
        return " + ".join(parts) if parts else "0"


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
    """Raise ValidationError naming the smallest rate when a coefficient is not
    finite: a rate near 0 makes sigma = 1/s - 1/2 so large that products overflow."""
    if not all(math.isfinite(coef) for coef in coefficients):
        k = min(range(1, spec.q), key=lambda j: spec.s[j])
        raise ValidationError(f"{what} has a non-finite coefficient "
                              f"(smallest relaxation rate s[{k}] = {spec.s[k]:g})")


def advection_vector(spec: SchemeSpec) -> np.ndarray:
    """First-order transport velocity c = Sum_j v_j E_j."""
    return np.asarray(spec.equilibrium) @ spec.vset.velocities


def conservation_defaults(spec: SchemeSpec, a0) -> tuple:
    """theta_k^(0) = Sum_j M_kj(u) E_j (d_t + v_j . grad) with d_t -> a0, one per moment k.

    Entry k collects e_k(u) a0 + Sum_b g_k^b d_b with e_k(u) = Sum_j M_kj(u) E_j
    and g_k^b = Sum_j M_kj(u) E_j v_j^b.
    """
    d = spec.dim
    mm = spec.moment_matrix
    ew = np.asarray(spec.equilibrium)
    vel = spec.vset.velocities
    # Python floats scale an operator without a detour through numpy's object arithmetic
    e = (mm.m @ ew).tolist()
    g = (mm.m @ (ew[:, None] * vel)).tolist()  # g[k][b]
    partials = [DifferentialOperator.partial(d, b) for b in range(d)]
    return tuple(_sum(d, [e[k] * a0] + [g[k][b] * partials[b] for b in range(d)])
                 for k in range(spec.q))


def _sum(dim: int, ops) -> DifferentialOperator:
    """Sum of the operators, canonicalized once: the additions of a chain of +, in its order."""
    return DifferentialOperator(dim, tuple(term for op in ops for term in op.terms))


def _transport_sum(weights, transports) -> DifferentialOperator:
    """Sum_j w_j (A_0 + v_j . grad) over the velocities, skipping exact-zero weights;
    transports[j] is A_0 + v_j . grad, built once per derivation."""
    return _sum(transports[0].dim,
                (w * t for w, t in zip(weights.tolist(), transports) if w != 0.0))


@dataclass(frozen=True)
class EquivalentEquation:
    """Operators [A_0, A_1, A_2] and the tensors read off them.

    The arrays c, D and T are read-only, because derive_equivalent_equation hands
    one instance to every caller that asks for the same scheme and order.
    """

    dim: int
    order: int
    ops: tuple[DifferentialOperator, ...]
    c: np.ndarray
    D: np.ndarray | None
    T: np.ndarray | None

    def symbol_series(self, k) -> tuple[complex, ...]:
        """Predicted growth-rate coefficients (mu_0 .. mu_{order-1}) at k."""
        return tuple(op.symbol(k) for op in self.ops)

    def structure_violations(self) -> list[tuple[int, tuple[int, ...]]]:
        """Multi-indices whose derivative order differs from Delta-order + 1."""
        bad = []
        for l, op in enumerate(self.ops):
            for exps, _ in op.terms:
                if sum(exps) != l + 1:
                    bad.append((l, exps))
        return bad

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "operators": [
                {"order": l, "terms": [{"multi_index": list(e), "coefficient": c}
                                       for e, c in op.terms]}
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
        for exps, coef in self.ops[0].terms:
            sign = "+" if coef <= 0 else "-"
            lhs.append(f"{sign} {abs(coef):g} ∂{_derivative_name(exps, self.dim)} ρ")
        rhs = []
        prefix = {1: "Δ·", 2: "Δ²·"}
        for l, op in enumerate(self.ops[1:], start=1):
            if op.is_zero():
                continue
            body = ""
            for i, (exps, coef) in enumerate(op.terms):
                term = f"{abs(coef) if i else coef:g} ∂{_derivative_name(exps, self.dim)} ρ"
                body += f" {'-' if coef < 0 else '+'} {term}" if i else term
            rhs.append(f"{prefix[l]}({body})")
        return " ".join(lhs) + " = " + (" + ".join(rhs) if rhs else "0")


def _symmetric_tensor(op: DifferentialOperator, rank: int, dim: int) -> np.ndarray:
    """Coefficients of op as a fully symmetric rank-`rank` tensor.

    A multi-index a is spread uniformly over its rank!/a! index permutations,
    so Sum over tensor indices reproduces the operator exactly.
    """
    out = np.zeros((dim,) * rank)
    for exps, coef in op.terms:
        axes = []
        for a, e in enumerate(exps):
            axes.extend([a] * e)
        if len(axes) != rank:
            continue
        spread = set(permutations(axes))
        for idx in spread:
            out[idx] = coef / len(spread)
    return out


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
    if not spec.u_tilde.is_constant:
        raise NonConstantShift("equivalent equation requires a constant shift")
    return _derive(spec, order)


@lru_cache(maxsize=4)
def _derive(spec: SchemeSpec, order: int) -> EquivalentEquation:
    """derive_equivalent_equation after validation, once per (spec, order)."""
    d = spec.dim
    q = spec.q
    vel = spec.vset.velocities

    c = advection_vector(spec)
    c.setflags(write=False)
    a0 = DifferentialOperator.gradient_dot(d, -c)
    if order == 1:
        return EquivalentEquation(d, 1, (a0,), c, None, None)

    sigma = henon_sigma(spec.s)
    partials = [DifferentialOperator.partial(d, b) for b in range(d)]
    theta0 = conservation_defaults(spec, a0)
    a1 = _sum(d, (sigma[b] * (partials[b - 1] @ theta0[b]) for b in range(1, d + 1)))
    _require_finite(spec, f"order-{order} equivalent equation", (coef for _, coef in a1.terms))
    D = _symmetric_tensor(a1, 2, d)
    D.setflags(write=False)
    if order == 2:
        return EquivalentEquation(d, 2, (a0, a1), c, D, None)

    # order-1 correction of the Delta term at zero shift: theta_b^(1) = e_b(0) A_1, and
    # e_b(0) = Sum_j v_j^b E_j = c_b because the basis fixes P_b = X_b for b = 1..d
    delta_corr = _sum(d, (sigma[b] * (partials[b - 1] @ (cb * a1))
                          for b, cb in enumerate(c.tolist(), 1)))
    m_inv = spec.moment_matrix.m_inv
    transports = [a0 + DifferentialOperator.gradient_dot(d, v) for v in vel]

    # sigma_b sigma_l group, built from M(u)^-1 without simplification
    sigma_terms = []
    for b in range(1, d + 1):
        for l in range(1, q):
            inner = _transport_sum(vel[:, b - 1] * m_inv[:, l], transports)
            sigma_terms.append((sigma[b] * sigma[l]) * (partials[b - 1] @ inner @ theta0[l]))
    sigma_group = _sum(d, sigma_terms)

    # (1/12) group: fourth moments of the per-velocity derivative
    second = [[pb @ pg for pg in partials] for pb in partials]
    weighted = [w * t for w, t in zip(spec.equilibrium, transports)]  # E_j (A_0 + v_j . grad)
    v = vel.tolist()
    twelfth = _sum(d, (
        (v[j][b] * v[j][g] / 12.0) * (second[b][g] @ weighted[j])
        for j in range(q) for b in range(d) for g in range(d) if v[j][b] * v[j][g] != 0.0
    ))

    # (1/6) mixed time-space group
    sixth = _sum(d, ((1.0 / 6.0) * (partials[b - 1] @ a0 @ theta0[b]) for b in range(1, d + 1)))

    a2 = delta_corr + (sixth + twelfth - sigma_group)
    _require_finite(spec, "order-3 equivalent equation", (coef for _, coef in a2.terms))

    T = _symmetric_tensor(a2, 3, d)
    T.setflags(write=False)
    return EquivalentEquation(d, 3, (a0, a1, a2), c, D, T)


@dataclass(frozen=True)
class XiPrediction:
    """Slaved-moment predictors: m_k and m_k* as corrections to equilibrium.

    xi[k] is a Delta-series of operators; the predictions read
      m_k  = e_k rho - Delta (1/2 + sigma_k) xi_k rho + O(Delta^3)
      m_k* = e_k rho + Delta (1/2 - sigma_k) xi_k rho + O(Delta^3)
    with xi_k truncated after its order-(order-2) part.
    """

    dim: int
    order: int
    e: tuple[float, ...]
    sigma: tuple
    xi: tuple[tuple[DifferentialOperator, ...], ...]

    def pre_collision_factor(self, k: int) -> float:
        return -(0.5 + self.sigma[k])

    def post_collision_factor(self, k: int) -> float:
        return 0.5 - self.sigma[k]


def transition_prediction(spec: SchemeSpec, order: int) -> XiPrediction:
    """Predict the non-conserved moments to O(Delta^order).

    xi_k = theta_k^(0) + Delta (e_k(u) A_1 - Sum_{j, l>=1} sigma_l M_kj(u)
    (d_t + v_j . grad) (M^-1(u))_jl theta_l^(0)), with d_t already substituted;
    order 2 keeps only theta_k^(0).
    """
    if order not in (2, 3):
        raise OrderUnavailable(f"order {order!r} not predictable; choose 2 or 3")
    if not spec.u_tilde.is_constant:
        raise NonConstantShift("transition prediction requires a constant shift")
    d = spec.dim
    q = spec.q
    eq = derive_equivalent_equation(spec, 2)  # only A_0 and A_1 are read
    a0 = eq.ops[0]
    sigma = henon_sigma(spec.s)
    mm = spec.moment_matrix
    e = (mm.m @ np.asarray(spec.equilibrium)).tolist()
    vel = spec.vset.velocities

    theta = conservation_defaults(spec, a0)
    if order == 2:
        xi = tuple((theta[k],) for k in range(q))
    else:
        transports = [a0 + DifferentialOperator.gradient_dot(d, v) for v in vel]
        xi = []
        for k in range(q):
            psi = _sum(d, (sigma[l] * (_transport_sum(mm.m[k] * mm.m_inv[:, l], transports)
                                       @ theta[l]) for l in range(1, q)))
            xi.append((theta[k], e[k] * eq.ops[1] - psi))
    # the residuals scale xi_k by 1/2 + sigma_k and 1/2 - sigma_k, at most 1/2 + |sigma_k|
    _require_finite(spec, f"order-{order} transition prediction", (
        (0.5 + abs(sigma[k])) * coef for k in range(1, q) for op in xi[k] for _, coef in op.terms))
    return XiPrediction(d, order, tuple(e), sigma, tuple(xi))


def momentum_velocity_tensor(spec: SchemeSpec) -> np.ndarray:
    """Lambda^{bg}_l = Sum_j v_j^b v_j^g (M(u)^-1)_jl at the scheme's constant shift u,
    shape (d, d, q); the crosscheck reads it at u = 0."""
    vel = spec.vset.velocities
    return np.einsum("jb,jg,jl->bgl", vel, vel, spec.moment_matrix.m_inv)


def dhumieres_crosscheck(spec: SchemeSpec, rtol: float = CROSSCHECK_RTOL) -> dict:
    """Recompute A_2 at zero shift through the regrouped tensor form.

    The regrouping splits the per-velocity derivative into time and transport
    parts, collapses the sigma-sigma transport part onto the
    momentum-velocity tensor, and turns the (1/12) group into second
    derivatives of Lambda-contracted conservation defaults.  Any disagreement
    with the direct derivation beyond `rtol` (relative to the largest
    coefficient) signals an implementation bug.
    """
    u = spec.u_tilde.constant_vector(spec.dim)
    if any(v != 0.0 for v in u):
        raise ValidationError("crosscheck is defined at zero shift only")
    d = spec.dim
    q = spec.q
    eq = derive_equivalent_equation(spec, 3)
    a0, a1, a2_direct = eq.ops
    sigma = henon_sigma(spec.s)
    theta0 = conservation_defaults(spec, a0)
    lam = momentum_velocity_tensor(spec)
    c = eq.c

    # the regrouped form squares each sigma, which the direct form need not do
    _require_finite(spec, "regrouped order-3 operator", (sg * sg for sg in sigma[1:]))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        regrouped = DifferentialOperator.zero(d)
        for b in range(1, d + 1):
            pb = DifferentialOperator.partial(d, b - 1)
            # order-1 theta correction: sigma_b c^b d_b A_1
            regrouped = regrouped + (sigma[b] * c[b - 1]) * (pb @ a1)
            # time part of the sigma-sigma group collapses onto moment b itself
            regrouped = regrouped - sigma[b] ** 2 * (pb @ a0 @ theta0[b])
            # (1/6) mixed group
            regrouped = regrouped + (1.0 / 6.0) * (pb @ a0 @ theta0[b])
        for b in range(d):
            for g in range(d):
                pbg = DifferentialOperator.partial(d, b) @ DifferentialOperator.partial(d, g)
                # transport part of the sigma-sigma group via the Lambda tensor
                for l in range(1, q):
                    if lam[b, g, l] == 0.0:
                        continue
                    regrouped = regrouped - (sigma[b + 1] * sigma[l] * lam[b, g, l]) * (
                        pbg @ theta0[l]
                    )
                # (1/12) group via Lambda-contracted conservation defaults
                contracted = DifferentialOperator.zero(d)
                for l in range(q):
                    if lam[b, g, l] != 0.0:
                        contracted = contracted + lam[b, g, l] * theta0[l]
                regrouped = regrouped + (1.0 / 12.0) * (pbg @ contracted)
    _require_finite(spec, "regrouped order-3 operator", (coef for _, coef in regrouped.terms))
    diff = a2_direct - regrouped
    scale = max(a2_direct.max_abs_coefficient(), regrouped.max_abs_coefficient(), 1e-300)
    rel = diff.max_abs_coefficient() / scale
    report = {
        "max_abs_difference": diff.max_abs_coefficient(),
        "scale": scale,
        "relative_difference": rel,
        "tolerance": rtol,
        "pass": bool(rel <= rtol),
        "direct_terms": len(a2_direct.terms),
        "regrouped_terms": len(regrouped.terms),
    }
    if not report["pass"]:
        raise MismatchBeyondTolerance(
            f"regrouped A_2 deviates from the direct derivation by {rel:.3e} "
            f"(tolerance {rtol:.1e})"
        )
    return report
