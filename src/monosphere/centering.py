"""Centring a holomorphic sphere by the SL(2,C) moment-map flow.

SL(2,C) acts on coefficient tuples through the degree-k symmetric
power: for g = [[a, b], [c, d]],

    q(z) = sum_j sqrt(binom(k,j)) v_j z^j
 |->  sum_j (c z + d)^(k-j) (a z + b)^j sqrt(binom(k,j)) v_j,

re-expanded in powers of z.  This is substitution by the Mobius map
times the cocycle (c z + d)^k, hence a right action: nesting reverses
the order, act(g1, act(g2, t)) = act(g2 g1, t).  Restricted to SU(2)
it preserves the total norm, so norm minimization happens on the
hyperbolic 3-space SL(2,C)/SU(2).

The moment map of the SU(2) action is

    mu_r = sum_j (2j - k) |v_j|^2,
    mu_c = sum_j sqrt((j+1)(k-j)) (v_j, v_{j+1}),

inner product conjugate linear in the first slot, with magnitude
|mu| = sqrt(mu_r^2 + 2 |mu_c|^2).  A tuple is a critical point of the
norm on its orbit exactly when mu = 0, and that critical point is the
minimum (Kempf-Ness).  The Hermitian direction

    X(p) = [[p0, p1 - i p2], [p1 + i p2, -p0]]

acts on the weighted coordinates as the Hermitian tridiagonal matrix
D(p) = p0 H0 + p1 H1 + p2 H2, with H0 = diag(2j - k), H1 = L + L^T,
H2 = i (L - L^T) and L the subdiagonal sqrt((j+1)(k-j)).  So
F(p) = norm2(exp X(p) . t) = <v, exp(2 D(p)) v> has the exact gradient
2 (mu_r, 2 Re mu_c, 2 Im mu_c) and Hessian 4 Re <H_i v, H_j v> at
p = 0, and the flow takes damped Newton steps on F.  Stability
(v_0 != 0, v_k != 0, tuple full) guarantees a minimum exists and makes
the Hessian positive definite; the minimizing tuple is unique up to
SU(2) x U(k+1), so the spectrum of the Gram matrix Psi = conj(Q)^T Q
is the invariant the tests compare.

The centre of the monopole is the point of hyperbolic 3-space
X = g^-1 (g^-1)* (determinant normalized to 1), in upper-half-space
coordinates X = (1/x3) [[1, x1 + i x2], [x1 - i x2, x3^2 + |x|^2]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterExceeded, NonFiniteResult, NotStable
from .spheres import CoeffTuple, binom_weights, fullness_check

FLOW_TOL = 1e-10
FLOW_MAX_ITER = 10000
# Iterations without a smaller |mu| that mark the rounding floor.
FLOW_STALL = 10
DET_TOL = 1e-12
STAB_TOL = 1e-12


@dataclass(frozen=True)
class Mobius:
    """Element of SL(2,C); determinant 1 within DET_TOL."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1.0)
        if abs(det - 1.0) > DET_TOL * scale * scale:
            raise ValueError(f"determinant {det} is not 1")

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def from_matrix(m) -> "Mobius":
        m = np.asarray(m, dtype=complex)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        s = np.sqrt(det)
        m = m / s
        return Mobius(complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1]))

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def compose(self, other: "Mobius") -> "Mobius":
        """Matrix product self @ other (composition of Mobius maps)."""
        return Mobius.from_matrix(self.matrix() @ other.matrix())

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class MomentValue:
    mu_r: float
    mu_c: complex

    @property
    def magnitude(self) -> float:
        return float(np.sqrt(self.mu_r**2 + 2.0 * abs(self.mu_c) ** 2))


def _rep_matrix(g: Mobius, k: int) -> np.ndarray:
    """P[j, m] = coefficient of z^m in (c z + d)^(k-j) (a z + b)^j.

    The assembled sphere matrix transforms as Q -> Q P.
    """
    P = np.zeros((k + 1, k + 1), dtype=complex)
    down = [np.array([1.0 + 0.0j])]
    up = [np.array([1.0 + 0.0j])]
    for _ in range(k):
        down.append(np.convolve(down[-1], np.array([g.d, g.c])))
        up.append(np.convolve(up[-1], np.array([g.b, g.a])))
    for j in range(k + 1):
        P[j, : k + 1] = np.convolve(down[k - j], up[j])
    return P


def act_sl2(g: Mobius, t: CoeffTuple) -> CoeffTuple:
    """Symmetric-power action on a coefficient tuple (right action)."""
    wts = binom_weights(t.k)
    Q = t.v.T * wts
    Qg = Q @ _rep_matrix(g, t.k)
    return CoeffTuple(t.k, (Qg / wts).T)


def norm2(t: CoeffTuple) -> float:
    """Total squared norm sum_j |v_j|^2."""
    return float(np.sum(np.abs(t.v) ** 2))


def moment_map(t: CoeffTuple) -> MomentValue:
    k = t.k
    weights = 2.0 * np.arange(k + 1) - k
    mu_r = float(np.sum(weights * np.sum(np.abs(t.v) ** 2, axis=1)))
    j = np.arange(k)
    cross = np.sum(np.conj(t.v[:-1]) * t.v[1:], axis=1)
    mu_c = complex(np.sum(np.sqrt((j + 1) * (k - j)) * cross))
    return MomentValue(mu_r, mu_c)


def stability_check(t: CoeffTuple) -> bool:
    """True iff v_0 != 0, v_k != 0 and the tuple is full."""
    scale = np.sqrt(norm2(t))
    if scale == 0.0:
        return False
    if np.linalg.norm(t.v[0]) <= STAB_TOL * scale or np.linalg.norm(t.v[-1]) <= STAB_TOL * scale:
        return False
    return fullness_check(t.v)[1]


def _exp_step(p) -> Mobius:
    """exp X(p) in closed form, det exactly 1."""
    lam = float(np.linalg.norm(p))
    if lam == 0.0:
        return Mobius.identity()
    ch = np.cosh(lam)
    sh = np.sinh(lam) / lam
    off = complex(p[1], p[2])
    return Mobius(complex(ch + sh * p[0]), sh * off.conjugate(), sh * off, complex(ch - sh * p[0]))


def _hessian(t: CoeffTuple) -> np.ndarray:
    """4 Re <H_i v, H_j v>, the Hessian of p -> norm2(exp X(p) . t) at p = 0."""
    k, v = t.k, t.v
    j = np.arange(k)
    sub = np.sqrt((j + 1) * (k - j))[:, None]
    lo = np.zeros_like(v)
    up = np.zeros_like(v)
    lo[1:] = sub * v[:-1]  # L v
    up[:-1] = sub * v[1:]  # L^T v
    hv = np.stack([(2.0 * np.arange(k + 1) - k)[:, None] * v, lo + up, 1j * (lo - up)])
    hv = hv.reshape(3, -1)
    return 4.0 * np.real(np.conj(hv) @ hv.T)


@dataclass(frozen=True)
class FlowResult:
    g: Mobius
    tuple_centred: CoeffTuple
    iterations: int
    trace: tuple  # (iteration, norm2, |mu|) rows


def center_flow(
    t: CoeffTuple,
    tol: float = FLOW_TOL,
    max_iter: int = FLOW_MAX_ITER,
) -> FlowResult:
    """Flow to the zero of the moment map on the SL(2,C) orbit.

    Damped Newton on F(p) = norm2(exp X(p) . t), whose gradient
    2 (mu_r, 2 Re mu_c, 2 Im mu_c) and Hessian (_hessian) are exact:
    each step is p = -Hess^-1 grad, |p| capped, backtracked until
    norm2 satisfies the Armijo condition along p; converged when
    |mu| <= tol * norm2.  Refuses a tuple whose norm2 overflows
    (NonFiniteResult) and unstable tuples (NotStable); raises
    MaxIterExceeded carrying the best iterate when the budget runs out,
    when the line search finds no decrease, or when |mu| has not
    improved for FLOW_STALL iterations (tol below the rounding floor).
    """
    with np.errstate(over="ignore"):
        if not np.isfinite(norm2(t)):
            raise NonFiniteResult("the squared norm of the tuple overflows")
    if not stability_check(t):
        raise NotStable("tuple is not stable (v_0, v_k or fullness fails)")
    g_total = Mobius.identity()
    cur = t
    trace = []
    best = (moment_map(t).magnitude, g_total, t)
    best_it = 0
    for it in range(max_iter):
        mu = moment_map(cur)
        n2 = norm2(cur)
        trace.append((it, n2, mu.magnitude))
        if mu.magnitude < best[0]:
            best = (mu.magnitude, g_total, cur)
            best_it = it
        if mu.magnitude <= tol * n2:
            return FlowResult(g_total, cur, it, tuple(trace))
        grad = 2.0 * np.array([mu.mu_r, 2.0 * mu.mu_c.real, 2.0 * mu.mu_c.imag])
        p = -np.linalg.solve(_hessian(cur), grad)
        lam = np.linalg.norm(p)
        if lam > 5.0:
            # cap so the group displacement |p| stays moderate
            p *= 5.0 / lam
        slope = float(grad @ p)
        alpha = 1.0
        for _ in range(60 if it - best_it < FLOW_STALL else 0):  # at the floor: raise
            g_step = _exp_step(alpha * p)
            trial = act_sl2(g_step, cur)
            if norm2(trial) <= n2 + 0.25 * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise MaxIterExceeded(
                f"line search stalled at iteration {it} (best |mu| {best[0]:.3e}); "
                f"tol {tol:.0e} is below the attainable floor for this tuple",
                best={"g": best[1], "tuple": best[2]},
                trace=tuple(trace),
            )
        cur = trial
        g_total = g_total.compose(g_step)  # right action: total = s0 s1 ... sn
    raise MaxIterExceeded(
        f"no convergence in {max_iter} iterations (best |mu| {best[0]:.3e})",
        best={"g": best[1], "tuple": best[2]},
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point of hyperbolic 3-space as a det-1 positive Hermitian matrix."""

    X: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.X, dtype=complex)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "X", m)

    @property
    def coords(self) -> tuple[float, float, float]:
        """Upper-half-space coordinates (x1, x2, x3), x3 > 0."""
        x3 = 1.0 / float(np.real(self.X[0, 0]))
        x1 = float(np.real(self.X[0, 1])) * x3
        x2 = float(np.imag(self.X[0, 1])) * x3
        return (x1, x2, x3)


def centre_point(g: Mobius) -> HyperbolicPoint:
    """X = g^-1 (g^-1)*, normalized to determinant 1.

    Invariant under g -> u g for u in SU(2), so it is a function of the
    centred representative rather than of the flow path.
    """
    gi = g.inverse().matrix()
    X = gi @ np.conj(gi).T
    det = np.real(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])
    X = X / np.sqrt(det)
    return HyperbolicPoint(X)
