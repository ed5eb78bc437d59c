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
p = 0, and the flow takes Newton steps on F with an exact line search.
The spectrum of each step is known: X(p) = |p| U diag(1, -1) U* with U
in SU(2) in closed form, so in the frame c = R(U) v (R(U) the unitary
action matrix of U) D(p) is |p| diag(2j - k), and the norm along the
whole geodesic exp(s X(p / |p|)) is F(s) = sum_j |c_j|^2 e^(2s(2j-k)),
whose logarithm is convex; a scalar Newton solve finds its minimum.
Stability (v_0 != 0, v_k != 0, tuple full) guarantees a minimum exists
and makes the Hessian positive definite.  Fullness is judged on the
centred tuple: |det v| is an SL(2) invariant, but the singular-value
ratio is not, and a stable tuple moved far along its orbit reads as
nearly singular.  The minimizing tuple is unique up to SU(2) x U(k+1),
so the spectrum of its Gram matrix conj(v) v^T is the invariant the
tests compare.

The centre of the monopole is the point of hyperbolic 3-space
X = g^-1 (g^-1)* (determinant normalized to 1), in upper-half-space
coordinates X = (1/x3) [[1, x1 + i x2], [x1 - i x2, x3^2 + |x|^2]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MaxIterExceeded, NonFiniteResult, NotStable
from .projective import frozen, vander
from .spheres import CoeffTuple, binom_weights, fullness_check

FLOW_TOL = 1e-10
FLOW_MAX_ITER = 10000
# Iterations without a smaller |mu| that mark the rounding floor.
FLOW_STALL = 10
DET_TOL = 1e-12
STAB_TOL = 1e-12
# Relative step of the line search's Newton iteration at which it stops.
LINE_TOL = 1e-6
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Mobius:
    """Element of SL(2,C): finite entries, determinant 1 within DET_TOL."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d), 1.0)
        # a NaN entry makes det NaN, which fails the comparison
        if not (math.isfinite(scale) and abs(det - 1.0) <= DET_TOL * scale * scale):
            raise ValueError(f"determinant {det} is not 1")

    @staticmethod
    def from_matrix(m) -> "Mobius":
        """m scaled to determinant 1; refused if singular or not finite."""
        m = np.asarray(m, dtype=complex)
        with np.errstate(all="ignore"):
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if not (np.all(np.isfinite(m)) and np.isfinite(det) and det != 0.0):
            raise ValueError(f"determinant {det} cannot be scaled to 1")
        m = m / np.sqrt(det)
        return Mobius(complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1]))

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class MomentValue:
    mu_r: float
    mu_c: complex

    @property
    def magnitude(self) -> float:
        return math.hypot(self.mu_r, math.sqrt(2.0) * abs(self.mu_c))


@lru_cache(maxsize=None)
def _pascal(k: int) -> tuple[np.ndarray, np.ndarray]:
    """binom(n, r) for 0 <= n, r <= k, and the exponents max(n - r, 0)."""
    B = [[math.comb(n, r) for r in range(k + 1)] for n in range(k + 1)]
    n = np.arange(k + 1)
    e = np.maximum(n[:, None] - n[None, :], 0)
    return frozen(B, float, (k + 1, k + 1), "binomials"), frozen(e, int, (k + 1, k + 1), "exponents")


def _rep_matrix(g: Mobius, k: int) -> np.ndarray:
    """P[j, m] = coefficient of z^m in (c z + d)^(k-j) (a z + b)^j.

    Row j is the product of the rows binom(j, t) a^t b^(j-t) and
    binom(k-j, r) c^r d^(k-j-r); all k + 1 products are taken at once
    as sums over a sliding window of the second.  The assembled sphere
    matrix transforms as Q -> Q P.
    """
    B, e = _pascal(k)
    up = B * vander(g.a, k) * vander(g.b, k)[e]
    down = np.zeros((k + 1, 2 * k + 1), dtype=complex)
    down[:, k:] = B[::-1] * vander(g.c, k) * vander(g.d, k)[e[::-1]]
    # window[j, m, i] = down[j, m + i], a strided view of down (built
    # directly: sliding_window_view leaves cyclic garbage on every call)
    window = np.ndarray((k + 1,) * 3, complex, down, 0, down.strides + down.strides[1:])
    return (window @ up[:, ::-1, None])[..., 0]


def _tuple_matrix(g: Mobius, k: int) -> np.ndarray:
    """M with act_sl2(g, t).v = M @ t.v; unitary when g is in SU(2)."""
    w = binom_weights(k)
    return _rep_matrix(g, k).T * w / w[:, None]


def act_sl2(g: Mobius, t: CoeffTuple) -> CoeffTuple:
    """Symmetric-power action on a coefficient tuple (right action)."""
    return CoeffTuple(t.k, _tuple_matrix(g, t.k) @ t.v)


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


def _ends_nonzero(v: np.ndarray) -> bool:
    """v_0 and v_k above STAB_TOL times the norm of the tuple v."""
    scale = np.linalg.norm(v)
    ends = min(np.linalg.norm(v[0]), np.linalg.norm(v[-1]))
    return bool(scale > 0.0 and ends > STAB_TOL * scale)


def _frame(n) -> Mobius:
    """U in SU(2) with X(n) = U diag(1, -1) U* for a unit vector n.

    Its first column is the unit eigenvector of X(n) for 1, taken from
    whichever of (1 + n0, z) and (conj z, 1 - n0), z = n1 + i n2, is
    the longer, so no cancellation occurs.
    """
    z = complex(n[1], n[2])
    if n[0] >= 0.0:
        h = math.sqrt((1.0 + n[0]) / 2.0)
        alpha, beta = complex(h), z / (2.0 * h)
    else:
        h = math.sqrt((1.0 - n[0]) / 2.0)
        alpha, beta = z.conjugate() / (2.0 * h), complex(h)
    return Mobius(alpha, -beta.conjugate(), beta, alpha.conjugate())


@lru_cache(maxsize=None)
def _generators(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weights 2j - k of H0; the stack (I, H0, H1, H2); and the rows
    (1, 2 (2j - k), 4 (2j - k)^2) that sum log F and its derivatives."""
    lam = 2.0 * np.arange(k + 1) - k
    j = np.arange(k)
    L = np.diag(np.sqrt((j + 1) * (k - j)), -1)
    H = np.stack([np.eye(k + 1), np.diag(lam), L + L.T, 1j * (L - L.T)])
    rows = np.stack([np.ones(k + 1), 2.0 * lam, 4.0 * lam * lam])
    return (
        frozen(lam, float, (k + 1,), "weights"),
        frozen(H, complex, (4, k + 1, k + 1), "generators"),
        frozen(rows, float, (3, k + 1), "rows"),
    )


def _jets(v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """norm2, gradient and Hessian of p -> norm2(exp X(p) . t) at p = 0.

    All three come from one Gram matrix of the stack (v, H0 v, H1 v,
    H2 v): norm2 = <v, v>, the gradient 2 Re <v, H_i v> =
    2 (mu_r, 2 Re mu_c, 2 Im mu_c) and the Hessian 4 Re <H_i v, H_j v>.
    """
    hv = (_generators(len(v) - 1)[1] @ v).reshape(4, -1)
    gram = np.conj(hv) @ hv.T
    return float(gram[0, 0].real), 2.0 * gram[0, 1:].real, 4.0 * gram[1:, 1:].real


def _magnitude(grad: np.ndarray) -> float:
    """|mu| = sqrt(mu_r^2 + 2 |mu_c|^2) from the gradient 2 (mu_r, 2 Re mu_c, 2 Im mu_c)."""
    return math.sqrt(grad[0] ** 2 / 4.0 + (grad[1] ** 2 + grad[2] ** 2) / 8.0)


def _line_search(w: np.ndarray, s: float) -> float:
    """The minimiser over s >= 0 of F(s) = sum_j w_j e^(2 s (2j - k)).

    F is the squared norm along a step whose frame weights are w; its
    slope at 0 is negative and w_k > 0.  Since F(s) >= w_k e^(2 s k)
    and F(s*) <= F(0), the minimiser lies in [0, log(F(0) / w_k) / 2k].
    Newton on the convex log F from s, with bisection whenever a step
    leaves the bracket, until a step moves s by at most LINE_TOL
    relative (or by rounding).
    """
    k = len(w) - 1
    rows = _generators(k)[2]
    lo, hi = 0.0, (math.log(w.sum()) - math.log(w[-1])) / (2.0 * k)
    s = min(s, hi)
    logw = np.log(np.maximum(w, np.finfo(float).tiny))
    while True:
        x = logw + s * rows[1]
        f0, f1, f2 = rows @ np.exp(x - x.max())
        d1 = f1 / f0  # (log F)'
        if d1 < 0.0:
            lo = s
        elif d1 > 0.0:
            hi = s
        else:
            return s
        d2 = f2 / f0 - d1 * d1  # (log F)''
        nxt = s - d1 / d2 if d2 > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= LINE_TOL * nxt + EPS:
            return nxt
        s = nxt


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

    Newton on F(p) = norm2(exp X(p) . t), whose gradient and Hessian
    (_jets) are exact, with an exact line search: the Newton direction
    p = -Hess^-1 grad has the SU(2) frame U (_frame) in which D(p) is
    |p| diag(2j - k), so one product c = R(U) v gives the norm along
    the whole geodesic, F(s) = sum_j |c_j|^2 e^(2 s (2j - k)), and the
    step goes to its minimiser (_line_search); converged when
    |mu| <= tol * norm2.  Refuses a tuple whose norm2 overflows
    (NonFiniteResult); raises NotStable when v_0 or v_k vanishes or the
    tuple is singular to rounding (singular-value ratio at most
    (k + 1) eps), when F has no minimiser (an end weight of a frame is
    0) or the Hessian is singular or not finite, and when the centred
    tuple is not full (fullness_check);
    raises MaxIterExceeded carrying the best iterate when the budget
    runs out or when |mu| has not improved for FLOW_STALL iterations
    (tol below the rounding floor).
    """
    with np.errstate(over="ignore"):
        if not np.isfinite(norm2(t)):
            raise NonFiniteResult("the squared norm of the tuple overflows")
    k = t.k
    # The flow is scale-invariant; run it on t / m, whose largest entry is 1.
    m = float(np.max(np.abs(t.v)))
    v = t.v / m if m > 0.0 else t.v
    if not _ends_nonzero(v):
        raise NotStable("tuple is not stable (v_0 or v_k vanishes)")
    ratio, full = fullness_check(v)
    if not ratio > (k + 1) * EPS:
        raise NotStable(f"tuple is singular to rounding (sv ratio {ratio:.2e})")
    lam = _generators(k)[0]
    g_total = np.eye(2, dtype=complex)
    n2, grad, hess = _jets(v)
    mu = _magnitude(grad)
    best, best_it = (mu, g_total, v), 0
    trace = []
    for it in range(max_iter):
        trace.append((it, m * m * n2, m * m * mu))
        if mu < best[0]:
            best, best_it = (mu, g_total, v), it
        if mu <= tol * n2:
            ratio, full = fullness_check(v) if it else (ratio, full)  # at it = 0, v is the entry tuple
            if not full:
                raise NotStable(f"centred tuple is not full (sv ratio {ratio:.2e})")
            return FlowResult(Mobius.from_matrix(g_total), CoeffTuple(k, m * v), it, tuple(trace))
        if it - best_it >= FLOW_STALL:
            reason = (
                f"|mu| has not decreased for {FLOW_STALL} iterations by iteration {it}; "
                f"tol {tol:.0e} is below the attainable floor for this tuple"
            )
            break
        try:
            p = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NotStable(f"the Hessian is singular at iteration {it}") from None
        size = float(np.linalg.norm(p))
        if not math.isfinite(size):
            raise NotStable(f"the Hessian is singular or not finite at iteration {it}")
        U = _frame(p / size)
        M = _tuple_matrix(U, k)
        c = M @ v
        w = np.vecdot(c, c).real
        if not (w[0] > 0.0 and w[-1] > 0.0):
            raise NotStable(f"an end weight of the step is 0 at iteration {it}: the tuple is not full")
        s = _line_search(w, size)
        v = np.conj(M).T @ (np.exp(s * lam)[:, None] * c)
        # the step exp(s X(p / |p|)) = U diag(e^s, e^-s) U*; right action: total = s0 s1 ... sn
        u = U.matrix()
        g_total = g_total @ (u * np.exp([s, -s])) @ np.conj(u).T
        n2, grad, hess = _jets(v)
        mu = _magnitude(grad)
    else:
        reason = f"no convergence in {max_iter} iterations"
    raise MaxIterExceeded(
        f"{reason} (best |mu| {m * m * best[0]:.3e})",
        best={"g": Mobius.from_matrix(best[1]), "tuple": t if best_it == 0 else CoeffTuple(k, m * best[2])},
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point of hyperbolic 3-space as a det-1 positive Hermitian matrix."""

    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", frozen(self.X, complex, (2, 2), "X"))

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
