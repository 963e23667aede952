"""Discrete-input AWGN mutual information via 2-D Gauss-Hermite quadrature.

The per-block mutual information of a 2^M-point constellation is

    I(rho) = M - 2^-M sum_x E_Z[ log2 sum_x' exp(-|sqrt(rho)(x-x') + Z|^2 + |Z|^2) ]

with Z complex Gaussian, unit variance.  The expectation is a 2-D integral
with weight e^(-|z|^2)/pi over (Re z, Im z), evaluated by a tensor product
of one-dimensional Gauss-Hermite rules.  Both batch evaluators reassociate
that one rule per dimension:

* square QAM is a product of two real grids, so the inner sum over x' is a
  product of two real sums (side^2 order exponentials per rho);
* any other point set (PSK) still has an exponent that is a sum of a real-
  and an imaginary-part term, so for each x the inner sums at all order^2
  nodes are one matrix product over x' of two per-dimension exponential
  tables: 2 K^2 order exponentials, K^2 order^2 multiply-adds and K order^2
  logs per rho, against K^2 order^2 exponentials for the plain tensor sum.
  The tensor rule of a mirror-symmetric 1-D rule is invariant under the
  eight symmetries of the square (swapping the real and imaginary parts,
  negating either), so every x of an orbit of those symmetries that map the
  point set onto itself has the same term: only one x per orbit is
  evaluated, weighted by the orbit size (PSK8 2 of 8 points, PSK4 and
  PSK2 1).

The per-dimension max-shifts keep every generic inner sum above
e^-(t_i^2 + t_j^2), so it can underflow only at tail nodes of orders above
~190; such nodes are dropped when their weight is negligible and raise
ArithmeticError otherwise, so no order returns NaN or inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import Constellation

__all__ = [
    "Snr",
    "QuadratureRule",
    "hermite_rule",
    "DEFAULT_ORDER",
    "mi_discrete",
    "mi_discrete_array",
]

# Smallest order for which doubling it moves the MI of every supported
# constellation by < 1e-6 over rho <= 1e3 (measured; 32 gives only ~4e-6).
DEFAULT_ORDER = 96

_LN2 = math.log(2.0)

# Batch limits of mi_discrete_array: at most _BATCH_RHOS SNRs, and about
# _BATCH_ELEMS elements in the largest temporary, so a batch stays in cache.
_BATCH_RHOS = 128
_BATCH_ELEMS = 2**16

# Largest 2-D tensor weight allowed on a node whose factorized inner sum
# underflowed (_mi_batch_generic).  Golub-Welsch weights do not fall to
# e^-(t^2) in the tails but stop near 1e-60 (eigenvector round-off), so such
# nodes carry up to ~1e-115 at order 256 and ~4e-70 at order 400.  Counting
# log S = 0 there moves the node's term by at most its weight times
# t_i^2 + t_j^2 < 4 order + 2, far below double precision for any usable order.
_MASKED_WEIGHT_LIMIT = 1e-30

# Relative tolerance within which a point set or a 1-D rule counts as
# symmetric.  Golub-Welsch nodes and weights are mirror-symmetric to ~3e-14
# of their largest value up to order 400, and the built-in PSK points to an
# ulp, so each orbit's terms agree to rounding.
_SYMMETRY_TOL = 1e-13

# The symmetries of the square acting on row vectors (Re x, Im x): either
# sign on each part, with or without swapping the parts.
_SQUARE_MAPS = np.array(
    [[[a, 0], [0, b]] for a in (1, -1) for b in (1, -1)] + [[[0, a], [b, 0]] for a in (1, -1) for b in (1, -1)],
    dtype=float,
)


@dataclass(frozen=True)
class Snr:
    """Average signal-to-noise ratio as a linear power ratio."""

    rho: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"SNR must be a nonnegative finite ratio, got {self.rho}")

    @classmethod
    def from_db(cls, db: float) -> "Snr":
        try:
            return cls(10.0 ** (db / 10.0))
        except OverflowError:
            raise OverflowError(f"an SNR of {db} dB overflows a float") from None

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.rho)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes/weights of a given order (one real dimension)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.order < 1 or self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes/weights must both have length `order`")
        if abs(self.weights.sum() - math.sqrt(math.pi)) > 1e-12:
            raise ValueError("Gauss-Hermite weights must sum to sqrt(pi)")

    @classmethod
    def gauss_hermite(cls, order: int = DEFAULT_ORDER) -> "QuadratureRule":
        """Build the rule by Golub-Welsch: eigen-decompose the Hermite Jacobi matrix.

        Nodes are the eigenvalues; weight i is sqrt(pi) times the squared
        first component of eigenvector i.  Works for any order without
        tabulated coefficients.
        """
        if order < 1:
            raise ValueError(f"quadrature order must be >= 1, got {order}")
        jac = np.zeros((order, order))
        off = np.sqrt(np.arange(1, order) / 2.0)
        idx = np.arange(order - 1)
        jac[idx, idx + 1] = off
        jac[idx + 1, idx] = off
        vals, vecs = np.linalg.eigh(jac)
        weights = math.sqrt(math.pi) * vecs[0] ** 2
        return cls(order, vals, weights)


@lru_cache(maxsize=16)
def hermite_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Cached Gauss-Hermite rule (the 2-D tensor rule has order^2 nodes)."""
    return QuadratureRule.gauss_hermite(order)


def _mirror_symmetric(rule: QuadratureRule) -> bool:
    """Whether the nodes are symmetric about 0 with equal weights at t and -t."""
    idx = np.argsort(rule.nodes)
    t, w = rule.nodes[idx], rule.weights[idx]
    return bool(
        np.abs(t + t[::-1]).max() <= _SYMMETRY_TOL * np.abs(t).max()
        and np.abs(w - w[::-1]).max() <= _SYMMETRY_TOL * w.max()
    )


@lru_cache(maxsize=16)
def _orbits(c: Constellation) -> tuple:
    """One point per orbit of the square's symmetries of c, and the orbit sizes.

    The symmetries are those of the eight maps (a, b) -> (+-a, +-b) and
    (+-b, +-a) that take the point set onto itself; a set with none but the
    identity gives every point with size 1.
    """
    xy = np.stack([c.points.real, c.points.imag], axis=1)
    images = xy @ _SQUARE_MAPS  # (map, point, coordinate)
    match = np.abs(images[:, :, None, :] - xy[None, None, :, :]).max(axis=3) <= _SYMMETRY_TOL * np.abs(xy).max()
    onto = (match.sum(axis=2) == 1).all(axis=1) & (match.sum(axis=1) == 1).all(axis=1)
    perms = match[onto].argmax(axis=2)
    # Label each point by the lowest index it reaches; the identity is a
    # symmetry, so labels only fall, and they settle on the orbits.
    label = np.arange(c.size)
    while True:
        lower = label[perms].min(axis=0)
        if np.array_equal(lower, label):
            reps, sizes = np.unique(label, return_counts=True)
            return reps, sizes.astype(float)
        label = lower


def _mi_batch_separable(rhos: np.ndarray, levels: np.ndarray, M: int, rule: QuadratureRule) -> np.ndarray:
    """Batch MI for grid QAM: the tensor quadrature factorizes per dimension.

    With points {a + jb}, the inner sum over x' splits into a product of two
    real sums, and the weighted node sums collapse to one (side x order)
    log-sum per dimension.  Identical quadrature, just reassociated.
    """
    side = levels.size
    t = rule.nodes
    w = rule.weights
    sqrt_pi = w.sum()
    sw2 = float(w @ t**2)
    diffs = levels[:, None] - levels[None, :]
    sq = np.sqrt(rhos)
    e = sq[:, None, None, None] * diffs[None, :, :, None] + t[None, None, None, :]
    np.multiply(e, e, out=e)
    np.negative(e, out=e)
    shift = e.max(axis=2)
    e -= shift[:, :, None, :]
    np.exp(e, out=e)
    log_inner = np.log(e.sum(axis=2))
    log_inner += shift
    g = np.einsum("k,spk->s", w, log_inner)
    return M - (2.0 * sqrt_pi / (math.pi * _LN2)) * (sw2 + g / side)


def _mi_batch_generic(rhos: np.ndarray, orbits: tuple, M: int, rule: QuadratureRule) -> np.ndarray:
    """Batch MI for an arbitrary point set over the full 2-D tensor rule.

    orbits is (points, reps, sizes): only the x in points[reps] are
    evaluated, each term counted sizes times.

    The exponent -|sqrt(rho)(x-x') + z|^2 + |z|^2 splits into one term per
    dimension, f(d, t) = -(rho d^2 + 2 sqrt(rho) d t), taken at (Re d, t_i)
    and at (Im d, t_j).  Each part is shifted by its maximum over x' (>= 0,
    the x'=x term) and exponentiated on its own order-long node axis, so for
    every x the inner sums at all order^2 nodes are one matrix product
    S = E_r^T E_i over x'.  Same rule, reassociated: 2 K^2 order exponentials
    and K order^2 logs per rho instead of K^2 order^2 exponentials.

    The x'=x term keeps S_ij >= e^-(t_i^2 + t_j^2), so S underflows to 0 only
    at nodes far out in the tails (orders above ~190).  Those nodes count
    log S = 0, which is harmless while their tensor weight is negligible;
    a larger weight raises ArithmeticError rather than return a wrong value.
    """
    points, reps, sizes = orbits
    t = rule.nodes
    w = rule.weights
    d = points[reps, None] - points[None, :]
    sq = np.sqrt(rhos)[:, None, None, None]

    def factor(dd: np.ndarray) -> tuple:
        # g = rho d^2 + 2 sqrt(rho) d t = -f, shape (n, x, x', node)
        u = sq * dd[None, :, :, None]
        g = u + 2.0 * t
        g *= u
        g_min = g.min(axis=2)
        np.subtract(g_min[:, :, None, :], g, out=g)
        np.exp(g, out=g)
        return g, -g_min

    e_r, max_r = factor(d.real)
    e_i, max_i = factor(d.imag)
    s = np.matmul(e_r.transpose(0, 1, 3, 2), e_i)  # (n, x, t_i, t_j)
    if not s.all():
        under = s == 0.0
        w_under = np.broadcast_to(np.outer(w, w) / math.pi, s.shape)[under]
        if w_under.max() > _MASKED_WEIGHT_LIMIT:
            raise ArithmeticError(f"quadrature inner sum underflowed at a node of weight {w_under.max():.3g} (order {rule.order})")
        s[under] = 1.0
    np.log(s, out=s)
    log_s = (s @ w) @ w / math.pi
    shifts = (max_r + max_i) @ w * (w.sum() / math.pi)
    acc = ((log_s + shifts) * sizes).sum(axis=1)
    return M - acc / (points.size * _LN2)


def mi_discrete_array(rhos, c: Constellation, rule: QuadratureRule | None = None) -> np.ndarray:
    """Mutual information in bits for an array of linear SNR values.

    Evaluated in cache-sized batches, each rho independently of the others
    (the same value whatever the batch); results are clamped to [0, M].
    Raises ArithmeticError instead of returning a non-finite value.
    """
    if rule is None:
        rule = hermite_rule()
    rhos = np.asarray(rhos, dtype=float)
    flat = rhos.ravel()
    M = c.bits_per_symbol
    out = np.empty(flat.size)
    if c.grid_levels is not None:
        batch, args, per_rho = _mi_batch_separable, c.grid_levels, c.grid_levels.size**2 * rule.order
    else:
        reps, sizes = _orbits(c) if _mirror_symmetric(rule) else (np.arange(c.size), np.ones(c.size))
        batch, args, per_rho = _mi_batch_generic, (c.points, reps, sizes), reps.size * rule.order**2
    chunk = min(_BATCH_RHOS, max(1, _BATCH_ELEMS // per_rho))
    with np.errstate(under="ignore"):
        for lo in range(0, flat.size, chunk):
            out[lo : lo + chunk] = batch(flat[lo : lo + chunk], args, M, rule)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"non-finite mutual information for {c.size} points at order {rule.order}")
    return np.clip(out, 0.0, float(M)).reshape(rhos.shape)


def mi_discrete(rho: Snr, c: Constellation, rule: QuadratureRule | None = None) -> float:
    """Mutual information in bits of the 2^M-ary input at linear SNR rho."""
    return float(mi_discrete_array(np.array([rho.rho]), c, rule)[0])
