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
  The tensor rule of the mirror-symmetric 1-D rule is invariant under the
  eight symmetries of the square (swapping the real and imaginary parts,
  negating either), so every x of an orbit of those symmetries that map the
  point set onto itself has the same term: only one x per orbit is
  evaluated, weighted by the orbit size (PSK8 2 of 8 points, PSK4 and
  PSK2 1).

The per-dimension max-shifts keep every generic inner sum S_ij at or above
its x' = x term, e^-(t_i^2 + t_j^2).  Every weight has
w_i e^(t_i^2) <= sqrt(pi): the rule's terms for f(s) = e^(2 s t_i - t_i^2)
are positive, one of them is w_i e^(t_i^2), and they sum to at most the
integral of f e^(-s^2), sqrt(pi), since every derivative of f is positive
(Gauss error term).  So a node whose S underflows to 0 has tensor weight
w_i w_j / pi <= e^-(t_i^2 + t_j^2) <= S_ij < 5e-324, below the float range;
counting its log S, which lies in [-(t_i^2 + t_j^2), 0], as 0 moves the sum
by less than order^2 (4 order + 2) 5e-324, below an ulp of any MI value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._checks import integer, real, require
from .constellation import Constellation

__all__ = ["Snr", "QuadratureRule", "hermite_rule", "DEFAULT_ORDER", "mi_discrete_array"]

# Smallest order for which doubling it moves the MI of every supported
# constellation by < 1e-6 over rho <= 1e3 (measured; 32 gives only ~4e-6).
DEFAULT_ORDER = 96

_LN2 = math.log(2.0)

# Elements in the largest temporary of a mi_discrete_array batch, so it stays in cache.
_BATCH_ELEMS = 2**16

# Relative tolerance within which a point set counts as symmetric: the
# built-in PSK points are symmetric to an ulp, so each orbit's terms agree
# to rounding.
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
        object.__setattr__(self, "rho", require("SNR rho", self.rho, real, least=0))

    @classmethod
    def from_db(cls, db: float) -> "Snr":
        given = require("db", db, real)
        try:
            snr = cls(10.0 ** (given / 10.0))
        except OverflowError:
            raise OverflowError(f"an SNR of {db} dB overflows a float") from None
        object.__setattr__(snr, "_db", given)  # not a field: equality and repr stay rho's
        return snr

    @property
    def db(self) -> float:
        """The dB that from_db was given: 10 log10 rho cannot read back one below 1e-15 in size."""
        return self.__dict__.get("_db", 10.0 * math.log10(self.rho) if self.rho > 0 else -math.inf)


def _hermite(order: int, t: np.ndarray) -> tuple:
    """p_(order-1)(t) and p_order(t), both divided by e^s, and s.

    p_k are the Hermite polynomials orthonormal under e^-t^2, from their
    three-term recurrence; wherever a value passes 2^332 (about 1e100), both
    are divided by it, exactly, so no order overflows.
    """
    prev, cur, log_scale = np.zeros_like(t), np.full_like(t, math.pi**-0.25), np.zeros_like(t)
    for k in range(order):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * t * cur - math.sqrt(k / (k + 1)) * prev
        big = np.abs(cur) > 2.0**332
        if big.any():
            prev[big] *= 2.0**-332
            cur[big] *= 2.0**-332
            log_scale[big] += 332 * _LN2
    return prev, cur, log_scale


@dataclass(frozen=True)
class QuadratureRule:
    """The Gauss-Hermite rule of an order: nodes and weights for e^-t^2 on the real line.

    Rules compare and hash by order.  The nodes are the eigenvalues of the
    Hermite Jacobi matrix after one Newton step on p_order; weight i is
    1 / (order p_(order-1)(t_i)^2), formed in log space, so every weight is
    accurate in relative terms and those below the float range are 0
    (Townsend, Trogdon and Olver, IMA J. Numer. Anal. 2016).  The nodes are
    made mirror-symmetric exactly, and by the recurrence's parity so are
    the weights.
    """

    order: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = require("quadrature order", self.order, integer, least=1)
        object.__setattr__(self, "order", n)
        t = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, n) / 2.0), 1), UPLO="U")
        p_last, p_n, _ = _hermite(n, t)
        t -= p_n / (math.sqrt(2.0 * n) * p_last)  # p_n' = sqrt(2n) p_(n-1)
        t = (t - t[::-1]) / 2.0
        with np.errstate(under="ignore"):
            p_last, _, log_scale = _hermite(n, t)
            w = np.exp(-2.0 * (np.log(np.abs(p_last)) + log_scale) - math.log(n))
        # hermite_rule shares one rule per order, so no caller may write its arrays.
        t.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "nodes", t)
        object.__setattr__(self, "weights", w)


@lru_cache(maxsize=16, typed=True)
def hermite_rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    """The cached QuadratureRule of an order (the 2-D tensor rule has order^2 nodes)."""
    return QuadratureRule(order)


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
    # The maps that take the set onto itself form a group, so a point's
    # images under them are its whole orbit; the lowest index labels it.
    reps, sizes = np.unique(perms.min(axis=0), return_counts=True)
    return reps, sizes.astype(float)


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
    if not s.all():  # a zero S_ij has weight w_i w_j / pi < 5e-324 (module notes): count log S as 0
        s[s == 0.0] = 1.0
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
        reps, sizes = _orbits(c)
        # The (x, x', node) exponential tables or the (x, node, node) sums, whichever is larger.
        batch, args, per_rho = _mi_batch_generic, (c.points, reps, sizes), reps.size * rule.order * max(c.size, rule.order)
    chunk = max(1, _BATCH_ELEMS // per_rho)
    with np.errstate(under="ignore"):
        for lo in range(0, flat.size, chunk):
            out[lo : lo + chunk] = batch(flat[lo : lo + chunk], args, M, rule)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError(f"non-finite mutual information for {c.size} points at order {rule.order}")
    return np.clip(out, 0.0, float(M)).reshape(rhos.shape)

