"""Martingale concentration bounds.

Azuma's inequality for bounded differences, its refinement that also uses a
conditional variance bound, the square-root-of-n scaling view of that
refinement, and two analytic floors used to compare the refined exponent
against its quadratic approximations.

Bounds exceeding 1 are reported raw, never clamped: clamping is a
presentation concern, and the algebraic identities the tests rely on would
break.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, OutOfDomain
from .probdist import binary_kl

ONE_SIDED = "one-sided"
TWO_SIDED = "two-sided"


class MartingaleParams(namedtuple("MartingaleParams", "d sigma_sq")):
    """Uniform per-step constants of a martingale: jump bound d (nats) and
    conditional variance bound sigma_sq (nats squared), both finite and
    positive. A conditional variance cannot exceed the squared jump bound,
    so gamma = sigma_sq/d**2 always lands in (0, 1].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.d < math.inf:
            raise DomainError(f"d = {self.d} must be finite and > 0")
        if not 0.0 < self.sigma_sq < math.inf:
            raise DomainError(f"sigma_sq = {self.sigma_sq} must be finite and > 0")
        if self.gamma > 1.0:
            raise DomainError(
                f"sigma_sq = {self.sigma_sq} exceeds d**2 (gamma = {self.gamma})"
            )
        return self

    @property
    def gamma(self) -> float:
        dd = self.d * self.d
        # d**2 overflows above d of about 1.3e154, where gamma need not, and
        # is subnormal, so short of bits, below d of about 1.5e-154
        if sys.float_info.min <= dd < math.inf:
            return self.sigma_sq / dd
        return self.sigma_sq / self.d / self.d

    def delta(self, alpha: float) -> float:
        """Normalized per-step deviation rate alpha/d."""
        if alpha < 0.0:
            raise DomainError(f"alpha = {alpha} must be >= 0")
        return alpha / self.d


def azuma_bound(jump_bounds, r: float) -> float:
    """Azuma-Hoeffding tail bound 2 exp(-r**2 / (2 sum d_k**2)).

    Bounds P(|X_n - X_0| >= r) for a martingale with |X_k - X_{k-1}| <= d_k.
    r = 0 gives the trivial bound 2; all-zero jumps with r > 0 give 0, since
    the martingale cannot move.
    """
    if r < 0.0:
        raise DomainError(f"r = {r} must be >= 0")
    jump_bounds = tuple(jump_bounds)
    total = 0.0
    for d in jump_bounds:
        if d < 0.0:
            raise DomainError(f"jump bound {d} must be >= 0")
        total += d * d
    if r == 0.0:
        return 2.0
    if total == 0.0:
        return 0.0
    if math.isinf(r * r) or math.isinf(total):
        # a square overflowed: hypot sums the squares without forming them,
        # and x * x may still overflow, to inf, giving exp(-inf) = 0
        x = r / math.hypot(*jump_bounds)
        return 2.0 * math.exp(-0.5 * x * x)
    return 2.0 * math.exp(-r * r / (2.0 * total))


def refined_exponent(delta: float, gamma: float) -> float:
    """D((delta+gamma)/(1+gamma) || gamma/(1+gamma)), the exponent of the
    refined bound at normalized deviation delta = alpha/d and gamma =
    sigma_sq/d**2; infinite for delta > 1, an impossible deviation."""
    if delta > 1.0:
        return math.inf
    return binary_kl((delta + gamma) / (1.0 + gamma), gamma / (1.0 + gamma))


def refined_bound(params: MartingaleParams, n: int, alpha: float,
                  sided: str = ONE_SIDED) -> float:
    """Variance-aware refinement of Azuma's bound.

    Bounds the probability that an n-step martingale with per-step constants
    `params` deviates by at least alpha*n by c * exp(-n * refined_exponent),
    where c = 2 for the two-sided event and c = 1 for one-sided. delta > 1
    is an impossible deviation and yields exactly 0.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"n = {n} must be a positive integer")
    if sided == ONE_SIDED:
        c = 1.0
    elif sided == TWO_SIDED:
        c = 2.0
    else:
        raise DomainError(f"sided must be {ONE_SIDED!r} or {TWO_SIDED!r}")
    return c * math.exp(-n * refined_exponent(params.delta(alpha), params.gamma))


ScalingRow = namedtuple("ScalingRow", "n bound asymptote ratio")


def sqrt_scaling_report(params: MartingaleParams, alpha: float, n_grid):
    """Two-sided refined bound at deviation alpha*sqrt(n) versus its limit.

    For deviations on the sqrt(n) scale the refined bound approaches the
    n-independent asymptote 2 exp(-delta**2/(2 gamma)), delta = alpha/d, with
    a multiplicative error of order n**(-1/2). Returns one row per n with the
    bound, the asymptote, and their ratio. Raises OutOfDomain when the
    asymptote is below the smallest normal float: zero would make the ratio
    a division by zero, and a subnormal one has already lost digits.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise DomainError("n_grid must be nonempty")
    if any(not isinstance(n, int) or n < 1 for n in n_grid):
        raise DomainError("n_grid entries must be positive integers")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    delta = params.delta(alpha)
    x = delta * delta / (2.0 * params.gamma)
    asymptote = 2.0 * math.exp(-x)
    if asymptote < sys.float_info.min:
        raise OutOfDomain(
            f"asymptote 2 exp(-delta**2/(2 gamma)) underflows: "
            f"delta**2/(2 gamma) = {x}")
    rows = []
    for n in n_grid:
        # total deviation alpha*sqrt(n) = (alpha/sqrt(n)) * n per-step rate
        bound = refined_bound(params, n, alpha / math.sqrt(n), TWO_SIDED)
        rows.append(ScalingRow(n=n, bound=bound, asymptote=asymptote,
                               ratio=bound / asymptote))
    return rows


def xlogx_exact(u: float) -> float:
    """(1+u) ln(1+u), defined as 0 at u = -1."""
    if u < -1.0:
        raise DomainError(f"u = {u} must be >= -1")
    if u == -1.0:
        return 0.0
    return (1.0 + u) * math.log1p(u)


def xlogx_floor(u: float) -> float:
    """Piecewise polynomial lower bound on (1+u) ln(1+u):

        u + u**2/2            for -1 <= u <= 0
        u + u**2/2 - u**3/6   for u >= 0
    """
    if u < -1.0:
        raise DomainError(f"u = {u} must be >= -1")
    if u <= 0.0:
        return u + 0.5 * u * u
    return u + 0.5 * u * u - u * u * u / 6.0


def quad_cubic_floor(delta: float, gamma: float) -> float:
    """Quadratic-cubic lower bound on the refined exponent:

        delta**2/(2 gamma) - delta**3/(6 gamma**2 (1+gamma))

    Always <= refined_exponent(delta, gamma); may go negative for small
    gamma, where it is simply a weak floor.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta = {delta} outside [0, 1]")
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma = {gamma} outside (0, 1]")
    d2 = delta * delta
    if gamma * gamma < sys.float_info.min:
        # gamma**2 is subnormal below gamma of about 1.5e-154, and 0 below
        # about 1.6e-162: factor out u = delta/gamma, so no bits are lost
        # and an overflow gives -inf rather than inf - inf
        u = delta / gamma
        return 0.5 * delta * u * (1.0 - u / (3.0 * (1.0 + gamma)))
    return d2 / (2.0 * gamma) - d2 * delta / (6.0 * gamma * gamma * (1.0 + gamma))
