"""Discrete power-law model: pmf/CDF, maximum likelihood, x_min selection.

The model is ``pmf(x) = x**(-alpha) / zeta(alpha, x_min)`` on integers
``x >= x_min``.  Estimation follows the standard heavy-tail recipe: the
exponent is the exact numeric MLE on the tail, the lower bound is the
candidate value minimizing the Kolmogorov-Smirnov distance between the
empirical tail and its own fitted model, and parameter uncertainties come
from a nonparametric bootstrap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._rng import DOMAIN_BOOTSTRAP, DOMAIN_SAMPLING, derived_rng
from .dataset import CitationSample

__all__ = [
    "hurwitz_zeta",
    "DiscretePowerLaw",
    "PowerLawFit",
    "fit_alpha",
    "ks_distance",
    "fit_power_law",
    "sample_power_law",
    "ccdf_table",
    "DEFAULT_MIN_TAIL",
    "DEFAULT_BOOTSTRAP_REPS",
]

DEFAULT_MIN_TAIL = 50
DEFAULT_BOOTSTRAP_REPS = 1000

# Euler-Maclaurin evaluation of the Hurwitz zeta: a direct sum of the first
# _EM_TERMS terms when q < _EM_TERMS, then integral + trapezoid + Bernoulli
# corrections B2..B12 from a = max(q, _EM_TERMS) on.  The first omitted
# correction is below 1e-14 of the result for s in (1, 30] since a >= 64.
_EM_TERMS = 64
_EM_COEF = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
    -691.0 / 2730.0 / 479001600.0,
)
_ZETA_CHUNK = 1 << 12


def _zeta(s, q, derivs: bool = False) -> np.ndarray:
    """Hurwitz zeta over broadcast ``s`` and ``q``: shape ``(1,) + shape``,
    or ``(3,) + shape`` with the first two s-derivatives (``derivs``).

    Elements go in chunks of _ZETA_CHUNK, each through the same operations
    whatever its neighbors, so no value depends on the call it is in.
    """
    s, q = np.broadcast_arrays(np.asarray(s, dtype=np.float64),
                               np.asarray(q, dtype=np.float64))
    shape = s.shape
    s, q = s.ravel(), q.ravel()
    out = np.zeros((3 if derivs else 1, s.size))
    for lo in range(0, s.size, _ZETA_CHUNK):
        _zeta_chunk(s[lo:lo + _ZETA_CHUNK], q[lo:lo + _ZETA_CHUNK],
                    out[:, lo:lo + _ZETA_CHUNK])
    return out.reshape(out.shape[:1] + shape)


def _zeta_chunk(s: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    derivs = out.shape[0] > 1
    near = q < _EM_TERMS
    if near.any():
        base = q[near, None] + np.arange(_EM_TERMS)
        term = base ** -s[near, None]
        out[0, near] = np.sum(term, axis=1)
        if derivs:
            # each s-derivative multiplies x**-s by -log(x)
            neg_log = -np.log(base)
            out[1, near] = np.sum(term * neg_log, axis=1)
            out[2, near] = np.sum(term * neg_log * neg_log, axis=1)
    a = np.where(near, q + _EM_TERMS, q)
    # The rest is a**-s F(s), F = a/(s-1) + 1/2 + (s/a) h with
    # h = sum_j c_j (r_j(s)/s) w**j, w = 1/a**2, r_j(s) = s (s+1) ... (s+2j).
    # Horner gives h (and h', h''); r_j / r_(j-1) = p = (s+2j-1)(s+2j).
    w = 1.0 / (a * a)
    h, h1, h2 = _EM_COEF[-1], 0.0, 0.0
    for j in range(len(_EM_COEF) - 1, 0, -1):
        p = (s + (2 * j - 1)) * (s + 2 * j)
        if derivs:
            dp = 2.0 * s + (4 * j - 1)
            h2 = w * (2.0 * h + 2.0 * dp * h1 + p * h2)
            h1 = w * (dp * h + p * h1)
        h = _EM_COEF[j - 1] + w * p * h
    inv = 1.0 / (s - 1.0)
    f = a * inv + 0.5 + s * h / a
    e = a ** -s
    out[0] += e * f
    if derivs:
        # Leibniz rule, with (a**-s)' = -log(a) a**-s
        f1 = (h + s * h1) / a - a * inv * inv
        f2 = (2.0 * h1 + s * h2) / a + 2.0 * a * inv ** 3
        lg = -np.log(a)
        out[1] += e * (f1 + lg * f)
        out[2] += e * (f2 + lg * (2.0 * f1 + lg * f))


def hurwitz_zeta(alpha: float, q: int) -> float:
    """Sum of (k + q)**(-alpha) over k = 0, 1, 2, ...

    Absolute error is below 1e-12 for alpha > 1.  Raises for alpha <= 1,
    where the series diverges.
    """
    alpha = float(alpha)
    if alpha <= 1.0:
        raise ValueError("non-normalizable")
    q = int(q)
    if q < 1:
        raise ValueError("q must be a positive integer")
    return float(_zeta(alpha, q)[0])


@dataclass(frozen=True, slots=True)
class DiscretePowerLaw:
    """Power law on integer support x >= x_min with exponent alpha > 1."""

    x_min: int
    alpha: float

    def __post_init__(self):
        if int(self.x_min) < 1:
            raise ValueError("x_min must be a positive integer")
        if self.alpha <= 1.0:
            raise ValueError("non-normalizable")
        object.__setattr__(self, "x_min", int(self.x_min))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def normalizer(self) -> float:
        # the same kernel element as the ccdf/cdf numerator at x_min, so
        # that ccdf(x_min) is exactly 1.0
        return float(_zeta(self.alpha, self.x_min)[0])

    def pmf(self, x) -> np.ndarray:
        """P(X = x); 0 below x_min."""
        x = np.asarray(x, dtype=np.float64)
        # clipping keeps 0 ** -alpha and negative bases out of the power
        inside = np.maximum(x, self.x_min) ** -self.alpha / self.normalizer
        return np.where(x >= self.x_min, inside, 0.0)

    def logpmf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = (-self.alpha * np.log(np.maximum(x, self.x_min))
                  - np.log(self.normalizer))
        return np.where(x >= self.x_min, inside, -np.inf)

    def ccdf(self, x) -> np.ndarray:
        """P(X >= x) for integer x; 1 at and below x_min."""
        x = np.asarray(x, dtype=np.float64)
        tail = _zeta(self.alpha, np.maximum(x, self.x_min))[0]
        return tail / self.normalizer

    def cdf(self, x) -> np.ndarray:
        """P(X <= x) for integer x; 0 below x_min."""
        return 1.0 - self.ccdf(np.asarray(x, dtype=np.float64) + 1.0)


@dataclass(frozen=True, slots=True)
class PowerLawFit:
    """Fitted lower bound and exponent with bootstrap uncertainties."""

    x_min: int
    alpha: float
    n_tail: int
    ks: float
    alpha_sd: float
    x_min_sd: float
    log_likelihood: float

    def model(self) -> DiscretePowerLaw:
        return DiscretePowerLaw(self.x_min, self.alpha)


# ---------------------------------------------------------------------------
# Tail digest shared by the MLE, the KS scan, and the bootstrap.
# ---------------------------------------------------------------------------

class _TailIndex:
    """Unique positive values with tail sizes and tail log-sums."""

    __slots__ = ("values", "suffix_n", "suffix_logsum")

    def __init__(self, positive_sorted: np.ndarray):
        values, first, counts = np.unique(positive_sorted, return_index=True,
                                          return_counts=True)
        self.values = values
        self.suffix_n = positive_sorted.size - first
        logsums = counts * np.log(values.astype(np.float64))
        self.suffix_logsum = np.cumsum(logsums[::-1])[::-1]


def _positive_part(counts: np.ndarray) -> np.ndarray:
    # zeros stay in the sample for descriptive statistics but never enter a
    # tail: log x is undefined at 0
    return counts[counts >= 1]


_ALPHA_LO, _ALPHA_HI = 1.0 + 1e-9, 512.0
_NEWTON_CAP = 100
_KS_PAIRS = 1 << 16


def _mle(log_sum, n, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, log-likelihood, zeta(alpha, q)) of the tail MLE at each q.

    alpha is the root in (1 + 1e-9, min(512, 1022 ln 2 / ln q)] of the score
    log_sum/n + zeta'/zeta, or that cap when the root lies past it; the score
    rises through the root (its slope is the model variance of log x), by
    Newton steps that bisect the bracket of evaluated points when they
    leave it.  Each element stops on its own test at an evaluated point.
    """
    log_sum, n, q = (np.asarray(v, dtype=np.float64) for v in (log_sum, n, q))
    with np.errstate(divide="ignore"):
        # the continuous MLE with a half-unit shift starts near the root
        start = 1.0 + n / (log_sum - n * np.log(q - 0.5))
        # past this alpha, q**-alpha and so zeta leave the normal floats
        hi = np.minimum(_ALPHA_HI, 1022.0 * np.log(2.0) / np.log(q))
    alpha = np.where(start > _ALPHA_LO, np.minimum(start, hi), 2.0)
    lo = np.full(q.shape, _ALPHA_LO)
    z = np.empty(q.shape)
    todo = np.arange(q.size)
    for it in range(_NEWTON_CAP):
        a = alpha[todo]
        z[todo], z1, z2 = _zeta(a, q[todo], derivs=True)
        ratio = z1 / z[todo]
        g = log_sum[todo] / n[todo] + ratio
        lo[todo] = np.where(g < 0.0, a, lo[todo])
        hi[todo] = np.where(g < 0.0, hi[todo], a)
        step = -g / (z2 / z[todo] - ratio * ratio)
        inside = (a + step > lo[todo]) & (a + step < hi[todo])
        alpha[todo] = np.where(inside, a + step, 0.5 * (lo[todo] + hi[todo]))
        done = ((np.abs(g) <= 1e-13) | (np.abs(step) <= 4e-16 * a)
                | (hi[todo] - lo[todo] <= 4e-16 * a) | (it == _NEWTON_CAP - 1))
        alpha[todo[done]] = a[done]
        todo = todo[~done]
        if todo.size == 0:
            break
    return alpha, -(alpha * log_sum + n * np.log(z)), z


def _ks(index: _TailIndex, starts: np.ndarray, alpha: np.ndarray,
        z_q: np.ndarray) -> np.ndarray:
    """KS distance of each tail ``values[starts[c]:]`` from its model with
    exponent alpha[c] and normalizer z_q[c], at the observed values.  The
    kernel takes (candidate, value) pairs in groups of max(_KS_PAIRS, m)."""
    m = index.values.size
    above = np.append(index.suffix_n[1:], 0)
    ks = np.empty(starts.size)
    per = max(1, _KS_PAIRS // m)
    for lo in range(0, starts.size, per):
        group = np.arange(lo, min(lo + per, starts.size))
        sizes = m - starts[group]
        ends = np.cumsum(sizes)
        c = np.repeat(group, sizes)
        j = np.arange(ends[-1]) + np.repeat(m - ends, sizes)
        n = index.suffix_n[starts[c]]
        model = 1.0 - _zeta(alpha[c], index.values[j] + 1.0)[0] / z_q[c]
        dist = np.abs((n - above[j]) / n - model)
        ks[group] = np.maximum.reduceat(dist, ends - sizes)
    return ks


def _best_fit(index: _TailIndex, starts: np.ndarray,
              q: np.ndarray) -> PowerLawFit:
    """The candidate fit with the smallest KS (the first of ties), SDs 0."""
    n = index.suffix_n[starts]
    alpha, ll, z = _mle(index.suffix_logsum[starts], n, q)
    ks = _ks(index, starts, alpha, z)
    b = int(np.argmin(ks))
    return PowerLawFit(int(q[b]), float(alpha[b]), int(n[b]), float(ks[b]),
                       0.0, 0.0, float(ll[b]))


def _scan(positive_sorted: np.ndarray, min_tail: int) -> PowerLawFit:
    """Pick x_min among observed values by KS minimization; ties go small."""
    index = _TailIndex(positive_sorted)
    m = index.values.size
    starts = np.nonzero((index.suffix_n >= max(int(min_tail), 2))
                        & (np.arange(m) <= m - 2))[0]
    if starts.size == 0:
        raise ValueError("insufficient tail")
    return _best_fit(index, starts, index.values[starts])


def _fit_fixed(positive_sorted: np.ndarray, x_min: int) -> PowerLawFit:
    x_min = int(x_min)
    if x_min < 1:
        raise ValueError("x_min must be a positive integer")
    index = _TailIndex(positive_sorted[positive_sorted >= x_min])
    if index.values.size == 0:
        raise ValueError("empty tail")
    if index.values.size < 2:
        raise ValueError("degenerate tail")
    # the tail is conditioned on x >= x_min even when x_min is not observed
    return _best_fit(index, np.zeros(1, dtype=np.intp), np.array([x_min]))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def fit_alpha(sample: CitationSample, x_min: int) -> tuple[float, float]:
    """Exact discrete MLE of the exponent on the tail x >= x_min.

    Returns ``(alpha, log_likelihood)``.  alpha is the root of the
    likelihood score, found by safeguarded Newton to within rounding.
    """
    res = _fit_fixed(_positive_part(sample.counts), x_min)
    return res.alpha, res.log_likelihood


def ks_distance(sample: CitationSample, model: DiscretePowerLaw) -> float:
    """Max |empirical tail CDF - model CDF| over observed tail values."""
    tail = sample.tail(model.x_min)
    if tail.size == 0:
        raise ValueError("empty tail")
    ks = _ks(_TailIndex(tail), np.zeros(1, dtype=np.intp),
             np.array([model.alpha]), _zeta(model.alpha, model.x_min))
    return float(ks[0])


def _replicates(chunk_fn, args: tuple, total: int, workers: int) -> list:
    """Results of replicates 0..total-1, in replicate order.

    ``chunk_fn((start, stop) + args)`` returns the results of one span of
    replicates.  Each replicate seeds itself from (seed, domain, r), so
    neither the spans nor the worker count can change a result.
    """
    parts = workers * 4 if workers > 1 else 1
    edges = np.linspace(0, total, min(parts, total) + 1).astype(int)
    jobs = [(int(a), int(b)) + args
            for a, b in zip(edges[:-1], edges[1:]) if b > a]
    # the fork start method launches every requested process up front
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs > 1:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(chunk_fn, jobs))
    else:
        chunks = [chunk_fn(job) for job in jobs]
    return [result for chunk in chunks for result in chunk]


def _bootstrap_chunk(args) -> list[tuple[float, float]]:
    start, stop, counts, seed, min_tail, fixed_x_min = args
    out = []
    n = counts.size
    for r in range(start, stop):
        rng = derived_rng(seed, DOMAIN_BOOTSTRAP, r)
        resample = counts[rng.integers(0, n, size=n)]
        positive = np.sort(_positive_part(resample))
        try:
            if fixed_x_min is None:
                res = _scan(positive, min_tail)
            else:
                res = _fit_fixed(positive, fixed_x_min)
            out.append((res.alpha, float(res.x_min)))
        except ValueError:
            # a replicate without a usable tail carries no estimate
            out.append((np.nan, np.nan))
    return out


def fit_power_law(sample: CitationSample, *,
                  x_min: int | None = None,
                  min_tail: int = DEFAULT_MIN_TAIL,
                  bootstrap_reps: int = DEFAULT_BOOTSTRAP_REPS,
                  seed: int = 0,
                  workers: int = 1) -> PowerLawFit:
    """Fit x_min and alpha, with bootstrap standard deviations.

    x_min is chosen among unique observed values whose tail holds at least
    ``min_tail`` observations, minimizing the KS distance of the tail's own
    MLE fit; pass ``x_min`` to pin it instead.  Uncertainties are standard
    deviations over ``bootstrap_reps`` resample-and-refit replicates
    (``bootstrap_reps=0`` skips the bootstrap and reports 0.0).
    """
    counts = sample.counts
    positive = _positive_part(counts)
    if x_min is None:
        main = _scan(positive, min_tail)
    else:
        main = _fit_fixed(positive, int(x_min))

    if bootstrap_reps > 0:
        pairs = _replicates(_bootstrap_chunk, (counts, seed, min_tail, x_min),
                            bootstrap_reps, workers)
        alphas = np.array([p[0] for p in pairs])
        xmins = np.array([p[1] for p in pairs])
        valid = ~np.isnan(alphas)
        if valid.sum() >= 2:
            main = replace(main, alpha_sd=float(np.std(alphas[valid], ddof=1)),
                           x_min_sd=float(np.std(xmins[valid], ddof=1)))
    return main


# ---------------------------------------------------------------------------
# Random variates: exact rejection methods, O(1) expected work per draw.
# ---------------------------------------------------------------------------

_INT_LIMIT = 2.0 ** 62


def _as_counts(x: np.ndarray) -> np.ndarray:
    """Integer variates from float ones; any at or past 2**62 raises."""
    if not np.all(x < _INT_LIMIT):
        raise ValueError(
            "sampled value exceeds the integer range; "
            "the tail is too heavy for exact inversion")
    return x.astype(np.int64)


def _rejection(n: int, propose) -> np.ndarray:
    """The first n accepted proposals, in order.  ``propose(m)`` returns m
    float candidates and the mask of those accepted."""
    out = np.empty(n)
    k = 0
    while k < n:
        x, ok = propose(n - k)
        x = x[ok]
        out[k:k + x.size] = x
        k += x.size
    return out


def _zipf_proposals(alpha: float, q: int, m: int, rng):
    """m rejection-inversion proposals for x**-alpha on integers x >= q
    (Hoermann & Derflinger, ACM TOMACS 6:169, 1996) and their acceptance.

    The hat is y**-alpha, y = x / q, inverted through its tail integral
    G(y) = y**(1 - alpha) / (alpha - 1), which cancels nothing near alpha = 1
    or at large q.  Integer k owns [G((k + 1/2) / q), that + (k / q)**-alpha
    / q] of it: its exact mass, inside its rounding cell as the hat is convex.
    Proposals at or past 2**62 count as accepted, for _as_counts to raise.
    """
    a1 = alpha - 1.0

    def bound(k):
        return ((k + 0.5) / q) ** -a1 / a1 + (k / q) ** -alpha / q

    g = (1.0 - rng.random(m)) * bound(q)
    with np.errstate(over="ignore"):
        # past the float range a proposal is inf
        x = q * (a1 * g) ** (-1.0 / a1)
    k = np.maximum(np.floor(x + 0.5), q)
    return k, (g <= bound(k)) | (k >= _INT_LIMIT)


def _tail_draws(alpha: float, q: int, n: int, rng) -> np.ndarray:
    """n power-law variates on x >= q; a variate past 2**62 raises."""
    return _as_counts(_rejection(
        n, lambda m: _zipf_proposals(alpha, q, m, rng)))


def sample_power_law(model: DiscretePowerLaw, n: int, seed: int) -> CitationSample:
    """Draw n exact variates from the discrete power law, deterministically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = derived_rng(seed, DOMAIN_SAMPLING, 0)
    x = _tail_draws(model.alpha, model.x_min, int(n), rng)
    label = f"powerlaw(x_min={model.x_min}, alpha={model.alpha:g}, seed={seed})"
    return CitationSample(x, label=label)


def ccdf_table(sample: CitationSample, model: DiscretePowerLaw) -> list[tuple[int, float, float]]:
    """Rows (x, empirical CCDF, model CCDF) over the observed tail support."""
    tail = sample.tail(model.x_min)
    if tail.size == 0:
        raise ValueError("empty tail")
    index = _TailIndex(tail)
    emp = index.suffix_n / tail.size
    mod = model.ccdf(index.values)
    return [(int(x), float(e), float(m))
            for x, e, m in zip(index.values, emp, mod)]
