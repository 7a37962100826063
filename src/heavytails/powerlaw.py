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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

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

# Euler-Maclaurin evaluation of the Hurwitz zeta: direct sum of _EM_TERMS
# terms, then integral + trapezoid + Bernoulli corrections B2..B12.  The
# first omitted term is below 1e-25 for alpha in (1, 30] and q >= 1, far
# inside the 1e-12 absolute target.
_EM_TERMS = 64
_EM_K = np.arange(_EM_TERMS, dtype=np.float64)
_EM_COEF = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
    -691.0 / 2730.0 / 479001600.0,
)

_ZETA_CHUNK = 1 << 16


def _hz(s: float, q: float) -> float:
    total = float(np.sum((_EM_K + q) ** -s))
    a = q + _EM_TERMS
    total += a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
    rising = s
    apow = a ** (-s - 1.0)
    for j, coef in enumerate(_EM_COEF):
        total += coef * rising * apow
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
        apow /= a * a
    return total


def _hz_many(s: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta over an array of shift values, chunked to bound memory.

    The direct terms are reduced along the contiguous axis so the rounding
    of each element is independent of how many neighbors share the call.
    """
    q = np.asarray(q, dtype=np.float64)
    shape = q.shape
    q = np.ravel(q)
    out = np.empty(q.shape, dtype=np.float64)
    for start in range(0, q.size, _ZETA_CHUNK):
        block = q[start:start + _ZETA_CHUNK]
        total = np.sum((block[:, None] + _EM_K[None, :]) ** -s, axis=1)
        a = block + _EM_TERMS
        total += a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s
        rising = s
        apow = a ** (-s - 1.0)
        for j, coef in enumerate(_EM_COEF):
            total += coef * rising * apow
            rising *= (s + 2 * j + 1) * (s + 2 * j + 2)
            apow /= a * a
        out[start:start + _ZETA_CHUNK] = total
    return out.reshape(shape)


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
    return _hz(alpha, float(q))


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
        # evaluated through the same vectorized path as ccdf/cdf numerators
        # so that ccdf(x_min) is exactly 1.0, not one ulp off
        return float(_hz_many(self.alpha, np.array([float(self.x_min)]))[0])

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
        tail = _hz_many(self.alpha, np.maximum(x, self.x_min))
        return tail / self.normalizer

    def cdf(self, x) -> np.ndarray:
        """P(X <= x) for integer x; 0 below x_min."""
        x = np.asarray(x, dtype=np.float64)
        tail = _hz_many(self.alpha, np.maximum(x + 1.0, self.x_min))
        return 1.0 - tail / self.normalizer


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


def _mle_alpha(log_sum: float, n_tail: int, q: int) -> tuple[float, float]:
    """Maximize the tail log-likelihood -a*S - n*log(zeta(a, q)) over a."""
    qf = float(q)
    # closed-form approximation as the initializer; exact only for large q
    denom = log_sum - n_tail * np.log(qf - 0.5)
    alpha0 = 1.0 + n_tail / denom if denom > 0 else 2.0

    def negll(a: float) -> float:
        return a * log_sum + n_tail * np.log(_hz(a, qf))

    lo = 1.0 + 1e-9
    hi = max(10.0, alpha0 + 5.0) if np.isfinite(alpha0) else 10.0
    while True:
        res = minimize_scalar(negll, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-9})
        if res.x < hi - 1e-4 or hi >= 512.0:
            break
        hi *= 2.0
    return float(res.x), float(-res.fun)


def _tail_ks(values: np.ndarray, suffix_n: np.ndarray, alpha: float, q: int) -> float:
    """KS distance between the empirical tail CDF and the model CDF.

    ``values``/``suffix_n`` are the unique tail values (>= q) and their tail
    counts; both CDFs are compared at the observed values.
    """
    n_tail = suffix_n[0]
    ecdf = (n_tail - np.append(suffix_n[1:], 0)) / n_tail
    z_q = _hz(alpha, float(q))
    mcdf = 1.0 - _hz_many(alpha, values.astype(np.float64) + 1.0) / z_q
    return float(np.max(np.abs(ecdf - mcdf)))


@dataclass(frozen=True, slots=True)
class _ScanResult:
    x_min: int
    alpha: float
    ks: float
    log_likelihood: float
    n_tail: int


def _fit_at(index: _TailIndex, i: int) -> _ScanResult:
    q = int(index.values[i])
    n_tail = int(index.suffix_n[i])
    alpha, ll = _mle_alpha(float(index.suffix_logsum[i]), n_tail, q)
    ks = _tail_ks(index.values[i:], index.suffix_n[i:], alpha, q)
    return _ScanResult(q, alpha, ks, ll, n_tail)


def _scan(positive_sorted: np.ndarray, min_tail: int) -> _ScanResult:
    """Pick x_min among observed values by KS minimization; ties go small."""
    if positive_sorted.size == 0:
        raise ValueError("insufficient tail")
    index = _TailIndex(positive_sorted)
    m = index.values.size
    floor = max(int(min_tail), 2)
    candidates = np.nonzero((index.suffix_n >= floor)
                            & (np.arange(m) <= m - 2))[0]
    if candidates.size == 0:
        raise ValueError("insufficient tail")
    best: _ScanResult | None = None
    for i in candidates:
        result = _fit_at(index, int(i))
        if best is None or result.ks < best.ks:
            best = result
    return best


def _fit_fixed(positive_sorted: np.ndarray, x_min: int) -> _ScanResult:
    x_min = int(x_min)
    if x_min < 1:
        raise ValueError("x_min must be a positive integer")
    tail = positive_sorted[positive_sorted >= x_min]
    if tail.size == 0:
        raise ValueError("empty tail")
    index = _TailIndex(tail)
    if index.values.size < 2:
        raise ValueError("degenerate tail")
    alpha, ll = _mle_alpha(float(index.suffix_logsum[0]), tail.size, x_min)
    # the tail is conditioned on x >= x_min even when x_min is not observed
    ks = _tail_ks(index.values, index.suffix_n, alpha, x_min)
    return _ScanResult(x_min, alpha, ks, ll, int(tail.size))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def fit_alpha(sample: CitationSample, x_min: int) -> tuple[float, float]:
    """Exact discrete MLE of the exponent on the tail x >= x_min.

    Returns ``(alpha, log_likelihood)``.  The maximizer is located to well
    within 1e-6.
    """
    res = _fit_fixed(_positive_part(sample.counts), x_min)
    return res.alpha, res.log_likelihood


def ks_distance(sample: CitationSample, model: DiscretePowerLaw) -> float:
    """Max |empirical tail CDF - model CDF| over observed tail values."""
    tail = sample.tail(model.x_min)
    if tail.size == 0:
        raise ValueError("empty tail")
    index = _TailIndex(tail)
    return _tail_ks(index.values, index.suffix_n, model.alpha, model.x_min)


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

    alpha_sd = 0.0
    x_min_sd = 0.0
    if bootstrap_reps > 0:
        pairs = _replicates(_bootstrap_chunk, (counts, seed, min_tail, x_min),
                            bootstrap_reps, workers)
        alphas = np.array([p[0] for p in pairs])
        xmins = np.array([p[1] for p in pairs])
        valid = ~np.isnan(alphas)
        if valid.sum() >= 2:
            alpha_sd = float(np.std(alphas[valid], ddof=1))
            x_min_sd = float(np.std(xmins[valid], ddof=1))
    return PowerLawFit(main.x_min, main.alpha, main.n_tail, main.ks,
                       alpha_sd, x_min_sd, main.log_likelihood)


# ---------------------------------------------------------------------------
# Random variates: exact inverse-CDF with a cumulative table, extended on
# demand, plus an exact integer search for draws beyond the table.
# ---------------------------------------------------------------------------

_TABLE_START = 1 << 10
_TABLE_CAP = 1 << 23


def _table_draws(cdf_fn, q: int, u: np.ndarray, invert=None) -> np.ndarray:
    """Smallest x >= q with CDF(x) >= u_i, for each uniform draw u_i.

    ``cdf_fn(xs)`` is the CDF at the consecutive integers ``xs`` starting
    at q.  The table doubles until it covers the largest draw or reaches
    _TABLE_CAP entries; ``invert(u_i)`` places each draw beyond it.
    """
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    u_max = float(u.max())
    size = _TABLE_START
    while True:
        cdf = cdf_fn(np.arange(q, q + size, dtype=np.float64))
        if cdf[-1] >= u_max or size >= _TABLE_CAP:
            break
        size *= 2
    idx = np.searchsorted(cdf, u, side="left")
    out = q + idx.astype(np.int64)
    beyond = idx >= size
    if beyond.any():
        if invert is None:
            raise ValueError("tail mass beyond table capacity; rate too small")
        out[beyond] = [invert(float(v)) for v in u[beyond]]
    return out


def _first_int(q: int, done) -> int:
    """Smallest integer x >= q with ``done(x)``, for a predicate monotone in x.

    Doubling brackets the answer and bisection pins it; a bracket past the
    int64 range raises instead of overflowing the caller's array.
    """
    lo = q
    hi = max(2 * q, q + 1)
    while not done(hi):
        lo = hi + 1
        hi *= 2
        if hi > 1 << 62:
            raise ValueError(
                "sampled value exceeds the integer range; "
                "the tail is too heavy for exact inversion")
    while lo < hi:
        mid = (lo + hi) // 2
        if done(mid):
            hi = mid
        else:
            lo = mid + 1
    return int(lo)


def _tail_draws(alpha: float, q: int, u: np.ndarray) -> np.ndarray:
    """Power-law variates on x >= q by inversion of the uniforms u."""
    z_q = _hz(alpha, float(q))

    def invert(v: float) -> int:
        # P(X > x) = zeta(alpha, x + 1) / zeta(alpha, q)
        target = (1.0 - v) * z_q
        return _first_int(q, lambda x: _hz(alpha, float(x + 1)) <= target)

    return _table_draws(lambda xs: np.cumsum(xs ** -alpha) / z_q, q, u, invert)


def sample_power_law(model: DiscretePowerLaw, n: int, seed: int) -> CitationSample:
    """Draw n exact variates from the discrete power law, deterministically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = derived_rng(seed, DOMAIN_SAMPLING, 0)
    u = rng.random(int(n))
    x = _tail_draws(model.alpha, model.x_min, u)
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
