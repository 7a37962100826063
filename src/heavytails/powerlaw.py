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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._constants import DEFAULT_BOOTSTRAP_REPS, DEFAULT_MIN_TAIL
from ._rng import DOMAIN_BOOTSTRAP, DOMAIN_SAMPLING, derived_rng
from .dataset import CitationSample, _at_least

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

# Euler-Maclaurin evaluation of the Hurwitz zeta: for integer q < _EM_TERMS
# a direct sum of k**-s over q <= k < _EM_TERMS, added from the top, then
# integral + trapezoid + Bernoulli corrections B2..B12 from a = max(q,
# _EM_TERMS) on.  Since a >= 64, the result and both derivatives are within
# 1e-13 relative of mpmath's for s in (1, 30].  The direct sum is the last
# column of a running sum over _K, so _ks reads every q < _EM_TERMS of one s
# off one such row.
_EM_TERMS = 64
_K = np.arange(_EM_TERMS - 1, 0, -1, dtype=np.float64)
_NEG_LOG_K = -np.log(_K)
_EM_COEF = (
    1.0 / 6.0 / 2.0,
    -1.0 / 30.0 / 24.0,
    1.0 / 42.0 / 720.0,
    -1.0 / 30.0 / 40320.0,
    5.0 / 66.0 / 3628800.0,
    -691.0 / 2730.0 / 479001600.0,
)
_ZETA_CHUNK = 1 << 11


def _zeta(s, q, derivs: bool = False) -> np.ndarray:
    """Hurwitz zeta over broadcast ``s`` and ``q``: shape ``(1,) + shape``,
    or ``(3,) + shape`` with the first two s-derivatives (``derivs``).  A q
    below _EM_TERMS must be a positive integer.

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
        term = _K ** -s[near, None]
        term[_K < q[near, None]] = 0.0
        out[0, near] = np.cumsum(term, axis=1)[:, -1]
        if derivs:
            # each s-derivative multiplies k**-s by -log(k)
            term *= _NEG_LOG_K
            out[1, near] = np.sum(term, axis=1)
            term *= _NEG_LOG_K
            out[2, near] = np.sum(term, axis=1)
    a = np.maximum(q, _EM_TERMS)
    # where a**(1-s) underflows the rest adds exactly 0; a tame s there
    # keeps the Horner factors below, which overflow for huge s, finite
    e1 = a ** (1.0 - s)
    s = np.where(e1 == 0.0, 2.0, s)
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
    # a**-s F = a**(1-s) (1/(s-1) + (1/2 + (s/a) h) / a): one rounded power
    # and factors that each fall with a, so the value never rises with q
    out[0] += e1 * (inv + (0.5 + s * h / a) / a)
    if derivs:
        e = e1 / a
        f = a * inv + 0.5 + s * h / a
        # Leibniz rule, with (a**-s)' = -log(a) a**-s
        f1 = (h + s * h1) / a - a * inv * inv
        f2 = (2.0 * h1 + s * h2) / a + 2.0 * a * inv ** 3
        lg = -np.log(a)
        out[1] += e * (f1 + lg * f)
        out[2] += e * (f2 + lg * (2.0 * f1 + lg * f))


def _exponent(alpha) -> float:
    """alpha as a float; ValueError unless it is finite and above 1, where
    the power law is normalizable."""
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha <= 1.0:
        raise ValueError("non-normalizable")
    return alpha


def hurwitz_zeta(alpha: float, q: int) -> float:
    """Sum of (k + q)**(-alpha) over k = 0, 1, 2, ...

    Absolute error is below 1e-12 for alpha > 1.  Raises for alpha <= 1,
    where the series diverges, and for a non-finite alpha.
    """
    alpha = _exponent(alpha)
    return float(_zeta(alpha, _at_least(q, 1, "q"))[0])


@dataclass(frozen=True, slots=True)
class DiscretePowerLaw:
    """Power law on integers x >= x_min with a finite exponent alpha > 1."""

    x_min: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "x_min", _at_least(self.x_min, 1, "x_min"))
        object.__setattr__(self, "alpha", _exponent(self.alpha))

    @property
    def normalizer(self) -> float:
        # the same kernel element as the ccdf/cdf numerator at x_min, so
        # that ccdf(x_min) is exactly 1.0
        return float(_zeta(self.alpha, self.x_min)[0])

    def pmf(self, x) -> np.ndarray:
        """P(X = x); 0 below x_min and off the integers."""
        x = np.asarray(x, dtype=np.float64)
        # clipping keeps 0 ** -alpha and negative bases out of the power
        inside = np.maximum(x, self.x_min) ** -self.alpha / self.normalizer
        return np.where(self._support(x), inside, 0.0)

    def logpmf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = (-self.alpha * np.log(np.maximum(x, self.x_min))
                  - np.log(self.normalizer))
        return np.where(self._support(x), inside, -np.inf)

    def _support(self, x: np.ndarray) -> np.ndarray:
        return (x >= self.x_min) & (np.floor(x) == x)

    def ccdf(self, x) -> np.ndarray:
        """P(X >= x); 1 at and below x_min."""
        # _zeta takes integer q below 64, and X >= x means X >= ceil(x)
        x = np.ceil(np.asarray(x, dtype=np.float64))
        tail = _zeta(self.alpha, np.maximum(x, self.x_min))[0]
        return tail / self.normalizer

    def cdf(self, x) -> np.ndarray:
        """P(X <= x); 0 below x_min."""
        return 1.0 - self.ccdf(np.floor(np.asarray(x, dtype=np.float64)) + 1.0)


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
    """Distinct positive values of one or more samples, each with its tail
    size, the count above it, its tail log-sum, the rank of its first
    observation, and the end of its sample's values; built from a digest,
    the distinct values and their multiplicities."""

    __slots__ = ("values", "suffix_n", "above", "suffix_logsum", "rank",
                 "end")

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values = values
        self.suffix_n = np.cumsum(counts[::-1])[::-1]
        self.above = self.suffix_n - counts
        logsums = counts * np.log(values.astype(np.float64))
        self.suffix_logsum = np.cumsum(logsums[::-1])[::-1]
        self.rank = counts.sum() - self.suffix_n
        self.end = np.full(values.size, values.size)

    @classmethod
    def join(cls, indexes: list) -> "_TailIndex":
        """One index over several samples; every tail stays in its sample."""
        if len(indexes) == 1:
            return indexes[0]
        out = cls.__new__(cls)
        for name in ("values", "suffix_n", "above", "suffix_logsum"):
            setattr(out, name,
                    np.concatenate([getattr(ix, name) for ix in indexes]))
        shift = np.cumsum([0] + [ix.values.size for ix in indexes])
        ranks = np.cumsum([0] + [ix.suffix_n[0] for ix in indexes])
        out.end = np.concatenate([ix.end + s for ix, s in zip(indexes, shift)])
        out.rank = np.concatenate([ix.rank + r
                                   for ix, r in zip(indexes, ranks)])
        return out


def _distinct(sample: CitationSample,
              least: int) -> tuple[np.ndarray, np.ndarray]:
    """The digest of a sample's values at or above ``least``: its distinct
    values, ascending, and their multiplicities, as read-only slices of the
    sample's own.  Raises ValueError when there is none."""
    start = np.searchsorted(sample.values, least)
    if start == sample.values.size:
        raise ValueError("empty tail")
    return sample.values[start:], sample.multiplicities[start:]


_ALPHA_LO, _ALPHA_HI = 1.0 + 1e-9, 512.0
_NEWTON_CAP = 100
_KS_PAIRS = 1 << 12
# A tail's KS bound looks at its first _PROBE values and at _PROBE quantiles
# of its observations.  One solve holds at most about _SPAN_VALUES unique
# values, and a span has at least _SPAN_MIN replicates.  CHANGES.md gives
# the measurements behind these three and the sizes of _KS_PAIRS and
# _ZETA_CHUNK, which bound the working memory of a solve.
_PROBE = 8
_SPAN_VALUES = 1 << 12
_SPAN_MIN = 32


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
        z_q: np.ndarray, probe: bool = False) -> np.ndarray:
    """KS distance of each tail, the values from ``starts[c]`` to the end of
    its sample, from its model with exponent alpha[c] and normalizer z_q[c],
    at the observed values.

    With ``probe``, only the tail's first _PROBE values and the values at
    _PROBE evenly spaced quantiles of its observations count.  A pair's
    distance has the same bits either way, so that is a lower bound on the
    KS, and the KS itself for tails of up to 2 _PROBE values.  The kernel
    takes the (candidate, value) pairs in groups of _KS_PAIRS, a long tail
    over several groups.  The model CDF at a value below _EM_TERMS - 1 is
    read off its candidate's running sum of k**-alpha, which has the bits of
    _zeta's.
    """
    length = index.end[starts] - starts
    sizes = np.minimum(length, 2 * _PROBE) if probe else length
    ends = np.cumsum(sizes)
    heads = ends - sizes
    ks = np.full(starts.size, -np.inf)
    total = int(sizes.sum())
    for lo in range(0, total, _KS_PAIRS):
        hi = min(lo + _KS_PAIRS, total)
        # the candidates holding pairs lo .. hi - 1, and how many each
        cand = np.arange(np.searchsorted(ends, lo, side="right"),
                         np.searchsorted(ends, hi, side="left") + 1)
        held = np.minimum(ends[cand], hi) - np.maximum(heads[cand], lo)
        c = np.repeat(cand, held)
        k = np.arange(lo, hi) - heads[c]
        s = starts[c]
        j = s + k
        if probe:
            i = k - (_PROBE - 1)
            far = (i > 0) & (length[c] > 2 * _PROBE)
            # the value holding observation rank[s] + n i / (_PROBE + 1)
            target = (index.rank[s[far]] + index.suffix_n[s[far]] * i[far]
                      // (_PROBE + 1))
            j[far] = np.searchsorted(index.rank, target, side="right") - 1
        q = index.values[j] + 1.0
        near = q < _EM_TERMS
        # a table row for each candidate with near pairs, and one kernel
        # call for the far pairs and each row's zeta(alpha, _EM_TERMS)
        has = np.zeros(cand.size, dtype=bool)
        has[c[near] - cand[0]] = True
        rows = cand[has]
        n_far = q.size - np.count_nonzero(near)
        kernel = _zeta(np.concatenate([alpha[c[~near]], alpha[rows]]),
                       np.concatenate([q[~near],
                                       np.full(rows.size, _EM_TERMS)]))[0]
        zeta = np.empty(q.size)
        zeta[~near] = kernel[:n_far]
        if rows.size:
            r = (np.cumsum(has) - 1)[c[near] - cand[0]]
            table = np.cumsum(_K ** -alpha[rows, None], axis=1)
            col = (_EM_TERMS - 1) - q[near].astype(np.intp)
            zeta[near] = table[r, col] + kernel[n_far:][r]
        n = index.suffix_n[s]
        dist = np.abs((n - index.above[j]) / n - (1.0 - zeta / z_q[c]))
        part = np.maximum.reduceat(dist, np.cumsum(held) - held)
        ks[cand] = np.maximum(ks[cand], part)
    return ks


def _argmins(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """np.argmin of each segment x[bounds[i]:bounds[i + 1]]."""
    return np.array([a + int(np.argmin(x[a:b]))
                     for a, b in zip(bounds[:-1], bounds[1:])], dtype=np.intp)


def _best_fits(tails: list) -> list[PowerLawFit]:
    """The candidate fit with the smallest KS (the first of ties, SDs 0) of
    each sample in ``tails``, a list of ``_candidates`` results.

    One MLE solve and one KS bound serve every candidate.  Each sample's
    candidates queue in ascending order of bound.  In rounds, the full KS is
    computed for the queued candidates at the next 1, 2, 4, ... places of
    each sample's queue.  Then every queued candidate whose bound exceeds
    its sample's least KS so far leaves the queue: its KS is at least its
    bound, so it is larger than the winner's.  The rounds end when every
    queue is empty.
    """
    index = _TailIndex.join([t[0] for t in tails])
    shift = np.cumsum([0] + [t[0].values.size for t in tails])
    starts = np.concatenate([t[1] + s for t, s in zip(tails, shift)])
    q = np.concatenate([t[2] for t in tails])
    bounds = np.cumsum([0] + [t[1].size for t in tails])
    n = index.suffix_n[starts]
    alpha, ll, z = _mle(index.suffix_logsum[starts], n, q)
    bound = _ks(index, starts, alpha, z, probe=True)
    sample = np.repeat(np.arange(len(tails)), np.diff(bounds))
    # each candidate's place in its sample's queue, by bound: equal bounds
    # share a place, and a NaN bound comes last and never leaves, as a NaN
    # KS is no bar and np.argmin picks a NaN.  The places come from a sort
    # and a search, not an argsort, whose numpy code would add up to 128 kB
    # to a command's peak RSS.
    place = np.concatenate([np.searchsorted(np.sort(bound[a:b]), bound[a:b])
                            for a, b in zip(bounds[:-1], bounds[1:])])
    ks, end, queue = np.full(bound.size, np.inf), 1, np.arange(bound.size)
    while queue.size:
        head = place[queue] < end
        todo, queue, end = queue[head], queue[~head], 2 * end + 1
        ks[todo] = _ks(index, starts[todo], alpha[todo], z[todo])
        best = ks[_argmins(ks, bounds)]
        queue = queue[~(bound[queue] > best[sample[queue]])]
    return [PowerLawFit(int(q[b]), float(alpha[b]), int(n[b]), float(ks[b]),
                        0.0, 0.0, float(ll[b]))
            for b in _argmins(ks, bounds)]


def _candidates(values: np.ndarray, counts: np.ndarray, min_tail: int,
                x_min: int | None = None) -> tuple:
    """(index, starts, q): the tail index of one sample's digest, and the
    positions and values of its x_min candidates.

    The candidates are the observed values whose tail holds at least
    max(min_tail, 2) observations, the largest value excepted, or the pinned
    ``x_min`` alone; the caller has checked both.  Raises ValueError when
    there is none.
    """
    # zeros stay in the sample for descriptive statistics but never enter a
    # tail: log x is undefined at 0.  A value a replicate did not draw has
    # multiplicity 0.
    keep = (values >= (x_min or 1)) & (counts > 0)
    index = _TailIndex(values[keep], counts[keep])
    if x_min is None:
        m = index.values.size
        starts = np.nonzero((index.suffix_n >= max(min_tail, 2))
                            & (np.arange(m) <= m - 2))[0]
        if starts.size == 0:
            raise ValueError("insufficient tail")
        return index, starts, index.values[starts]
    if index.values.size < 2:
        raise ValueError("degenerate tail")
    # the tail is conditioned on x >= x_min even when x_min is not observed
    return index, np.zeros(1, dtype=np.intp), np.array([x_min])


def _fit_each(draw, replicates, min_tail: int,
              x_min: int | None) -> list[PowerLawFit | None]:
    """The best fit of each replicate r in ``replicates``, given as its
    digest ``draw(r)``, in order; None for one without a usable tail.

    Only each replicate's tail index is kept.  Replicates are solved
    together, about _SPAN_VALUES distinct values at a time.
    """
    fits, batch, slots = [], [], []
    held = 0
    for values, counts in map(draw, replicates):
        try:
            batch.append(_candidates(values, counts, min_tail, x_min))
        except ValueError:
            fits.append(None)
            continue
        slots.append(len(fits))
        fits.append(None)
        held += batch[-1][0].values.size
        if held >= _SPAN_VALUES:
            for slot, fit in zip(slots, _best_fits(batch)):
                fits[slot] = fit
            batch, slots, held = [], [], 0
    if batch:
        for slot, fit in zip(slots, _best_fits(batch)):
            fits[slot] = fit
    return fits


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def fit_alpha(sample: CitationSample, x_min: int) -> tuple[float, float]:
    """Exact discrete MLE of the exponent on the tail x >= x_min.

    Returns ``(alpha, log_likelihood)``.  alpha is the root of the
    likelihood score, found by safeguarded Newton to within rounding.
    """
    fit = fit_power_law(sample, x_min=_at_least(x_min, 1, "x_min"),
                        bootstrap_reps=0)
    return fit.alpha, fit.log_likelihood


def ks_distance(sample: CitationSample, model: DiscretePowerLaw) -> float:
    """Max |empirical tail CDF - model CDF| over observed tail values."""
    ks = _ks(_TailIndex(*_distinct(sample, model.x_min)),
             np.zeros(1, dtype=np.intp),
             np.array([model.alpha]), _zeta(model.alpha, model.x_min))
    return float(ks[0])


def _replicates(draw, total: int, workers: int, min_tail: int,
                x_min: int | None) -> list[PowerLawFit | None]:
    """_fit_each over replicates 0..total-1: their fits, or None, in order.

    Spans of at least _SPAN_MIN replicates go to up to ``workers``
    processes, so ``draw`` must pickle, and a job of fewer than 2 _SPAN_MIN
    runs in process.  Each draw seeds itself from (seed, domain, r), so
    neither the spans nor the worker count can change a result.
    """
    parts = workers * 4 if workers > 1 else 1
    spans = max(1, min(parts, total // _SPAN_MIN))
    edges = np.linspace(0, total, spans + 1).astype(int)
    jobs = [range(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    solve = partial(_fit_each, draw, min_tail=min_tail, x_min=x_min)
    # the fork start method launches every requested process up front
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(solve, jobs))
    else:
        chunks = [solve(job) for job in jobs]
    return [fit for chunk in chunks for fit in chunk]


def _resample(values, p, n: int, seed: int, r: int) -> tuple:
    """Bootstrap replicate r: n draws with replacement from a sample whose
    distinct values have shares ``p``, as their multiplicities."""
    rng = derived_rng(seed, DOMAIN_BOOTSTRAP, r)
    return values, rng.multinomial(n, p)


def fit_power_law(sample: CitationSample, *,
                  x_min: int | None = None,
                  min_tail: int = DEFAULT_MIN_TAIL,
                  bootstrap_reps: int = DEFAULT_BOOTSTRAP_REPS,
                  seed: int = 0,
                  workers: int = 1) -> PowerLawFit:
    """Fit x_min and alpha, with bootstrap standard deviations.

    x_min is chosen among distinct observed values whose tail holds at
    least ``min_tail`` observations, minimizing the KS distance of the
    tail's own MLE fit; pass ``x_min`` to pin it instead.  Uncertainties
    are standard deviations over ``bootstrap_reps`` refits of replicates,
    each n draws with replacement from the sample, taken as one multinomial
    over its distinct values (``bootstrap_reps=0`` skips the bootstrap and
    reports 0.0).  A replicate without a usable tail carries no estimate,
    and the SDs stay 0.0 unless at least two replicates have one.  The
    result is identical for any ``workers`` count.

    ``x_min``, ``min_tail``, ``bootstrap_reps``, ``seed`` and ``workers``
    must be whole numbers: a fraction or a bool raises ValueError, and 5.0
    is read as 5.
    """
    if x_min is not None:
        x_min = _at_least(x_min, 1, "x_min")
    min_tail = _at_least(min_tail, 0, "min_tail")
    bootstrap_reps = _at_least(bootstrap_reps, 0, "bootstrap_reps")
    workers = _at_least(workers, 1, "workers")
    # a pinned x_min takes its tail's digest, which is empty past the data
    main = _best_fits([_candidates(*_distinct(sample, x_min or 0), min_tail,
                                   x_min)])[0]

    if bootstrap_reps > 0:
        values, mult = sample.values, sample.multiplicities
        n = len(sample)
        fits = _replicates(partial(_resample, values, mult / n, n, seed),
                           bootstrap_reps, workers, min_tail, x_min)
        # a replicate without a usable tail carries no estimate
        valid = [fit for fit in fits if fit is not None]
        if len(valid) >= 2:
            alphas = np.array([fit.alpha for fit in valid])
            xmins = np.array([float(fit.x_min) for fit in valid])
            main = replace(main, alpha_sd=float(np.std(alphas, ddof=1)),
                           x_min_sd=float(np.std(xmins, ddof=1)))
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
    """Draw n exact variates from the discrete power law, deterministically.

    ``n`` and ``seed`` must be whole numbers: a fraction or a bool raises
    ValueError, and 5.0 is read as 5.
    """
    n = _at_least(n, 1, "n")
    seed = _at_least(seed, 0, "seed")  # the label's seed: 3.0 as 3
    rng = derived_rng(seed, DOMAIN_SAMPLING, 0)
    x = _tail_draws(model.alpha, model.x_min, n, rng)
    label = f"powerlaw(x_min={model.x_min}, alpha={model.alpha:g}, seed={seed})"
    return CitationSample(x, label=label)


def ccdf_table(sample: CitationSample, model: DiscretePowerLaw) -> list[tuple[int, float, float]]:
    """Rows (x, empirical CCDF, model CCDF) over the observed tail support."""
    index = _TailIndex(*_distinct(sample, model.x_min))
    emp = index.suffix_n / index.suffix_n[0]
    mod = model.ccdf(index.values)
    return [(int(x), float(e), float(m))
            for x, e, m in zip(index.values, emp, mod)]
