"""Alternative tail models and likelihood-ratio comparison.

Three competing families for the tail x >= x_min: lognormal, exponential,
and a power law with exponential cutoff.  Continuous families are
discretized onto the integers by CDF differences over [x - 1/2, x + 1/2]
and renormalized over the tail support, keeping them commensurable with
the discrete power law.  Comparison uses the normalized (Vuong)
likelihood-ratio test for the non-nested families and a chi-square test
for the nested cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp, ndtri_exp
from scipy.stats import chi2, norm

from ._rng import DOMAIN_SAMPLING, derived_rng
from .dataset import CitationSample
from .powerlaw import (_EM_COEF, _INT_LIMIT, PowerLawFit, _as_counts, _mle,
                       _rejection, _tail_draws, _zeta, _zipf_proposals)

__all__ = [
    "FAMILIES",
    "SIGNIFICANCE",
    "AltFit",
    "ModelComparison",
    "fit_alternative",
    "compare_models",
    "sample_alternative",
]

FAMILIES = ("lognormal", "exponential", "powerlaw_cutoff")
SIGNIFICANCE = 0.10

_SWEEP_CAP = 10_000
_PARAM_TOL = 1e-7


@dataclass(frozen=True, slots=True)
class AltFit:
    """Fitted alternative; params are (mu, sigma), (rate,) or (alpha, rate)."""

    family: str
    params: tuple[float, ...]
    x_min: int
    log_likelihood: float


@dataclass(frozen=True, slots=True)
class ModelComparison:
    """One Table-4-style row: positive lr favors the power law."""

    alternative: str
    lr: float
    z: float | None
    p: float
    verdict: str
    note: str | None = None


# ---------------------------------------------------------------------------
# Discretized log-mass functions, normalized over x >= x_min.
# ---------------------------------------------------------------------------

def _lognormal_logpmf(x: np.ndarray, mu: float, sigma: float, q: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a = (np.log(x - 0.5) - mu) / sigma
    b = (np.log(x + 0.5) - mu) / sigma
    la = norm.logsf(a)
    lb = norm.logsf(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(sf(a) - sf(b)) without cancellation in the far tail
        lw = la + np.log1p(-np.exp(np.minimum(lb - la, 0.0)))
    lz = norm.logsf((np.log(q - 0.5) - mu) / sigma)
    return lw - lz


def _exponential_logpmf(x: np.ndarray, rate: float, q: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return -rate * (x - q) + np.log(-np.expm1(-rate))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_EM_REMAINDER_COEF = 7.0 / 6.0 / 87178291200.0  # B14 / 14!


def _log_upper_gamma(a: float, z: float) -> float:
    """log of the upper incomplete gamma Gamma(a, z), any real a, z > 0.

    Substituting t = z e^v gives z^a * int_0^inf exp(a v - z e^v) dv with a
    smooth integrand and no endpoint singularity.  Composite Gauss-Legendre
    with panel widths capped at 4 / max|exponent slope| keeps each panel's
    quadrature error below 1e-15 relative.  Unlike the Gamma(a) * Q(a, z)
    factoring, this has no poles to dodge at nonpositive integer a.
    """
    abs_a = abs(a)
    # beyond t = z e^v of this size the exponent sits > 60 below its peak
    v_hi = float(np.log1p((150.0 + 5.0 * abs_a) / z))
    edges = [0.0]
    v = 0.0
    g_peak = -z
    while v < v_hi:
        t = z * np.exp(v)
        g = a * v - t
        if t > a and g < g_peak - 60.0:
            break
        g_peak = max(g_peak, g)
        v = min(v + min(1.0, 4.0 / (abs_a + 2.8 * t)), v_hi)
        edges.append(v)
    mid = (np.asarray(edges[1:]) + np.asarray(edges[:-1])) / 2.0
    half = (np.asarray(edges[1:]) - np.asarray(edges[:-1])) / 2.0
    vs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    g = a * vs - z * np.exp(vs)
    m = float(np.max(g))
    return a * float(np.log(z)) + m + float(np.log(np.dot(ws, np.exp(g - m))))


def _em_tail_log(alpha: float, rate: float, big_x: int) -> tuple[float, bool]:
    """Euler-Maclaurin value of log sum_{x>=X} x^(-alpha) e^(-rate x).

    Returns (value, ok); ok is False when the first omitted correction is
    not negligible and the caller must fall back to direct summation.
    """
    xf = float(big_x)
    log_i = (alpha - 1.0) * float(np.log(rate)) + _log_upper_gamma(1.0 - alpha, rate * xf)
    log_f = -alpha * float(np.log(xf)) - rate * xf
    # f^(k)(x) = f(x) P_k(1/x) with rate folded into the coefficients:
    # P_0 = 1, P_{k+1} = P_k' - (alpha/x + rate) P_k
    coef = np.zeros((14, 14))
    coef[0, 0] = 1.0
    for k in range(13):
        coef[k + 1, 1:] -= (np.arange(13) + alpha) * coef[k, :13]
        coef[k + 1, :] -= rate * coef[k, :]
    deriv = coef @ xf ** -np.arange(14.0)
    corr = 0.5
    for j, c in enumerate(_EM_COEF):
        corr -= c * deriv[2 * j + 1]
    remainder = _EM_REMAINDER_COEF * abs(float(deriv[13]))
    tail_over_f = float(np.exp(min(log_i - log_f, 700.0)))
    if corr <= 0.0 or remainder > 1e-13 * (corr + tail_over_f):
        return 0.0, False
    return float(np.logaddexp(log_i, log_f + np.log(corr))), True


def _cutoff_log_z_series(alpha: float, rate: float, q: int) -> float:
    log_total = -np.inf
    x0 = q
    block = 4096
    # geometric remainder bound is valid once terms decay by at least
    # e^(-rate/2) per step, i.e. past x = 2*max(0, -alpha)/rate
    decay_from = max(q, int(2.0 * max(0.0, -alpha) / rate) + 1)
    log_ratio_gap = -rate / 2.0 - np.log(-np.expm1(-rate / 2.0))
    while True:
        xs = np.arange(x0, x0 + block, dtype=np.float64)
        log_total = np.logaddexp(log_total, logsumexp(-alpha * np.log(xs) - rate * xs))
        x0 += block
        if x0 >= decay_from:
            log_rem = -alpha * np.log(x0) - rate * x0 + log_ratio_gap
            if log_rem < log_total - 30.0:
                return float(log_total)
        # large rates finish in a few blocks; growing blocks keep the block
        # count logarithmic when more terms are needed
        block = min(block * 2, 1 << 22)


def _cutoff_log_z(alpha: float, rate: float, q: int) -> float:
    """log of Z = sum_{x>=q} x^(-alpha) e^(-rate x), to relative 1e-12."""
    if rate == 0.0:
        if alpha <= 1.0:
            return np.inf  # divergent; caller treats as invalid
        return float(np.log(_zeta(alpha, q)[0]))
    if rate < 0.25:
        # direct summation needs ~1/rate terms here; Euler-Maclaurin after
        # 64 leading terms is O(1)
        big_x = q + 64
        xs = np.arange(q, big_x, dtype=np.float64)
        head = logsumexp(-alpha * np.log(xs) - rate * xs)
        tail, ok = _em_tail_log(alpha, rate, big_x)
        if ok:
            return float(np.logaddexp(head, tail))
    return _cutoff_log_z_series(alpha, rate, q)


def _cutoff_logpmf(x: np.ndarray, alpha: float, rate: float, q: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return -alpha * np.log(x) - rate * x - _cutoff_log_z(alpha, rate, q)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _tail_summary(sample: CitationSample, x_min: int):
    tail = sample.tail(x_min)
    if tail.size == 0:
        raise ValueError("empty tail")
    values, counts = np.unique(tail, return_counts=True)
    return tail, values.astype(np.float64), counts.astype(np.float64)


def _descend(negll, start, bounds):
    """Coordinate descent with bounded Brent per coordinate.

    Accepts only improving moves; stops when a full sweep moves no
    coordinate by more than _PARAM_TOL.  After each sweep a line search
    along the sweep's total displacement takes a pattern step: plain
    sweeps crawl along curved likelihood valleys (the lognormal drifts
    with mu ~ -sigma^2 on power-law-like tails), and the pattern step
    restores geometric progress there.
    """
    x = [float(v) for v in start]
    fx = float(negll(x))
    # the objective may be +inf at a box edge; fminbound's parabola
    # arithmetic then produces transient nans that it discards itself
    with np.errstate(invalid="ignore"):
        return _descend_loop(negll, x, fx, bounds)


def _descend_loop(negll, x, fx, bounds):
    for _ in range(_SWEEP_CAP):
        base = list(x)
        moved = 0.0
        for i in range(len(x)):
            def along(t, i=i):
                trial = list(x)
                trial[i] = t
                return negll(trial)
            res = minimize_scalar(along, bounds=bounds[i], method="bounded",
                                  options={"xatol": 1e-9})
            if res.fun < fx:
                moved = max(moved, abs(float(res.x) - x[i]))
                x[i] = float(res.x)
                fx = float(res.fun)
        step = [a - b for a, b in zip(x, base)]
        reach = _box_reach(x, step, bounds)
        if reach > 0.0:
            def extrapolate(t):
                return negll([a + t * d for a, d in zip(x, step)])
            res = minimize_scalar(extrapolate, bounds=(0.0, reach),
                                  method="bounded", options={"xatol": 1e-9})
            if res.fun < fx:
                t = float(res.x)
                moved = max(moved, max(abs(t * d) for d in step))
                x = [a + t * d for a, d in zip(x, step)]
                fx = float(res.fun)
        if moved < _PARAM_TOL:
            return x, -fx
    raise RuntimeError(f"fit did not converge after {_SWEEP_CAP} sweeps "
                       f"(last point {x}, -ll {fx})")


def _box_reach(x, step, bounds):
    """Largest t >= 0 keeping x + t * step inside the bounds box."""
    reach = np.inf
    for a, d, (lo, hi) in zip(x, step, bounds):
        if d > 0.0:
            reach = min(reach, (hi - a) / d)
        elif d < 0.0:
            reach = min(reach, (lo - a) / d)
    if not np.isfinite(reach):
        return 0.0
    return max(reach, 0.0)


def _fit_lognormal(values, counts, q):
    if values.size < 2:
        raise ValueError("degenerate tail")
    n = counts.sum()
    logs = np.log(values)
    mu0 = float(np.sum(counts * logs) / n)
    sigma0 = float(np.sqrt(np.sum(counts * (logs - mu0) ** 2) / n))
    sigma0 = max(sigma0, 1e-2)

    def negll(p):
        mu, sigma = p
        lw = _lognormal_logpmf(values, mu, sigma, q)
        if not np.all(np.isfinite(lw)):
            return np.inf
        return -float(np.sum(counts * lw))

    bounds = [(mu0 - 200.0, mu0 + 50.0), (1e-3, 100.0)]
    (mu, sigma), ll = _descend(negll, (mu0, sigma0), bounds)
    return AltFit("lognormal", (mu, sigma), q, ll)


def _fit_exponential(values, counts, q):
    n = counts.sum()
    mean_excess = float(np.sum(counts * (values - q)) / n)
    if mean_excess <= 0:
        raise ValueError("degenerate tail")
    # closed-form MLE of the geometric tail: rate = log(1 + 1/mean(x - q))
    rate = float(np.log1p(1.0 / mean_excess))
    ll = float(np.sum(counts * _exponential_logpmf(values, rate, q)))
    return AltFit("exponential", (rate,), q, ll)


def _fit_cutoff(values, counts, q, anchor=None):
    """Cutoff MLE; ``anchor`` is an externally fitted (alpha, ll) of the
    nested pure power law, used as an exact likelihood floor."""
    if values.size < 2:
        raise ValueError("degenerate tail")
    n = counts.sum()
    log_sum = float(np.sum(counts * np.log(values)))
    lin_sum = float(np.sum(counts * values))
    if anchor is None:
        alpha, ll, _ = _mle([log_sum], [n], [q])
        alpha_pl, ll_pl = float(alpha[0]), float(ll[0])
    else:
        alpha_pl, ll_pl = anchor

    def negll(p):
        alpha, rate = p
        lz = _cutoff_log_z(alpha, rate, q)
        if not np.isfinite(lz):
            return np.inf
        return alpha * log_sum + rate * lin_sum + n * lz

    bounds = [(-5.0, 30.0), (0.0, 10.0)]
    try:
        (alpha, rate), ll = _descend(negll, (alpha_pl, 0.0), bounds)
    except RuntimeError:
        alpha, rate, ll = alpha_pl, 0.0, ll_pl
    # the pure power law is the rate -> 0 member of this family, so its
    # likelihood is a floor; never report a worse-than-nested optimum
    if ll < ll_pl:
        alpha, rate, ll = alpha_pl, 0.0, ll_pl
    if rate < 1e-14:
        rate = 0.0
    return AltFit("powerlaw_cutoff", (alpha, rate), q, ll)


def fit_alternative(sample: CitationSample, x_min: int, family: str) -> AltFit:
    """MLE of a discretized alternative on the tail x >= x_min."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    x_min = int(x_min)
    if x_min < 1:
        raise ValueError("x_min must be a positive integer")
    _, values, counts = _tail_summary(sample, x_min)
    if family == "lognormal":
        return _fit_lognormal(values, counts, x_min)
    if family == "exponential":
        return _fit_exponential(values, counts, x_min)
    return _fit_cutoff(values, counts, x_min)


def _alt_logpmf(fit: AltFit, x: np.ndarray) -> np.ndarray:
    if fit.family == "lognormal":
        return _lognormal_logpmf(x, fit.params[0], fit.params[1], fit.x_min)
    if fit.family == "exponential":
        return _exponential_logpmf(x, fit.params[0], fit.x_min)
    return _cutoff_logpmf(x, fit.params[0], fit.params[1], fit.x_min)


# ---------------------------------------------------------------------------
# Likelihood-ratio comparison
# ---------------------------------------------------------------------------

def _vuong(d: np.ndarray, weights: np.ndarray) -> tuple[float, float, float]:
    """Normalized LR over pointwise differences d_i; returns (lr, z, p)."""
    n = weights.sum()
    lr = float(np.sum(weights * d))
    mean = lr / n
    var = float(np.sum(weights * (d - mean) ** 2) / n)
    if var <= 0.0:
        return lr, 0.0, 1.0
    z = lr / np.sqrt(n * var)
    return lr, float(z), float(2.0 * norm.sf(abs(z)))


def _verdict(lr: float, p: float) -> str:
    if p > SIGNIFICANCE or lr == 0.0:
        return "inconclusive"
    return "power_law_favored" if lr > 0 else "alternative_favored"


def compare_models(sample: CitationSample, pl: PowerLawFit,
                   alternatives: tuple[str, ...] = FAMILIES) -> list[ModelComparison]:
    """Likelihood-ratio tests of the fitted power law against alternatives.

    lr is the power-law tail log-likelihood minus the alternative's, both
    over the same tail.  Non-nested families get a two-sided normal p from
    the variance-normalized statistic; the nested cutoff gets a chi-square
    p on 2|lr| with one degree of freedom.
    """
    _, values, counts = _tail_summary(sample, pl.x_min)
    pl_logpmf = pl.model().logpmf(values)
    results = []
    for family in alternatives:
        if family == "powerlaw_cutoff":
            # anchoring at the caller's fit makes lr <= 0 exact, not merely
            # within float error of the independently recomputed optimum
            fit = _fit_cutoff(values, counts, pl.x_min,
                              anchor=(pl.alpha, pl.log_likelihood))
        else:
            fit = fit_alternative(sample, pl.x_min, family)
        alt_logpmf = _alt_logpmf(fit, values)
        d = pl_logpmf - alt_logpmf
        if family == "powerlaw_cutoff":
            lr = pl.log_likelihood - fit.log_likelihood
            p = float(chi2.sf(2.0 * abs(lr), df=1))
            results.append(ModelComparison(family, lr, None, p, _verdict(lr, p)))
        else:
            lr, z, p = _vuong(d, counts)
            note = None
            if z == 0.0 and p == 1.0 and lr == 0.0:
                note = "zero variance of pointwise log-likelihood differences"
            results.append(ModelComparison(family, lr, z, p,
                                           _verdict(lr, p), note))
    return results


# ---------------------------------------------------------------------------
# Random variates
# ---------------------------------------------------------------------------

def _geometric(rate: float, u: np.ndarray) -> np.ndarray:
    """Inversion of the geometric law P(K = k) ~ exp(-rate k) on k >= 0."""
    return np.floor(np.log1p(-u) / -rate)


def _cutoff_draws(alpha: float, rate: float, q: int, n: int, rng) -> np.ndarray:
    """Variates of x**-alpha exp(-rate x) on x >= q, by rejection from a
    Zipf(beta) envelope (b = beta, v = 0) or a geometric one (b = 0, v = nu).

    Over an envelope x**-b exp(-v x) the target is x**c exp(-d x), c = b -
    alpha and d = rate - v >= 0, whose maximum M is at max(q, c / d) if c > 0
    and at q otherwise.  The acceptance is Z_target / (M Z_envelope), so the
    envelope with the smaller M Z_envelope is used.
    """
    beta = max(alpha, 1.0 + 1.0 / np.log(np.e + 1.0 / rate))
    nu = rate / (1.0 + max(0.0, -alpha))
    envelopes = []
    for b, v, log_z in ((beta, 0.0, np.log(_zeta(beta, q)[0])),
                        (0.0, nu, -nu * q - np.log(-np.expm1(-nu)))):
        c, d = b - alpha, rate - v
        peak = max(q, c / d) if c > 0.0 else q
        log_m = c * np.log(peak) - d * peak
        envelopes.append((log_m + log_z, v, c, d, log_m))
    _, v, c, d, log_m = min(envelopes, key=lambda e: e[0])

    def propose(m):
        if v == 0.0:
            x, ok = _zipf_proposals(beta, q, m, rng)
        else:
            x, ok = q + _geometric(v, rng.random(m)), np.ones(m, dtype=bool)
        # the target mass past 2**62 underflows: such proposals are rejected
        x = np.minimum(x, _INT_LIMIT)
        keep = np.log1p(-rng.random(m)) <= c * np.log(x) - d * x - log_m
        return x, ok & keep & (x < _INT_LIMIT)

    return _as_counts(_rejection(n, propose))


def sample_alternative(fit: AltFit, n: int, seed: int) -> CitationSample:
    """Draw n deterministic variates from the discretized family."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = derived_rng(seed, DOMAIN_SAMPLING, 0)
    q = fit.x_min
    if fit.family == "exponential":
        rate = fit.params[0]
        if rate <= 0:
            raise ValueError("rate must be positive")
        x = q + _as_counts(_geometric(rate, rng.random(int(n))))
    elif fit.family == "lognormal":
        mu, sigma = fit.params
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        # the pmf is the mass on [x - 1/2, x + 1/2] of a lognormal Y truncated
        # to Y >= q - 1/2, so X is Y rounded, Y drawn from its log survival
        log_sf = np.log1p(-rng.random(int(n))) + norm.logsf(
            (np.log(q - 0.5) - mu) / sigma)
        with np.errstate(over="ignore"):
            y = np.exp(mu - sigma * ndtri_exp(log_sf))
        x = _as_counts(np.maximum(q, np.ceil(y - 0.5)))
    else:
        alpha, rate = fit.params
        if rate < 0:
            raise ValueError("rate must be nonnegative")
        if rate == 0.0:
            if alpha <= 1.0:
                raise ValueError("non-normalizable")
            x = _tail_draws(alpha, q, int(n), rng)
        else:
            x = _cutoff_draws(alpha, rate, q, int(n), rng)
    pretty = ",".join(f"{p:g}" for p in fit.params)
    return CitationSample(x, label=f"{fit.family}({pretty}, x_min={q}, seed={seed})")
