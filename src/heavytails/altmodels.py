"""Alternative tail models and likelihood-ratio comparison.

Three competing families for the tail x >= x_min: lognormal, exponential,
and a power law with exponential cutoff.  Continuous families are
discretized onto the integers by CDF differences over [x - 1/2, x + 1/2]
and renormalized over the tail support, keeping them commensurable with
the discrete power law.  Comparison uses the normalized (Vuong)
likelihood-ratio test for the non-nested families and a chi-square test
for the nested cutoff.  The normal tail masses come from one numpy kernel
for erfcx, so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._constants import FAMILIES, FAMILY_PARAMS
from ._rng import DOMAIN_SAMPLING, derived_rng
from .dataset import CitationSample, _at_least
from .powerlaw import (_INT_LIMIT, PowerLawFit, _as_counts, _distinct,
                       _exponent, _rejection, _tail_draws, _zeta,
                       _zipf_proposals, fit_alpha)

__all__ = [
    "FAMILIES",
    "SIGNIFICANCE",
    "AltFit",
    "ModelComparison",
    "fit_alternative",
    "compare_models",
    "sample_alternative",
]

SIGNIFICANCE = 0.10

_NEWTON_CAP = 500
# the cutoff's least alpha: the edge of its fit's box, and of the sampler,
# whose acceptance falls as about 1 / sqrt(-alpha)
_CUTOFF_ALPHA_MIN = -5.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


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
# The standard normal's tail, from one erfcx kernel
# ---------------------------------------------------------------------------

# Chebyshev coefficients c_k of g(y) = log(erfcx(x) / t), t = 2 / (2 + x),
# y = 2 t - 1 (Press et al., Numerical Recipes, 3rd ed., 6.2.2): the values
# at 40 digits of (2 / 64) sum_j g(y_j) T_k(y_j) over the 64 Chebyshev
# nodes y_j = cos(pi (j + 1/2) / 64), rounded to doubles.  g is c_0 / 2 +
# sum_k c_k T_k(y); the terms past these 28 sum to less than 4e-18.
_ERFCX_CHEB = (
    -1.3026537197817094, 0.6419697923564902, 0.019476473204185836,
    -0.009561514786808632, -0.0009465953444820369, 0.00036683949785276145,
    4.252332480690777e-05, -2.0278578112534242e-05, -1.6242900046470256e-06,
    1.3036558355805232e-06, 1.5626441722066142e-08, -8.523809591492654e-08,
    6.5290544390988515e-09, 5.059343495551469e-09, -9.91364156493033e-10,
    -2.273651222931836e-10, 9.646791102015527e-11, 2.3940380830391146e-12,
    -6.886027526497553e-12, 8.944879273090725e-13, 3.130921399342958e-13,
    -1.1270822361367252e-13, 3.810905255189232e-16, 7.106097613609237e-15,
    -1.5230282014571043e-15, -9.457494571291233e-17, 1.210237189224279e-16,
    -2.816663087747177e-17,
)


def _erfcx(x) -> np.ndarray:
    """erfcx(x) = exp(x^2) erfc(x): t exp(g(2 t - 1)) at |x| by Clenshaw's
    recurrence, and 2 exp(x^2) - erfcx(-x) for x < 0."""
    x = np.asarray(x, dtype=np.float64)
    t = 2.0 / (2.0 + np.abs(x))
    y2 = 4.0 * t - 2.0
    d = dd = 0.0
    for c in _ERFCX_CHEB[:0:-1]:
        d, dd = y2 * d - dd + c, d
    out = t * np.exp(0.5 * (y2 * d + _ERFCX_CHEB[0]) - dd)
    below = x < 0.0
    if below.any():
        with np.errstate(over="ignore"):
            out = np.where(below, 2.0 * np.exp(x * x) - out, out)
    return out


def _mills(z) -> np.ndarray:
    """Mills ratio sf(z) / pdf(z) of the standard normal; its reciprocal is
    the hazard pdf(z) / sf(z), and the inverse Mills ratio pdf(z) / cdf(z)
    is 1 / _mills(-z)."""
    return math.sqrt(0.5 * math.pi) * _erfcx(np.multiply(z, _SQRT_HALF))


def _log_ndtr(z) -> np.ndarray:
    """log cdf(z) of the standard normal, from log sf(|z|) = log erfcx(|z| /
    sqrt 2) - z^2 / 2 - log 2: itself for z < 0, log1p(-sf(|z|)) above."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        tail = np.log(_erfcx(np.abs(z) * _SQRT_HALF)) - 0.5 * z * z - math.log(2.0)
        return np.where(z < 0.0, tail, np.log1p(-np.exp(tail)))


# ---------------------------------------------------------------------------
# Discretized log-mass functions, normalized over x >= x_min.
# ---------------------------------------------------------------------------

def _lognormal_cells(x: np.ndarray, mu: float, sigma: float, q: int):
    """Standardized log cell edges a < b of x, the width b - a (not as a
    difference), c of q - 1/2, and the log masses log(sf(a) - sf(b)) and
    log sf(c)."""
    a = (np.log(x - 0.5) - mu) / sigma
    b = (np.log(x + 0.5) - mu) / sigma
    width = np.log1p(1.0 / (x - 0.5)) / sigma
    c = (np.log(q - 0.5) - mu) / sigma
    # the cell mass from its own side of the mode, sf(a) - sf(b) or, by
    # symmetry, sf(-b) - sf(-a): a difference of tail masses below 1/2;
    # a narrow cell's by its midpoint series pdf(m) 2h (1 + He2(m) h^2 / 3!
    # + He4(m) h^4 / 5!), whose next term is below 1e-15 of the sum
    left = b < 0.0
    # one kernel call for every edge: its cost is mostly per call
    ends = _log_ndtr(np.concatenate([np.where(left, b, -a),
                                     np.where(left, a, -b), [-c]]))
    la, lb, lc = ends[:x.size], ends[x.size:-1], ends[-1]
    m, h = (a + b) / 2.0, width / 2.0
    m2, h2 = m * m, h * h
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = np.where(h * np.maximum(np.abs(m), 1.0) < 0.01,
                      np.log(2.0 * h) - 0.5 * m2 - _LOG_SQRT_2PI
                      + np.log1p(h2 * (m2 - 1.0) / 6.0
                                 + h2 * h2 * (m2 * m2 - 6.0 * m2 + 3.0) / 120.0),
                      la + np.log(-np.expm1(lb - la)))
    return a, b, width, c, lw, lc


def _lognormal_logpmf(x: np.ndarray, mu: float, sigma: float, q: int) -> np.ndarray:
    *_, lw, lz = _lognormal_cells(np.asarray(x, dtype=np.float64), mu, sigma, q)
    return lw - lz


def _exponential_logpmf(x: np.ndarray, rate: float, q: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return -rate * (x - q) + np.log(-np.expm1(-rate))


# 20-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights, as numpy's leggauss(20) gives them, mirrored as it mirrors them
_GL_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628),
    (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824),
    (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186),
    (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471),
    (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446),
    (0.993128599185095, 0.017614007139150893),
])
_GL_NODES = np.r_[-_GL_HALF[::-1, 0], _GL_HALF[:, 0]]
_GL_WEIGHTS = np.r_[_GL_HALF[::-1, 1], _GL_HALF[:, 1]]
# B_2j / 2j, j = 1..6: Euler-Maclaurin's B_2j / (2j)! g^(2j-1) in terms of
# the Taylor coefficient t_(2j-1) = g^(2j-1) / (2j-1)!; B_14 / 14 is 1/12
_EM_TAYLOR = np.array([1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760])


def _moment_rows(one, u, d, mul=np.multiply):
    """The weights 1, u, d, u^2, u d, d^2 of the cutoff's moment sums,
    stacked on a new first axis; ``mul`` multiplies two weights."""
    return np.stack([one, u, d, mul(u, u), mul(u, d), mul(d, d)])


def _em_tail(alpha: float, rate: float, big_x: int, q: int):
    """Euler-Maclaurin sums over x >= X of f(x) = x^(-alpha) e^(-rate x)
    times each _moment_rows weight of u = log(x/q) and d = x - q: (shift,
    sums, bounds on their omitted remainders), in units of exp(shift)."""
    xf = float(big_x)
    z, abs_a = rate * xf, abs(2.0 - alpha) + 1.0
    # The integral is X f(X) int exp(g) w dv, g = (1 - alpha) v - z (e^v - 1).
    # Gauss-Legendre panels no wider than 4 / max|slope| keep each panel's
    # error below 1e-15 relative; past z e^v = z + 150 + 5 |a| every
    # integrand, up to the weight d^2 ~ e^(2v), is > 60 below its peak.
    v_hi = float(np.log1p((150.0 + 5.0 * abs_a) / z))
    edges = [0.0]
    while edges[-1] < v_hi:
        width = min(1.0, 4.0 / (abs_a + 2.8 * z * np.exp(edges[-1])))
        edges.append(min(edges[-1] + width, v_hi))
    edges = np.asarray(edges)
    half = (edges[1:] - edges[:-1]) / 2.0
    vs = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
    g = (1.0 - alpha) * vs - z * np.expm1(vs)
    m = max(float(np.max(g)), 0.0)
    integral = xf * (_moment_rows(np.ones_like(vs), np.log(xf / q) + vs,
                                  xf * np.exp(vs) - q)
                     @ ((half[:, None] * _GL_WEIGHTS).ravel() * np.exp(g - m)))
    # Taylor coefficients about X over f(X), of f w for each weight w: those
    # of x^-alpha, e^(-rate x) and the weights, multiplied by convolution
    def mul(a, b):
        return np.convolve(a, b)[:14]
    k = np.arange(1.0, 14.0)
    taylor_f = mul(np.cumprod(np.r_[1.0, (1.0 - alpha - k) / (k * xf)]),
                   np.cumprod(np.r_[1.0, -rate / k]))
    rows = _moment_rows(np.eye(14)[0], np.r_[np.log(xf / q), -(-1.0 / xf) ** k / k],
                        np.r_[xf - q, 1.0, np.zeros(12)], mul)
    taylor = np.array([mul(taylor_f, row) for row in rows])
    corr = 0.5 * taylor[:, 0] - taylor[:, 1:12:2] @ _EM_TAYLOR
    bound = np.abs(taylor[:, 13]) / 12.0
    log_f = -alpha * float(np.log(xf)) - rate * xf
    return log_f + m, integral + corr * np.exp(-m), bound * np.exp(-m)


def _cutoff_moments(alpha: float, rate: float, q: int):
    """log Z, Z = sum_{x>=q} x^(-alpha) e^(-rate x), and the mean (less
    (log q, q)) and covariance of (log x, x) under the cutoff pmf with
    rate > 0: 64 terms summed directly, the rest by Euler-Maclaurin, whose
    remainder bounds stay below 1e-15 of each sum for alpha in [-5, 30]
    (large rates only where e^(-64 rate) is nil)."""
    xs = np.arange(q, q + 64, dtype=np.float64)
    lf = -alpha * np.log(xs) - rate * xs
    head_shift = float(np.max(lf))
    tail_shift, tail, bound = _em_tail(alpha, rate, q + 64, q)
    shift = max(head_shift, tail_shift)
    scale = np.exp(tail_shift - shift)
    sums = (_moment_rows(np.ones(64), np.log(xs / q), xs - q)
            @ np.exp(lf - shift) + tail * scale)
    if not np.all(bound * scale <= 1e-15 * sums):
        raise ArithmeticError(f"no accurate cutoff normalizer at alpha {alpha}, "
                              f"rate {rate}, x_min {q}")
    e = sums[1:] / sums[0]
    cov = np.array([[e[2], e[3]], [e[3], e[4]]]) - np.outer(e[:2], e[:2])
    return shift + float(np.log(sums[0])), e[:2], cov


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _line_search(model, p, ll, step, lo, hi):
    """(point, model output) at the first of p + t step, projected onto the
    box, where ll does not decrease; None if none moves p.  t is 1, then
    the t (up to 1) at which the step first leaves the box, halved 59 times."""
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(step > 0.0, hi - p, lo - p) / step
    cut = np.min(reach, initial=1.0, where=reach > 0.0)
    for t in np.r_[1.0, cut * 0.5 ** np.arange(60)]:
        trial = np.clip(p + t * step, lo, hi)
        if np.array_equal(trial, p):
            return None
        out = model(trial)
        if out[0] >= ll:
            return trial, out
    return None


def _newton(model, start, lo, hi):
    """Maximize ll over the box [lo, hi] by safeguarded Newton (Nocedal &
    Wright, Numerical Optimization, 2nd ed., ch. 3); ``model(p)`` gives
    (ll, score, Hessian), ll = -inf where p is not admissible.

    The ascent step is the score over |diag Hessian|.  Coordinates that it
    carries out of the box take it, to the edge; the others take Newton's
    step where their Hessian is negative definite.  Where _line_search finds
    no point along that step, the ascent step is tried.  A first step whose
    first-order gain is within 1e-13 |ll| of zero is the last, and may lower
    ll by as much, its rounding error.
    """
    p = np.clip(np.asarray(start, dtype=np.float64), lo, hi)
    ll, g, h = model(p)
    for _ in range(_NEWTON_CAP):
        ascent = g / np.maximum(np.abs(np.diag(h)), 1e-300)
        free = (p + ascent >= lo) & (p + ascent <= hi)
        hf = h[np.ix_(free, free)]
        steps = [ascent]
        if free.any() and np.all(np.linalg.eigvalsh(hf) < 0.0):
            steps.insert(0, ascent.copy())
            steps[0][free] = np.linalg.solve(hf, -g[free])
        trial = np.clip(p + steps[0], lo, hi)
        if abs(g @ (trial - p)) <= 1e-13 * abs(ll):
            # a gain near what ll resolves: only its rounding is tested
            last = model(trial)[0]
            return (trial, last) if last >= ll - 1e-13 * abs(ll) else (p, ll)
        for step in steps:
            found = _line_search(model, p, ll, step, lo, hi)
            if found is not None:
                break
        else:
            return p, ll
        p, (ll, g, h) = found
    raise RuntimeError(f"fit did not converge after {_NEWTON_CAP} Newton steps "
                       f"(last point {p.tolist()}, ll {ll})")


def _lognormal_model(values, counts, q):
    """(ll, score, Hessian) in (mu, sigma^2) of the discretized lognormal,
    in which the ridge mu ~ -beta sigma^2 of power-law-like tails is straight.

    The log-pmf is log P - log sf(c), P = sf(a) - sf(b), with edges
    z = (log y - mu) / sigma, dz = -(1, z) / sigma, d2z = [[0, 1], [1, 2 z]]
    / sigma^2 in (mu, sigma).  Derivatives of log P come from r = pdf(b) / P
    and rd = (pdf(a) - pdf(b)) / P, so a narrow cell's curvature is not a
    difference of terms of order a^2."""
    n = counts.sum()

    def model(p):
        mu, sigma = p[0], float(np.sqrt(p[1]))
        a, b, width, c, lw, lc = _lognormal_cells(values, mu, sigma, q)
        ll = float(np.sum(counts * (lw - lc)))
        if not np.isfinite(ll):
            return -np.inf, None, None
        r = np.exp(-0.5 * b * b - _LOG_SQRT_2PI - lw)
        t = 0.5 * width * (a + b)  # pdf(a) - pdf(b) from the edge nearer the mode
        rd = (np.sign(t) * -np.expm1(-np.abs(t))
              * np.exp(-0.5 * np.minimum(a * a, b * b) - _LOG_SQRT_2PI - lw))
        rc = np.exp(-0.5 * c * c - _LOG_SQRT_2PI - lc)
        # log P: -rd and m are its slopes in a shift and a scale of the edges
        m = a * rd - width * r
        saa = m - rd * rd
        sab = r * (rd - b)
        sbb = -r * (b + r)
        s1 = n * rc - counts @ rd
        s2 = n * c * rc - counts @ m
        cc = n * rc * (rc - c)
        hmm = counts @ saa + cc
        hms = counts @ (saa * a + sab * width) + cc * c + s1
        hss = (counts @ (saa * a * a + 2.0 * sab * width * a + sbb * width * width)
               + cc * c * c + 2.0 * s2)
        # from (mu, sigma), where these are the score times sigma and the
        # Hessian times sigma^2, to (mu, sigma^2)
        j = np.array([1.0, 0.5 / sigma]) / sigma
        hess = np.array([[hmm, hms], [hms, hss + s2]]) * np.outer(j, j)
        return ll, -np.array([s1, s2]) * j, hess
    return model


def _fit_lognormal(values, counts, q):
    if values.size < 2:
        raise ValueError("degenerate tail")
    n = counts.sum()
    logs = np.log(values)
    mu0 = float(np.sum(counts * logs) / n)
    sigma0 = max(float(np.sqrt(np.sum(counts * (logs - mu0) ** 2) / n)), 1e-2)
    # the box mu0 - 200 <= mu <= mu0 + 50, 1e-3 <= sigma <= 100
    (mu, var), ll = _newton(_lognormal_model(values, counts, q), (mu0, sigma0 ** 2),
                            np.array([mu0 - 200.0, 1e-6]), np.array([mu0 + 50.0, 1e4]))
    return AltFit("lognormal", (float(mu), float(np.sqrt(var))), q, ll)


def _fit_exponential(values, counts, q):
    n = counts.sum()
    mean_excess = float(np.sum(counts * (values - q)) / n)
    if mean_excess <= 0:
        raise ValueError("degenerate tail")
    # closed-form MLE of the geometric tail: rate = log(1 + 1/mean(x - q))
    rate = float(np.log1p(1.0 / mean_excess))
    ll = float(np.sum(counts * _exponential_logpmf(values, rate, q)))
    return AltFit("exponential", (rate,), q, ll)


def _cutoff_model(values, counts, q):
    """(ll, score, Hessian) in (alpha, rate) of the cutoff, rate > 0: an
    exponential family in (alpha, rate), so the score is n (model mean - mean)
    of (log x, x) and the Hessian -n times their model covariance."""
    n = counts.sum()
    log_sum = float(np.sum(counts * np.log(values)))
    lin_sum = float(np.sum(counts * values))
    stats = np.array([np.sum(counts * np.log(values / q)),
                      np.sum(counts * (values - q))]) / n

    def model(p):
        alpha, rate = p
        if rate == 0.0:
            return -np.inf, None, None
        lz, mean, cov = _cutoff_moments(alpha, rate, q)
        ll = -float(alpha * log_sum + rate * lin_sum + n * lz)
        return ll, n * (mean - stats), -n * cov
    return model


def _fit_cutoff(values, counts, q, anchor):
    """Cutoff MLE.  ``anchor`` is the (alpha, ll) of the nested pure power
    law, as powerlaw fits it: the best point of the rate = 0 edge, so an
    exact floor.  The log-likelihood is concave, so the anchor is the
    optimum unless its rate score n (E[x] - mean x) is positive (E[x] is
    infinite for alpha <= 2).  Then _newton starts above the anchor, at
    rate 1 / max x, halved as needed, and never needs the edge."""
    if values.size < 2:
        raise ValueError("degenerate tail")
    alpha_pl, ll_pl = anchor
    nested = AltFit("powerlaw_cutoff", (alpha_pl, 0.0), q, ll_pl)
    if alpha_pl > 2.0:
        z, z_shift = _zeta([alpha_pl, alpha_pl - 1.0], q)[0]
        if z_shift <= z * float(np.sum(counts * values) / counts.sum()):
            return nested
    model = _cutoff_model(values, counts, q)
    lo, hi = np.array([_CUTOFF_ALPHA_MIN, 0.0]), np.array([30.0, 10.0])
    start = _line_search(model, np.array([alpha_pl, 0.0]), ll_pl,
                         np.array([0.0, 1.0 / values[-1]]), lo, hi)
    if start is None:
        return nested
    try:
        (alpha, rate), ll = _newton(model, start[0], lo, hi)
    except RuntimeError:
        return nested
    if ll < ll_pl:
        return nested
    return AltFit("powerlaw_cutoff", (float(alpha), float(rate)), q, ll)


def _check_families(families: tuple[str, ...]) -> None:
    """Raise ValueError if a family is named twice, or is not one of
    FAMILIES; the callers check before any fit."""
    repeated = sorted({f for f in families if families.count(f) > 1})
    if repeated:
        raise ValueError(f"repeated family: {', '.join(repeated)}")
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family: {family!r}")


def _fit(family: str, values, counts, q: int, anchor) -> AltFit:
    """MLE of one family, checked by the caller, on a tail's digest;
    ``anchor``, the nested power law's (alpha, ll), serves the cutoff."""
    if family == "lognormal":
        return _fit_lognormal(values, counts, q)
    if family == "exponential":
        return _fit_exponential(values, counts, q)
    return _fit_cutoff(values, counts, q, anchor)


def fit_alternative(sample: CitationSample, x_min: int, family: str) -> AltFit:
    """MLE of a discretized alternative on the tail x >= x_min; the cutoff
    nests at ``fit_alpha(sample, x_min)``, bit for bit where its rate is 0."""
    _check_families((family,))
    x_min = _at_least(x_min, 1, "x_min")
    values, counts = np.array(_distinct(sample, x_min), dtype=np.float64)
    anchor = fit_alpha(sample, x_min) if family == "powerlaw_cutoff" else None
    return _fit(family, values, counts, x_min, anchor)


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
    z = float(lr / np.sqrt(n * var))
    return lr, z, math.erfc(abs(z) * _SQRT_HALF)  # 2 sf(|z|)


def _chi2_1_sf(x: float) -> float:
    """Survival function of chi-square with one degree of freedom."""
    return math.erfc(math.sqrt(x / 2.0))


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
    p on 2|lr| with one degree of freedom.  A family that is unknown or
    named twice raises ValueError before any fit.
    """
    _check_families(alternatives)
    values, counts = np.array(_distinct(sample, pl.x_min),
                              dtype=np.float64)
    pl_logpmf = pl.model().logpmf(values)
    results = []
    for family in alternatives:
        # anchoring the cutoff at the caller's fit makes lr <= 0 exact, not
        # merely within float error of an independently recomputed optimum
        fit = _fit(family, values, counts, pl.x_min,
                   anchor=(pl.alpha, pl.log_likelihood))
        if family == "powerlaw_cutoff":
            lr = pl.log_likelihood - fit.log_likelihood
            p = _chi2_1_sf(2.0 * abs(lr))
            results.append(ModelComparison(family, lr, None, p, _verdict(lr, p)))
        else:
            logpmf = _lognormal_logpmf if family == "lognormal" else _exponential_logpmf
            lr, z, p = _vuong(pl_logpmf - logpmf(values, *fit.params, pl.x_min), counts)
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
    envelope with the smaller M Z_envelope is used.  Proposals are clipped
    to 2**62, and M is taken at or below it: a proposal accepted there makes
    _as_counts raise, as the target has mass past the integer range.
    """
    beta = max(alpha, 1.0 + 1.0 / np.log(np.e + 1.0 / rate))
    nu = rate / (1.0 + max(0.0, -alpha))
    envelopes = []
    for b, v, log_z in ((beta, 0.0, np.log(_zeta(beta, q)[0])),
                        (0.0, nu, -nu * q - np.log(-np.expm1(-nu)))):
        c, d = b - alpha, rate - v
        peak = min(max(q, c / d), _INT_LIMIT) if c > 0.0 else q
        log_m = c * np.log(peak) - d * peak
        envelopes.append((log_m + log_z, v, c, d, log_m))
    _, v, c, d, log_m = min(envelopes, key=lambda e: e[0])

    def propose(m):
        if v == 0.0:
            x, ok = _zipf_proposals(beta, q, m, rng)
        else:
            x, ok = q + _geometric(v, rng.random(m)), np.ones(m, dtype=bool)
        x = np.minimum(x, _INT_LIMIT)
        keep = np.log1p(-rng.random(m)) <= c * np.log(x) - d * x - log_m
        return x, ok & keep

    return _as_counts(_rejection(n, propose))


def _lognormal_draws(mu: float, sigma: float, q: int, n: int, rng) -> np.ndarray:
    """Variates of the discretized lognormal on x >= q: Y rounded, where Y
    is lognormal truncated to Y >= q - 1/2, and log Y = mu + sigma Z for a
    standard normal Z given Z >= c.  For c <= 0, Z is a normal proposal kept
    if Z >= c: at least half are.  Above, Z - c = E / lam is Robert's
    exponential proposal (Stat. Comput. 5:121, 1995), kept with probability
    exp(-(Z - lam)^2 / 2), Z - lam = E / lam + d, d = c - lam = -2 / (c +
    hypot(c, 2)); d is finite at c = inf, where every draw is q."""
    # in floats, not numpy: c is +-inf, with no warning, at sigma = 5e-324
    c = (math.log(q - 0.5) - mu) / sigma
    if c <= 0.0:
        def propose(m):
            z = rng.standard_normal(m)
            return np.exp(mu + sigma * z), z >= c
    else:
        d = -2.0 / (c + math.hypot(c, 2.0))

        def propose(m):
            excess = rng.standard_exponential(m) / (c - d)
            keep = 2.0 * rng.standard_exponential(m) >= (excess + d) ** 2
            # log Y from q - 1/2, not mu + sigma Z: mu + sigma c may cancel
            return (q - 0.5) * np.exp(sigma * excess), keep
    with np.errstate(over="ignore"):
        y = _rejection(n, propose)
    return _as_counts(np.maximum(q, np.ceil(y - 0.5)))


def sample_alternative(fit: AltFit, n: int, seed: int) -> CitationSample:
    """Draw n deterministic variates from the discretized family.

    x_min must be at least 1, and every parameter finite and inside the
    family's domain.  ``n``, ``seed`` and x_min must be whole numbers: a
    fraction or a bool raises ValueError, and 5.0 is read as 5.
    """
    n = _at_least(n, 1, "n")
    _check_families((fit.family,))
    names = FAMILY_PARAMS[fit.family]
    if len(fit.params) != len(names):
        raise ValueError(f"{fit.family} takes ({', '.join(names)}), "
                         f"got {fit.params}")
    q = _at_least(fit.x_min, 1, "x_min")
    if not np.all(np.isfinite(fit.params)):
        raise ValueError(f"{fit.family} parameters must be finite")
    seed = _at_least(seed, 0, "seed")  # the label's seed: 3.0 as 3
    rng = derived_rng(seed, DOMAIN_SAMPLING, 0)
    if fit.family == "exponential":
        rate = fit.params[0]
        if rate <= 0:
            raise ValueError("rate must be positive")
        x = q + _as_counts(_geometric(rate, rng.random(n)))
    elif fit.family == "lognormal":
        mu, sigma = fit.params
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        x = _lognormal_draws(float(mu), float(sigma), q, n, rng)
    else:
        alpha, rate = fit.params
        if rate < 0:
            raise ValueError("rate must be nonnegative")
        if rate > 0.0 and alpha < _CUTOFF_ALPHA_MIN:
            raise ValueError(f"alpha must be at least {_CUTOFF_ALPHA_MIN:g}")
        if rate == 0.0:
            x = _tail_draws(_exponent(alpha), q, n, rng)
        else:
            x = _cutoff_draws(alpha, rate, q, n, rng)
    pretty = ",".join(f"{p:g}" for p in fit.params)
    return CitationSample(x, label=f"{fit.family}({pretty}, x_min={q}, seed={seed})")
