"""Chain statistics and cross-sampler variance comparisons.

The central quantity is the asymptotic variance of a chain's running
mean, estimated as IACT times the marginal variance.  The comparison
harness treats sampler-ordering claims as statistical checks with
explicit error bars — estimated variances are noisy, so orderings are
asserted only up to a stated multiple of the combined uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "SeriesStats",
    "series_stats",
    "compare_chains",
    "format_comparison",
]

BATCH_COUNT = 8  # spread estimate for a single series


@dataclass(frozen=True, eq=False)
class SeriesStats:
    """Moments and mixing summary of one scalar series.

    ``asymptotic_variance = iact * variance`` estimates the variance
    constant of the running mean's CLT; ``standard_error`` applies it
    to this series' own length.
    """

    length: int
    mean: float
    variance: float
    autocorrelations: np.ndarray
    iact: float
    asymptotic_variance: float

    @property
    def standard_error(self) -> float:
        return math.sqrt(self.asymptotic_variance / self.length)


def _autocovariances(series: np.ndarray, n_lags: int) -> np.ndarray:
    """Biased sample autocovariances, lags 0..n_lags, via FFT."""
    n = series.size
    centered = series - series.mean()
    size = 1
    while size < 2 * n:
        size *= 2
    transform = np.fft.rfft(centered, size)
    acov = np.fft.irfft(transform * np.conj(transform), size)[: n_lags + 1]
    return acov / n


def series_stats(series) -> SeriesStats:
    """Mean, variance, autocorrelations and IACT of a scalar series.

    The autocorrelation sum is truncated at the first nonpositive sum
    of adjacent lag pairs (Geyer's initial positive sequence), which
    keeps the IACT nonnegative.  A constant series has IACT 1 and
    asymptotic variance 0 by convention.
    """
    series = np.asarray(series, float).ravel()
    n = series.size
    if n < 10:
        raise ParameterError("series too short for mixing statistics")
    if not np.all(np.isfinite(series)):
        raise ParameterError("series contains non-finite values")
    mean = float(series.mean())
    # test constancy directly: for values whose mean rounds (e.g. 3.7),
    # the centered residuals are rounding noise, not signal, and the
    # autocorrelations computed from them would be meaningless
    if np.all(series == series[0]):
        return SeriesStats(
            length=n,
            mean=mean,
            variance=0.0,
            autocorrelations=np.zeros(0),
            iact=1.0,
            asymptotic_variance=0.0,
        )
    max_lag = n - 1
    acov = _autocovariances(series, max_lag)
    variance = float(acov[0])
    if variance <= 0.0:
        return SeriesStats(
            length=n,
            mean=mean,
            variance=0.0,
            autocorrelations=np.zeros(0),
            iact=1.0,
            asymptotic_variance=0.0,
        )
    rho = acov / variance

    n_pairs = (max_lag + 1) // 2
    pairs = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    cut = np.flatnonzero(pairs <= 0.0)
    keep = cut[0] if cut.size else n_pairs
    iact = 2.0 * float(np.sum(pairs[:keep])) - 1.0
    window = max(2 * keep - 1, 0)
    iact = max(iact, 0.0)

    return SeriesStats(
        length=n,
        mean=mean,
        variance=variance,
        autocorrelations=rho[1 : window + 1].copy(),
        iact=iact,
        asymptotic_variance=iact * variance,
    )


# ---------------------------------------------------------------------------
# Cross-sampler comparison


def _spread(values: np.ndarray) -> float:
    if values.size < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _series_group_stats(series_list) -> dict:
    """Asymptotic-variance summary of one sampler's replicate series."""
    stats = [series_stats(s) for s in series_list]
    asvars = np.array([s.asymptotic_variance for s in stats])
    iacts = np.array([s.iact for s in stats])
    if asvars.size >= 2:
        se = _spread(asvars)
    else:
        # single series: batch it to get a spread estimate
        series = np.asarray(series_list[0], float)
        batches = np.array_split(series, BATCH_COUNT)
        batch_asvars = np.array(
            [series_stats(b).asymptotic_variance for b in batches]
        )
        se = _spread(batch_asvars)
    return {
        "n_series": int(asvars.size),
        "asvar_mean": float(asvars.mean()),
        "asvar_se": se,
        "iact_mean": float(iacts.mean()),
    }


def compare_chains(traces: dict, tolerance: float = 2.0) -> dict:
    """Compare estimator series of several samplers on one target.

    ``traces`` maps a sampler name to a list of replicate estimator
    series.  Each sampler gets an asymptotic-variance estimate with a
    spread (across replicates, or across batches when only one series
    is given); every unordered pair is then compared, reporting whether
    the first (alphabetically) exceeds the second by more than
    ``tolerance`` times the combined spread.
    """
    if len(traces) < 2:
        raise ParameterError("need at least two traces to compare")

    names = sorted(traces)
    per_series = {name: _series_group_stats(traces[name]) for name in names}

    pairs = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            a, b = per_series[first], per_series[second]
            combined = math.hypot(
                0.0 if math.isnan(a["asvar_se"]) else a["asvar_se"],
                0.0 if math.isnan(b["asvar_se"]) else b["asvar_se"],
            )
            difference = a["asvar_mean"] - b["asvar_mean"]
            pairs.append(
                {
                    "first": first,
                    "second": second,
                    "difference": difference,
                    "combined_error": combined,
                    "first_within_second": bool(
                        difference <= tolerance * combined
                    ),
                    "second_within_first": bool(
                        -difference <= tolerance * combined
                    ),
                }
            )

    return {"series": per_series, "pairs": pairs, "tolerance": tolerance}


def format_comparison(report: dict) -> str:
    """Human-readable table of a `compare_chains` report."""
    lines = [f"{'sampler':<16}{'asvar':>14}{'spread':>12}{'IACT':>10}{'runs':>6}"]
    for name, row in report["series"].items():
        lines.append(
            f"{name:<16}{row['asvar_mean']:>14.6g}{row['asvar_se']:>12.3g}"
            f"{row['iact_mean']:>10.3g}{row['n_series']:>6d}"
        )
    lines.append("")
    tol = report["tolerance"]
    for pair in report["pairs"]:
        verdict = "<=" if pair["first_within_second"] else ">"
        lines.append(
            f"{pair['first']} {verdict} {pair['second']} + {tol}*err "
            f"(diff {pair['difference']:.6g}, err {pair['combined_error']:.3g})"
        )
    return "\n".join(lines)
