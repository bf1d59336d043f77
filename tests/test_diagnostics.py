"""Mixing statistics and the cross-sampler variance comparison harness.

Autocorrelation-time estimates are checked against the closed-form IACT
of AR(1) chains, (1 + phi) / (1 - phi), on both positively and
negatively correlated chains, plus the degenerate conventions (constant
series) that the samplers rely on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from mcis.diagnostics import compare_chains, format_comparison, series_stats
from mcis.errors import ParameterError
from mcis.rng import substream


def _ar1(phi: float, n: int, seed: int) -> np.ndarray:
    innovations = substream(seed, "ar1").standard_normal(n)
    return lfilter([1.0], [1.0, -phi], innovations)


# ---------------------------------------------------------------------------
# series_stats


def test_iid_series_has_unit_iact():
    series = substream(0, "iid").standard_normal(20_000)
    stats = series_stats(series)
    assert stats.length == series.size
    assert stats.mean == float(series.mean())
    assert stats.iact == pytest.approx(1.0, abs=0.1)
    assert stats.asymptotic_variance == pytest.approx(stats.variance, rel=0.1)
    assert stats.standard_error == pytest.approx(
        series.std() / math.sqrt(series.size), rel=0.1
    )


@pytest.mark.parametrize("phi", [0.6, -0.5])
def test_ar1_iact_matches_closed_form(phi):
    series = _ar1(phi, 200_000, seed=1)
    stats = series_stats(series)
    want_iact = (1.0 + phi) / (1.0 - phi)
    assert stats.iact == pytest.approx(want_iact, rel=0.15)
    want_var = 1.0 / (1.0 - phi * phi)
    assert stats.variance == pytest.approx(want_var, rel=0.05)


def test_constant_series_conventions():
    stats = series_stats(np.full(50, 3.7))
    assert stats.iact == 1.0
    assert stats.variance == 0.0
    assert stats.asymptotic_variance == 0.0
    assert stats.standard_error == 0.0
    assert stats.autocorrelations.size == 0


def test_antithetic_chain_has_near_zero_asymptotic_variance():
    # A perfectly alternating chain mixes better than iid sampling; the
    # paired truncation must not produce a negative IACT.
    series = np.resize([1.0, -1.0], 10_000)
    stats = series_stats(series)
    assert 0.0 <= stats.iact < 0.05
    assert stats.asymptotic_variance < 0.05


def test_series_stats_validation():
    with pytest.raises(ParameterError):
        series_stats(np.arange(9))
    with pytest.raises(ParameterError):
        series_stats(np.array([1.0, np.nan] + [0.0] * 10))


# ---------------------------------------------------------------------------
# compare_chains


def test_compare_chains_orders_by_asymptotic_variance():
    rng = substream(3, "cmp")
    traces = {
        "tight": [rng.standard_normal(4000) for _ in range(4)],
        "wide": [5.0 * rng.standard_normal(4000) for _ in range(4)],
    }
    report = compare_chains(traces)
    assert set(report["series"]) == {"tight", "wide"}
    tight = report["series"]["tight"]
    assert tight["n_series"] == 4
    assert tight["asvar_mean"] == pytest.approx(1.0, rel=0.2)
    assert tight["iact_mean"] == pytest.approx(1.0, abs=0.2)
    (pair,) = report["pairs"]
    assert (pair["first"], pair["second"]) == ("tight", "wide")
    assert pair["difference"] < 0
    assert pair["first_within_second"] is True
    assert pair["second_within_first"] is False
    assert report["tolerance"] == 2.0


def test_compare_chains_single_series_uses_batches():
    rng = substream(4, "single")
    report = compare_chains(
        {"a": [rng.standard_normal(8000)], "b": [rng.standard_normal(8000)]}
    )
    for row in report["series"].values():
        assert row["n_series"] == 1
        assert math.isfinite(row["asvar_se"]) and row["asvar_se"] > 0
    (pair,) = report["pairs"]
    # same law on both sides: neither direction should reject
    assert pair["first_within_second"] and pair["second_within_first"]


def test_compare_chains_validation():
    rng = substream(5, "val")
    with pytest.raises(ParameterError):
        compare_chains({"only": [rng.standard_normal(100)]})


def test_format_comparison_mentions_every_sampler():
    rng = substream(7, "fmt")
    report = compare_chains(
        {"alpha": [rng.standard_normal(500)], "beta": [rng.standard_normal(500)]}
    )
    text = format_comparison(report)
    assert "alpha" in text and "beta" in text
