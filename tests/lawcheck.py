"""Law checks: a sampled subroutine's empirical law against its closed form.

A change to how a subroutine reads its random stream keeps no bytes, but it
must keep the law of what it returns.  A law check draws a fixed number of
samples at a fixed seed and compares their counts with the closed form by
Pearson's chi-squared, pooling adjacent cells of the support until each
expects at least MIN_EXPECTED samples.  The check passes when the p-value is
at least ALPHA.
"""
import math

import numpy as np
import pytest

ALPHA = 1e-3
MIN_EXPECTED = 5.0


def chi2_pvalue(samples, support, probs) -> float:
    """The chi-squared p-value of `samples` against the law P(support[i]) = probs[i].

    `support` must ascend.  A sample off the support has probability 0 under
    the law, so the p-value is 0.
    """
    chisquare = pytest.importorskip("scipy.stats").chisquare
    samples, support = np.asarray(samples), np.asarray(support)
    index = np.minimum(np.searchsorted(support, samples), len(support) - 1)
    if not np.array_equal(support[index], samples):
        return 0.0
    observed = np.bincount(index, minlength=len(support))
    expected = np.asarray(probs, dtype=float) / math.fsum(probs) * len(samples)
    cells, seen, want = [], 0, 0.0
    for o, e in zip(observed, expected):
        seen, want = seen + o, want + e
        if want >= MIN_EXPECTED:
            cells.append([seen, want])
            seen, want = 0, 0.0
    if cells:   # a short tail joins the last full cell
        cells[-1][0] += seen
        cells[-1][1] += want
    if len(cells) < 2:
        raise ValueError("too few samples for two cells of the law")
    obs, exp = np.array(cells).T
    return float(chisquare(obs, exp).pvalue)


def median_law(probs, reps: int) -> np.ndarray:
    """The law of the median of `reps` (odd) independent draws from `probs`, on
    the same ascending support: the median is at most the i-th value when at
    least reps // 2 + 1 of the draws are."""
    cdf = np.cumsum(np.asarray(probs, dtype=float) / math.fsum(probs))
    upto = sum(math.comb(reps, j) * cdf**j * (1.0 - cdf) ** (reps - j) for j in range(reps // 2 + 1, reps + 1))
    return np.clip(np.diff(upto, prepend=0.0), 0.0, None)
