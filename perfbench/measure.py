"""Summary statistics shared by run.py and agree.py."""

import statistics


def tail(samples, above=10):
    """The highest percentile that still has at least `above` samples above
    it, as (value, percentile, sample count); None when there are too few
    samples to leave `above` of them beyond any sample."""
    n = len(samples)
    if n <= above:
        return None
    ordered = sorted(samples)
    k = n - above - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def fold_best(best, pieces):
    """Fold one pass into the best time of each piece so far.  A pass is
    the list of durations of the same pieces of work in the same order;
    `best` starts as [].  Returns None, and keeps returning it, once two
    passes were cut into different numbers of pieces, so that their pieces
    cannot be matched up."""
    if best is None or (best and len(best) != len(pieces)):
        return None
    if not best:
        return list(pieces)
    return [min(a, b) for a, b in zip(best, pieces)]
