"""Summary statistics shared by the steadiness command and its tests.

quartiles() is statistics.quantiles(values, n=4) -- the definition the
spread rule of BENCHMARK.json is stated in.
"""
import statistics


def quartiles(values):
    """(q1, median, q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def max_deviation(values):
    """Largest distance of a value from the median, as a share of the median."""
    med = statistics.median(values)
    if not med:
        return 0.0
    return max(abs(v - med) for v in values) / abs(med)


def worsening(first, second, better):
    """How much worse median(second) is than median(first), as a share of
    median(first); negative when it is better."""
    a = statistics.median(first)
    b = statistics.median(second)
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change
