"""Small statistics helpers used across the analyses."""

from __future__ import annotations

from dataclasses import dataclass


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (like numpy's default)."""
    if not values:
        raise ValueError("quantile of empty list")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} out of [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    # This form is exact when both neighbors are equal (no FP drift).
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def nan_median(values) -> float:
    """Median of the values that are not NaN; NaN when none is."""
    measured = [value for value in values if value == value]
    return median(measured) if measured else float("nan")


@dataclass(frozen=True)
class BoxplotStats:
    """The five numbers of the paper's Figure 2 boxes: quartiles plus
    10th/90th-percentile whiskers."""

    whisker_low: float   # 10th percentile
    q1: float
    median: float
    q3: float
    whisker_high: float  # 90th percentile
    n: int

    @classmethod
    def from_values(cls, values: list[float]) -> "BoxplotStats":
        return cls(
            whisker_low=quantile(values, 0.10),
            q1=quantile(values, 0.25),
            median=quantile(values, 0.50),
            q3=quantile(values, 0.75),
            whisker_high=quantile(values, 0.90),
            n=len(values),
        )


def bootstrap_ci(
    values: list[float],
    statistic=None,
    n_boot: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for a statistic.

    Defaults to the mean.  Used to put error bars on the reproduced
    fractions, since the reproduction runs far fewer VPs than the paper.
    """
    import random as _random

    if not values:
        raise ValueError("bootstrap of empty list")
    if statistic is None:
        statistic = lambda vs: sum(vs) / len(vs)  # noqa: E731
    rng = _random.Random(seed)
    n = len(values)
    replicates = []
    for _ in range(n_boot):
        sample = [values[rng.randrange(n)] for _ in range(n)]
        replicates.append(statistic(sample))
    return (
        quantile(replicates, alpha / 2.0),
        quantile(replicates, 1.0 - alpha / 2.0),
    )
