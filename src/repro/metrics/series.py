"""Per-second latency series and recovery detection (Figs. 9/10 analysis)."""

from __future__ import annotations

import math

from dataclasses import dataclass

#: a recovered series is back within this factor of its stable band ...
RECOVERY_FACTOR = 1.6
#: ... for this many consecutive seconds
RECOVERY_SUSTAIN = 3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (rank = ceil(p/100 * N)); 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if pct <= 0:
        return ordered[0]
    if pct >= 100:
        return ordered[-1]
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


@dataclass
class LatencySeries:
    """Per-second percentile series computed from raw collector data."""

    seconds: list[int]
    p50: list[float]
    p99: list[float]

    @classmethod
    def from_latencies(cls, latencies: dict[int, list[float]],
                       start: int = 0, end: int | None = None) -> "LatencySeries":
        """Build per-second p50/p99 from raw latency samples."""
        if end is None:
            end = max(latencies) + 1 if latencies else start
        seconds, p50s, p99s = [], [], []
        for second in range(start, end):
            values = latencies.get(second, [])
            seconds.append(second)
            p50s.append(percentile(values, 50))
            p99s.append(percentile(values, 99))
        return cls(seconds, p50s, p99s)

    def series(self, pct: int) -> list[float]:
        """The p50 or p99 column, selected by percentile."""
        if pct == 50:
            return self.p50
        if pct == 99:
            return self.p99
        raise ValueError("only p50 and p99 series are tracked")

    def stable_band(self, before: float) -> float:
        """Median of the per-second p50 values before time ``before``."""
        values = [v for s, v in zip(self.seconds, self.p50) if s < before and v > 0]
        return percentile(values, 50) if values else 0.0

    def recovery_time(self, detected_at: float) -> float:
        """Seconds from detection until the p50 returns to the stable band.

        Back means within ``RECOVERY_FACTOR`` of the band for
        ``RECOVERY_SUSTAIN`` consecutive seconds.  Returns -1 if the
        series never re-stabilises within the run — the paper reports
        exactly this for high-skew runs ("none of the protocols managed
        to recover within the time frame").
        """
        band = self.stable_band(detected_at)
        if band <= 0:
            return -1.0
        threshold = band * RECOVERY_FACTOR
        run = 0
        for second, value in zip(self.seconds, self.p50):
            if second <= detected_at:
                continue
            if 0 < value <= threshold:
                run += 1
                if run >= RECOVERY_SUSTAIN:
                    return (second - RECOVERY_SUSTAIN + 1) - detected_at
            else:
                run = 0
        return -1.0

    def is_growing(self, start: int, end: int) -> bool:
        """Heuristic backpressure check: the tail of the window's p50 more
        than twice its head."""
        window = [
            v for s, v in zip(self.seconds, self.p50) if start <= s < end and v > 0
        ]
        if len(window) < 4:
            return False
        half = len(window) // 2
        head = percentile(window[:half], 50)
        tail = percentile(window[half:], 50)
        return head > 0 and tail > head * 2.0
