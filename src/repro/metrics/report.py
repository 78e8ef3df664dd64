"""ASCII rendering of experiment results (paper-style rows and series)."""

from __future__ import annotations

from typing import Any, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Render a fixed-width table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        # repro-lint: disable=RL007 -- -1.0 is an exact assigned "metric unavailable" sentinel, never arithmetic output
        if value == -1.0:
            return "n/a"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_series(label: str, seconds: Sequence[int], values: Sequence[float],
                  step: int = 5) -> str:
    """Render a compact per-second series of latencies in seconds, in ms
    (used for Figs. 9/10 output)."""
    points = [
        f"t={s:>3}s {v * 1000.0:8.1f}ms"
        for s, v in zip(seconds, values)
        if s % step == 0
    ]
    return f"{label}\n  " + "\n  ".join(points)


def shape_report(title: str, assertions: Sequence[tuple[str, bool]]) -> str:
    """Render pass/fail lines for the paper's qualitative shape claims."""
    lines = [title]
    for claim, ok in assertions:
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {claim}")
    return "\n".join(lines)


def format_recoveries(records) -> str:
    """One line per recovery: who failed when, detection, restore, cost.

    ``records`` are :class:`~repro.metrics.collectors.RecoveryRecord`
    objects in kill order; a recovery the run ended inside says so.  The
    CLI and the failure examples all share this rendering.
    """
    lines = []
    for number, record in enumerate(records, 1):
        workers = ", ".join(map(str, record.workers))
        parts = [f"    recovery {number}: worker"
                 f"{'s' * (len(record.workers) > 1)} {workers} failed at "
                 f"t={record.killed_at:.2f}s"]
        if record.detected_at is None:
            parts.append("not detected before the run ended")
        else:
            parts.append(f"detected t={record.detected_at:.2f}s")
            parts.append(
                "not applied before the run ended" if record.applied_at is None
                else f"applied t={record.applied_at:.2f}s "
                     f"(restart {record.restart_time * 1000:.0f} ms)")
            parts.append(f"invalid {record.invalid_checkpoints} of "
                         f"{record.total_checkpoints}, replayed "
                         f"{record.replayed_messages} messages")
            if record.rescale is not None:
                parts.append("rescaled {} -> {}".format(*record.rescale))
        lines.append(", ".join(parts))
    return "\n".join(lines)
