"""Regression comparison and trajectory rendering over ``BENCH_*.json``.

:func:`load_report` reads any bench report the repo has ever checked in —
the unified ``repro-bench/1`` envelope or one of the legacy per-gate
schemas — and normalizes it to the envelope shape, synthesizing a
``headline`` for legacy reports from per-schema knowledge that lives
only here.

:func:`compare_reports` is the regression gate: NEW must pass its own
gate, and every headline metric the two reports share must stay inside
the band (``higher``-is-better metrics may drop at most ``band``
fractionally; ``lower``-is-better may rise at most ``band``).  Only
reports of the same kind compare: numbers from different gates measure
unrelated workloads, so a kind mismatch is an error, not a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.bench.writer import BENCH_SCHEMA

#: Default fractional regression band (20%).
DEFAULT_BAND = 0.2


@dataclass(frozen=True)
class BenchReport:
    """One bench report, normalized to the ``repro-bench/1`` shape."""

    path: str
    schema: str
    kind: str
    passed: bool
    headline: Dict[str, Dict[str, object]]
    raw: Dict[str, object]

    def metric_value(self, name: str) -> float:
        return float(self.headline[name]["value"])  # type: ignore[arg-type]


def _legacy_headline(
    schema: str, payload: Dict[str, object]
) -> Tuple[str, Dict[str, Dict[str, object]]]:
    """(kind, headline) synthesized from a legacy per-gate schema."""
    if schema in ("repro-bench-sweep/1", "repro-bench-sweep/2"):
        return "sweep", {
            "speedup": {"value": float(payload["speedup"]), "direction": "higher"},  # type: ignore[arg-type]
        }
    if schema == "repro-bench-memory/1":
        return "memory", {
            "rss_growth_bytes": {
                "value": float(payload["rss_growth_bytes"]),  # type: ignore[arg-type]
                "direction": "lower",
            },
        }
    if schema == "repro-bench-lint/1":
        return "lint", {
            "wall_seconds": {
                "value": float(payload["wall_seconds"]),  # type: ignore[arg-type]
                "direction": "lower",
            },
        }
    if schema == "repro-fault-gate/1":
        # The fault gate is binary (reports diverged or they did not);
        # nothing in it is a magnitude worth banding.
        return "fault", {}
    raise ValueError(f"unknown bench schema: {schema!r}")


def load_report(path: Union[str, Path]) -> BenchReport:
    """Read and normalize one bench report (unified or legacy schema)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = str(payload.get("schema", ""))
    if schema == BENCH_SCHEMA:
        kind = str(payload.get("kind", "?"))
        headline = {
            str(name): dict(metric)
            for name, metric in dict(payload.get("headline", {})).items()
        }
    else:
        kind, headline = _legacy_headline(schema, payload)
    return BenchReport(
        path=str(path),
        schema=schema,
        kind=kind,
        passed=bool(payload.get("passed", False)),
        headline=headline,
        raw=payload,
    )


@dataclass(frozen=True)
class CompareResult:
    """Outcome of one OLD-vs-NEW comparison, with per-metric verdicts."""

    ok: bool
    lines: Tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.lines)


def compare_reports(
    old: BenchReport, new: BenchReport, *, band: float = DEFAULT_BAND
) -> CompareResult:
    """Gate NEW against OLD: own gate passed, shared headline in band.

    Raises ``ValueError`` when the reports are of different kinds.
    """
    if old.kind != new.kind:
        raise ValueError(
            f"cannot compare a {old.kind!r} report ({old.path}) with a "
            f"{new.kind!r} report ({new.path}); compare same-kind reports only"
        )
    lines: List[str] = [
        f"bench compare: {old.path} -> {new.path} ({new.kind}), band {band:.0%}"
    ]
    ok = True
    if not new.passed:
        ok = False
        lines.append(f"  FAIL {new.path}: its own gate did not pass")
    common = sorted(set(old.headline) & set(new.headline))
    if not common:
        lines.append(
            "  no comparable headline metrics; NEW accepted on its own gate"
        )
    for name in common:
        direction = str(new.headline[name]["direction"])
        old_value = old.metric_value(name)
        new_value = new.metric_value(name)
        if direction == "higher":
            floor = old_value * (1.0 - band)
            within = new_value >= floor
            bound = f">= {floor:.4g}"
        else:
            ceiling = old_value * (1.0 + band)
            within = new_value <= ceiling
            bound = f"<= {ceiling:.4g}"
        verdict = "ok  " if within else "FAIL"
        lines.append(
            f"  {verdict} {name}: {old_value:.4g} -> {new_value:.4g} "
            f"({direction} is better, need {bound})"
        )
        ok = ok and within
    lines.append("PASS" if ok else "FAIL")
    return CompareResult(ok=ok, lines=tuple(lines))


def trajectory_table(paths: Sequence[Union[str, Path]]) -> str:
    """Markdown table of the checked-in perf trajectory, oldest first."""
    rows = ["| report | kind | gate | headline |", "| --- | --- | --- | --- |"]
    for path in paths:
        report = load_report(path)
        metrics = ", ".join(
            f"{name} {report.metric_value(name):.4g} "
            f"({report.headline[name]['direction']})"
            for name in sorted(report.headline)
        )
        rows.append(
            f"| {Path(report.path).name} | {report.kind} | "
            f"{'pass' if report.passed else 'FAIL'} | {metrics or '—'} |"
        )
    return "\n".join(rows)
