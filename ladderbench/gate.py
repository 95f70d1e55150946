"""Correctness gate for one ladder: every combo ran, and ladder.csv agrees
with the committed reference for the workload and seed.

Text columns (combo, n_regions, k, uc) must match exactly. A numeric cell
may differ from the reference by ``REL_TOL_PER_GAP * gap_tol`` relative to
``max(1, |reference|)``. Benders stops once its relative optimality gap is
at most ``gap_tol``, so two correct solves of the same ladder can land on
different near-optimal builds; the factor of ten leaves room for that
drift as it passes through translation and re-dispatch. On one machine
the ladder is deterministic and the match is exact.
"""

from __future__ import annotations

import csv
import io

TEXT_COLUMNS = ("combo", "n_regions", "k", "uc")
REL_TOL_PER_GAP = 10.0


def parse_ladder(text: str) -> dict:
    return {row["combo"]: row for row in csv.DictReader(io.StringIO(text))}


def mismatched_combos(text: str, reference: str, gap_tol: float) -> set:
    """Names of the combos whose ladder.csv row is missing, extra, or off
    the reference."""
    got, want = parse_ladder(text), parse_ladder(reference)
    tol = REL_TOL_PER_GAP * gap_tol
    bad = set(got) ^ set(want)
    for combo in set(got) & set(want):
        a, b = got[combo], want[combo]
        if a.keys() != b.keys():
            bad.add(combo)
            continue
        for col, ref in b.items():
            if col in TEXT_COLUMNS:
                ok = a[col] == ref
            else:
                try:
                    ok = abs(float(a[col]) - float(ref)) <= tol * max(1.0, abs(float(ref)))
                except ValueError:
                    ok = False
            if not ok:
                bad.add(combo)
                break
    return bad


def failed_combos(report, ladder_text: str, reference: str | None, gap_tol: float) -> set:
    """Combos that failed in the pipeline or failed the reference check.
    Without a reference every combo counts as failed."""
    bad = {r.combo.name for r in report.results if not r.ok}
    if reference is None:
        return bad | {r.combo.name for r in report.results}
    return bad | mismatched_combos(ladder_text, reference, gap_tol)


def stage_sum_ok(stage_sum_frac: float, tol: float = 0.02) -> bool:
    """The traced stages plus pipeline.other_s cover the ladder's wall time
    to within ``tol``."""
    return abs(stage_sum_frac - 1.0) <= tol
