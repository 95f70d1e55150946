#!/usr/bin/env bash
# Check that a change leaves every benchmark output as its parent wrote it.
#
#   tools/compare_outputs.sh PARENT CHANGE
#
# PARENT and CHANGE are commits of this repository. Each is exported with
# git archive into a temporary directory, where
#
#   python3 ladderbench/run.py --workload W --seed 0 --seconds 1 --trace 0
#
# runs for W in weeks and days, at seed 0 only: the seed only seeds the
# k-means period clustering, and on both workloads seed 1 writes
# byte-identical outputs, so a second seed checks nothing more. The two
# ladderbench/work trees are then compared file by file. result.json
# (timings and the run's own record) is left out, and so are the wall-time
# columns of each *_timing.csv: "seconds" and every column whose name ends
# in "_s". Their work columns (simplex_iterations, warm, sub_iterations,
# warm_fallbacks, ipm_retries, status) are compared with every other byte.
#
# When outputs differ, the differences are printed, and then, for each
# CSV file that differs, the largest relative difference in each numeric
# column, |change - parent| / max(1, |parent|) over its rows, with the row
# it occurs in: named by the row's text cells, or "row <n>" (counting data
# rows from 1) when it has none. A file whose header differs, or whose row
# count does (both counts are printed), gets that said instead. For
# ladder.csv that is the quantity the benchmark's correctness gate bounds
# by 10 * gap_tol (ladderbench/gate.py).
#
# Exits 0 when no output differs, 1 when one does, and 2 when a commit
# cannot be exported or a run fails.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for side in parent change; do
    if [ "$side" = parent ]; then rev=$1; else rev=$2; fi
    mkdir "$tmp/$side"
    git -C "$repo" archive "$rev" | tar -x -C "$tmp/$side" || exit 2
    for workload in weeks days; do
        echo "$side ($rev): $workload" >&2
        (cd "$tmp/$side" && python3 ladderbench/run.py --workload "$workload" --seed 0 \
            --seconds 1 --trace 0 > "$tmp/$side-$workload.log" 2>&1) || {
            echo "$side: the $workload run failed; its output:" >&2
            tail -n 20 "$tmp/$side-$workload.log" >&2
            exit 2
        }
    done
    # the outputs without result.json and without the timing files' wall times
    python3 - "$tmp/$side/ladderbench/work" "$tmp/$side-out" <<'EOF' || exit 2
import csv
import shutil
import sys
from pathlib import Path

work, out = Path(sys.argv[1]), Path(sys.argv[2])
shutil.copytree(work, out, ignore=shutil.ignore_patterns("result.json"))
for path in out.rglob("*_timing.csv"):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if not (name == "seconds" or name.endswith("_s"))]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
EOF
done

if diff -r "$tmp/parent-out" "$tmp/change-out"; then
    echo "no output differs" >&2
else
    python3 - "$tmp/parent-out" "$tmp/change-out" <<'EOF' || echo "the column summary failed" >&2
import csv
import math
import sys
from pathlib import Path

parent, change = Path(sys.argv[1]), Path(sys.argv[2])


def read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def numeric(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def relative(a, b):
    """|b - a| / max(1, |a|) of two numeric cells; inf where it is NaN."""
    if a == b:
        return 0.0
    x, y = float(a), float(b)
    d = abs(y - x) / max(1.0, abs(x))
    return math.inf if math.isnan(d) else d


for old in sorted(parent.rglob("*.csv")):
    new = change / old.relative_to(parent)
    if not new.is_file() or old.read_bytes() == new.read_bytes():
        continue
    a, b = read(old), read(new)
    print(f"{old.relative_to(parent)}: largest |change - parent| / max(1, |parent|) per numeric column")
    if a[:1] != b[:1]:
        print("  the header differs")
        continue
    if len(a) != len(b):
        print(f"  the row count differs: parent {len(a) - 1}, change {len(b) - 1}")
        continue
    rows = list(zip(a[1:], b[1:]))
    for col, name in enumerate(a[0]):
        if not rows or not all(numeric(r[col]) and numeric(s[col]) for r, s in rows):
            continue  # a text column
        worst, n, row = max(((relative(r[col], s[col]), n, r) for n, (r, s) in enumerate(rows, 1)), key=lambda t: t[0])
        where = "/".join(c for c in row if not numeric(c)) or f"row {n}"
        print(f"  {name}: {worst:.3g}" + (f" ({where})" if worst > 0 else ""))
EOF
    exit 1
fi
