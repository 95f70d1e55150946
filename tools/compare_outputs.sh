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
# Exits 0 when no output differs, 1 when one does (the differences are
# printed), and 2 when a commit cannot be exported or a run fails.
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
    exit 1
fi
