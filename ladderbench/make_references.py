"""Regenerate the committed reference ladder.csv files of the benchmark.

    python3 ladderbench/make_references.py            # every workload
    python3 ladderbench/make_references.py weeks      # one workload

Run it only for a change that is meant to alter ladder results, and say
why in that change: the gate in gate.py compares every benchmark ladder
against these files.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import REFERENCE_DIR, WORK_DIR, use_checkout


def write_reference(workload, reference_dir: Path, work: Path, seeds=range(10)) -> Path:
    """Run the workload's ladder once per seed, check that every seed gives
    the same ladder.csv, and store it as the reference."""
    from gridres.caseio import write_case
    from gridres.pipeline import RunConfig, run_ladder
    from gridres.syngen import SynthConfig, generate

    system, out = work / "system", work / "ladder"
    write_case(generate(SynthConfig(**workload.synth), seed=workload.system_seed), str(system))
    texts = set()
    for seed in seeds:
        shutil.rmtree(out, ignore_errors=True)
        report = run_ladder(RunConfig.from_dict(workload.run_config(str(out), str(system), seed)))
        if not report.ok:
            failed = {r.combo.name: r.error for r in report.failed}
            raise RuntimeError(f"{workload.name} seed {seed}: combos failed: {failed}")
        texts.add(Path(report.ladder_path).read_text())
    if len(texts) != 1:
        raise RuntimeError(f"{workload.name}: ladder.csv depends on the seed; one reference cannot serve")
    target = workload.reference_file(reference_dir)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(texts.pop())
    return target


def main(argv=None) -> int:
    use_checkout()
    from workloads import WORKLOADS

    wanted = set(sys.argv[1:] if argv is None else argv)
    for w in WORKLOADS.values():
        if wanted and w.name not in wanted:
            continue
        work = WORK_DIR / f"references-{w.name}"
        shutil.rmtree(work, ignore_errors=True)
        print(write_reference(w, REFERENCE_DIR, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
