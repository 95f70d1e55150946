"""Command-line front end.

Every subcommand takes --config pointing at the YAML run configuration;
flags given on the command line (--seed, --jobs, --sub-jobs, --out)
override the corresponding config values.

The stage commands run the ladder's own per-combo stages one at a time,
with --out as the combo directory: aggregate writes coarse/ with the
commitment mode --uc, cluster reads it and writes reduction.csv and
reduced/, expand solves reduced/ (or coarse/) under that mode into
investments.csv, phase1.csv and benders_bases.csv (the last bases of its
Benders subproblems), translate maps that onto the fine system
into allocation.csv and portfolio.csv, and operate dispatches
allocation.csv into operations.csv and operate_timing.csv. Each writes
what the ladder writes, and first, before it reads or checks its input,
deletes what it and the later stages wrote before, so a refused input
leaves no stale file for the next stage. metrics re-scores any combo
directory.

The ladder starts the HRB's dispatch from the last bases of its Benders
subproblems, and the dispatch of every other combo from the HRB's optimal
basis. operate does the latter with --baseline-dir, the HRB's directory,
whose allocation.csv it dispatches first, from that directory's
benders_bases.csv, for that basis (a build equal to the HRB's reuses that
dispatch, as in the ladder); without it, the dispatch starts from the
combo directory's own benders_bases.csv, which covers the fine operations
LP only at the HRB's resolution, and runs cold otherwise. So for a combo
other than the HRB, operate writes the ladder's operations.csv byte for
byte only with --baseline-dir, as metrics takes --baseline-dir too.

Exit codes: 0 on success, 1 on a configuration problem or an input file
that cannot be read (a case directory, investments.csv, phase1.csv,
benders_bases.csv, allocation.csv) or that does not fit its case (an
unknown name, entity or period, a missing or repeated period, an
investment out of its bounds, a basis status that is no HiGHS code or a
code string of the wrong length), 2
when Benders did not converge in expand or a ladder finished but some
combos failed. Progress (each combo's start and end, the Benders bounds
every 10 iterations) is logged to stderr through the ``gridres`` logger
at INFO.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .caseio import load_system, write_case
from .metrics import format_summary, write_report
from .model import UC_MODES, CaseError
from .pipeline import (
    ConfigError,
    RunConfig,
    clear_from,
    combo_case_dir,
    read_bases,
    read_investments,
    replay_operations,
    rescore_from_artifacts,
    run_aggregate,
    run_cluster,
    run_expand,
    run_ladder,
    run_operate,
    run_translate,
    summarize,
)
from .translate import build_portfolio, read_allocation


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; config problems must exit 1 instead
    def error(self, message):
        raise ConfigError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="gridres", description=__doc__)
    p.add_argument("--config", required=True, help="run configuration YAML")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--jobs", type=int, help="parallel combos in a ladder")
    p.add_argument("--sub-jobs", type=int, help="parallel subproblem solves")
    p.add_argument("--out", help="override the config output directory")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate the synthetic system and write it out")

    ap = sub.add_parser("aggregate", help="aggregate the input system into coarse/")
    ap.add_argument("--partition", help="partition name from the config (default: identity)")
    ap.add_argument("--uc", choices=UC_MODES, default="relaxed", help="commitment mode to expand under")

    cp = sub.add_parser("cluster", help="reduce coarse/ to k representative periods")
    cp.add_argument("--k", type=_positive_int, required=True)

    sub.add_parser("expand", help="solve the capacity expansion of reduced/ or coarse/")

    sub.add_parser("translate", help="map investments.csv onto the fine system")
    op = sub.add_parser("operate", help="dispatch allocation.csv at fine resolution")
    op.add_argument(
        "--baseline-dir",
        help="start from the optimal basis of this HRB directory's dispatch, as the ladder does",
    )

    mp = sub.add_parser(
        "metrics", help="rescore a combo directory against a baseline directory into rescore-<combo>.csv"
    )
    mp.add_argument("--combo-dir", required=True)
    mp.add_argument("--baseline-dir", required=True)

    sub.add_parser("ladder", help="run every configured combo and write ladder.csv")
    return p


def _load_config(args) -> RunConfig:
    rc = RunConfig.from_yaml(args.config)
    if args.seed is not None:
        rc = replace(rc, seed=args.seed)
    if args.jobs is not None:
        rc = replace(rc, jobs=args.jobs)
    if args.sub_jobs is not None:
        rc = replace(rc, sub_jobs=args.sub_jobs)
    if args.out is not None:
        rc = replace(rc, out_dir=args.out)
    return rc


def _named_partition(rc: RunConfig, name: str):
    for spec in rc.partitions:
        if spec.name == name:
            return spec
    raise ConfigError(f"no partition named {name!r} in the config")


def _cmd_gen(rc: RunConfig, args) -> int:
    if rc.synth is None:
        raise ConfigError("gen needs a synth section in the config")
    case = rc.load_fine()
    path = write_case(case, f"{rc.out_dir}/system")
    print(f"wrote {len(case.regions)}-region system to {path}")
    return 0


def _cmd_aggregate(rc: RunConfig, args) -> int:
    clear_from("aggregate", rc.out_dir)
    fine = rc.load_fine()
    rc.check_fine(fine)
    spec = _named_partition(rc, args.partition) if args.partition else None
    coarse = run_aggregate(fine, spec, args.uc, rc.out_dir)
    print(f"wrote {len(coarse.regions)}-region aggregation to {rc.out_dir}/coarse")
    return 0


def _cmd_cluster(rc: RunConfig, args) -> int:
    clear_from("cluster", rc.out_dir)
    coarse = load_system(f"{rc.out_dir}/coarse")
    reduced = run_cluster(rc, coarse, args.k, rc.out_dir)
    print(f"kept {reduced.n_periods} of {coarse.n_periods} periods with weights {reduced.period_weights}")
    return 0


def _cmd_expand(rc: RunConfig, args) -> int:
    clear_from("expand", rc.out_dir)
    bres = run_expand(rc, load_system(combo_case_dir(rc.out_dir)), rc.out_dir)
    if not bres.converged:
        print(f"did not converge: gap {bres.gap:.3e} after {bres.iterations} iterations",
              file=sys.stderr)
        return 2
    print(f"objective {bres.objective:.6e} in {bres.iterations} iterations "
          f"(gap {bres.gap:.2e}); wrote {rc.out_dir}/investments.csv, phase1.csv and benders_bases.csv")
    return 0


def _cmd_translate(rc: RunConfig, args) -> int:
    clear_from("translate", rc.out_dir)
    coarse_dir = f"{rc.out_dir}/coarse"
    coarse = load_system(coarse_dir)
    investment = read_investments(f"{rc.out_dir}/investments.csv", coarse, coarse_dir)
    run_translate(rc, investment, coarse, rc.load_fine(), rc.out_dir)
    print(f"wrote {rc.out_dir}/allocation.csv and portfolio.csv")
    return 0


def _cmd_operate(rc: RunConfig, args) -> int:
    clear_from("operate", rc.out_dir)
    allocation = read_allocation(f"{rc.out_dir}/allocation.csv")
    coarse = load_system(f"{rc.out_dir}/coarse")
    fine = rc.load_fine()
    portfolio = build_portfolio(fine, allocation, coarse)
    baseline = bases = None
    if args.baseline_dir is not None:  # re-dispatch the HRB for its basis and dispatch
        baseline = replay_operations(
            fine, f"{args.baseline_dir}/allocation.csv", bases=read_bases(args.baseline_dir)
        )
    else:
        bases = read_bases(rc.out_dir)
    operations = run_operate(allocation, portfolio, rc.out_dir, baseline, bases).operations
    print(f"dispatch cost {operations.objective:.6e}; wrote {rc.out_dir}/operations.csv")
    return 0


def _cmd_metrics(rc: RunConfig, args) -> int:
    report = rescore_from_artifacts(rc, args.combo_dir, args.baseline_dir)
    path = f"{rc.out_dir}/rescore-{report.combo}.csv"
    write_report([report], path)
    print(format_summary([report]))
    print(f"wrote {path}")
    return 0


def _cmd_ladder(rc: RunConfig, args) -> int:
    report = run_ladder(rc)
    print(summarize(report))
    print(f"wrote {report.ladder_path}")
    return 0 if report.ok else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "aggregate": _cmd_aggregate,
    "cluster": _cmd_cluster,
    "expand": _cmd_expand,
    "translate": _cmd_translate,
    "operate": _cmd_operate,
    "metrics": _cmd_metrics,
    "ladder": _cmd_ladder,
}


def main(argv=None) -> int:
    parser = _build_parser()
    # progress (combo start and end, Benders bounds) goes to stderr, so
    # stdout holds only each command's result lines
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(asctime)s %(message)s", "%H:%M:%S"))
    logger = logging.getLogger("gridres")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        args = parser.parse_args(argv)
        rc = _load_config(args)
        os.makedirs(rc.out_dir, exist_ok=True)
        return _COMMANDS[args.command](rc, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except CaseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
