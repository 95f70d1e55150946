"""Command-line front end.

Every subcommand takes --config pointing at the YAML run configuration;
flags given on the command line (--seed, --jobs, --sub-jobs, --out)
override the corresponding config values. Exit codes: 0 on success, 1 on
a configuration problem or an input file that cannot be read (a case
directory, investments.csv, allocation.csv) or whose investments do not
match its case, 2 when a ladder finished but some combos failed.
Progress (each combo's start and end, the Benders bounds every 10
iterations) is logged to stderr through the ``gridres`` logger at INFO.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .benders import solve_benders
from .caseio import load_system, write_case
from .metrics import format_summary, write_report
from .model import CaseError
from .pipeline import (
    ConfigError,
    RunConfig,
    read_investments,
    replay_operations,
    rescore_from_artifacts,
    resolve_partition,
    run_ladder,
    summarize,
    write_investments,
    write_operations,
)
from .spatial import aggregate_spatial
from .temporal import apply_temporal, cluster_timesteps, write_reduction
from .translate import translate_solution, write_allocation, write_portfolio


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; config problems must exit 1 instead
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="gridres", description=__doc__)
    p.add_argument("--config", required=True, help="run configuration YAML")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--jobs", type=int, help="parallel combos in a ladder")
    p.add_argument("--sub-jobs", type=int, help="parallel subproblem solves")
    p.add_argument("--out", help="override the config output directory")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate the synthetic system and write it out")

    ap = sub.add_parser("aggregate", help="spatially aggregate the input system")
    ap.add_argument("--partition", required=True, help="partition name from the config")

    cp = sub.add_parser("cluster", help="reduce the input system to k representative periods")
    cp.add_argument("--k", type=int, required=True)

    ep = sub.add_parser("expand", help="solve the capacity-expansion problem")
    ep.add_argument("--partition", help="aggregate first using this partition name")
    ep.add_argument("--k", type=int, help="reduce to k periods first")
    ep.add_argument("--uc", choices=("none", "relaxed"), default="relaxed")

    tp = sub.add_parser("translate", help="map saved coarse investments onto the fine system")
    tp.add_argument("--coarse", required=True, help="coarse case directory")
    tp.add_argument("--investments", required=True, help="investments.csv from expand")

    op = sub.add_parser("operate", help="dispatch a translated build at fine resolution")
    op.add_argument("--allocation", required=True, help="allocation.csv from translate")

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
    fine = rc.load_fine()
    part = resolve_partition(fine, _named_partition(rc, args.partition))
    coarse = aggregate_spatial(fine, part)
    path = write_case(coarse, f"{rc.out_dir}/{args.partition}")
    print(f"wrote {len(coarse.regions)}-region aggregation to {path}")
    return 0


def _cmd_cluster(rc: RunConfig, args) -> int:
    case = rc.load_fine()
    red = cluster_timesteps(case, args.k, force_extremes=rc.force_extremes, seed=rc.seed)
    reduced = apply_temporal(case, red)
    write_reduction(red, f"{rc.out_dir}/reduction.csv")
    path = write_case(reduced, f"{rc.out_dir}/reduced")
    print(f"kept periods {red.representatives} with weights {red.weights}; wrote {path}")
    return 0


def _cmd_expand(rc: RunConfig, args) -> int:
    case = rc.load_fine()
    if args.partition:
        case = aggregate_spatial(case, resolve_partition(case, _named_partition(rc, args.partition)))
    if args.k is not None and args.k < case.n_periods:
        case = apply_temporal(
            case, cluster_timesteps(case, args.k, force_extremes=rc.force_extremes, seed=rc.seed)
        )
    res = solve_benders(
        case,
        uc=args.uc,
        reserve=True,
        gap_tol=rc.gap_tol,
        max_iter=rc.max_iter,
        stab_weight=rc.stab_weight,
        sub_jobs=rc.sub_jobs,
    )
    if not res.converged:
        print(f"did not converge: gap {res.gap:.3e} after {res.iterations} iterations",
              file=sys.stderr)
        return 2
    write_investments(res.solution.investment, f"{rc.out_dir}/investments.csv")
    print(f"objective {res.objective:.6e} in {res.iterations} iterations "
          f"(gap {res.gap:.2e}); wrote {rc.out_dir}/investments.csv")
    return 0


def _cmd_translate(rc: RunConfig, args) -> int:
    fine = rc.load_fine()
    coarse = load_system(args.coarse)
    investment = read_investments(args.investments, coarse, args.coarse)
    allocation, portfolio = translate_solution(investment, coarse, fine, beta=rc.beta)
    write_allocation(allocation, f"{rc.out_dir}/allocation.csv")
    write_portfolio(portfolio, f"{rc.out_dir}/portfolio.csv")
    print(f"wrote {rc.out_dir}/allocation.csv and portfolio.csv")
    return 0


def _cmd_operate(rc: RunConfig, args) -> int:
    fine = rc.load_fine()
    operations = replay_operations(fine, args.allocation).operations
    write_operations(operations, f"{rc.out_dir}/operations.csv")
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
