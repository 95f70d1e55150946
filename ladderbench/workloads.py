"""The benchmark's workloads: one fixed synthetic system each, and the
resolution ladder run against it.

The fine system comes from a fixed generator seed. Systems drawn from
different generator seeds differ a lot in cost (the baseline needs 14 to
30 Benders iterations across seeds 0-4 of the weeks system), so a
benchmark seed that picked the system would make runs incomparable. The
benchmark's ``--seed`` is the ladder's ``RunConfig.seed`` instead, which
seeds the k-means period clustering of the coarse combos.

Why each workload (see README.md for the per-layer table):

* ``weeks``: few, large LPs (one-week subproblems), so most time goes into
  the simplex solver.
* ``days``: many small LPs and more investment columns, so per-solve
  overhead, the Benders master and the per-combo stages matter more.
"""

from __future__ import annotations

from dataclasses import dataclass

GAP_TOL = 1e-4  # RunConfig's default Benders stopping gap


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthConfig fields
    system_seed: int  # generator seed of the fine system
    partitions: tuple  # region counts of the chunked partitions, named p<n>
    k_values: tuple

    def reference_file(self, reference_dir):
        return reference_dir / f"{self.name}.csv"

    def run_config(self, out_dir: str, input_dir: str, seed: int) -> dict:
        """The ladder's config, in the form RunConfig.from_dict reads."""
        return {
            "out_dir": out_dir,
            "input_dir": input_dir,
            "seed": seed,
            "partitions": [{"name": f"p{n}", "regions": n} for n in self.partitions],
            "k_values": list(self.k_values),
            "gap_tol": GAP_TOL,
            "jobs": 1,
            "sub_jobs": 1,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weeks",
            why="few large one-week LPs, so time goes into the simplex solver",
            synth={"n_regions": 2, "periods": 3, "period_length": 168},
            system_seed=2,
            partitions=(1,),
            k_values=(2,),
        ),
        Workload(
            name="days",
            why="many small one-day LPs and more investment columns, so per-solve overhead and the Benders master matter",
            synth={"n_regions": 4, "periods": 3, "period_length": 24},
            system_seed=2,
            partitions=(1, 2),
            k_values=(1, 2),
        ),
    )
}
