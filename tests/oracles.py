"""Independent reference computations for solver tests.

The vertex oracle never calls the production solver: it enumerates every
candidate active set directly, so agreement is evidence rather than
circularity. The cost-recovery identity is checked on solutions by hand
arithmetic over prices and flows, outside the package.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from gridres.expansion import ExpansionSolution
from gridres.lp import _BOUND_ACTIVE_TOL, EQ, GE, LE, KktResiduals, LpBuilder
from gridres.model import SystemCase
from gridres.prng import Rng

FEAS_TOL = 1e-9


def scipy_csr(a):
    """A CsrMatrix as the scipy.sparse matrix of the same arrays."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def vertex_optimum(lp):
    """Brute-force optimum of a boxed LP by basic-solution enumeration.

    Every vertex of {x : Ax ~ b, lo <= x <= hi} has n linearly independent
    active constraints; with all variables boxed the region is bounded, so
    a finite optimum (if any) is attained at one of them. Returns the best
    objective, or None when no feasible vertex exists.
    """
    n = lp.n_vars
    dense = scipy_csr(lp.a_matrix).toarray()

    normals = [dense[i] for i in range(lp.n_rows)]
    offsets = [lp.rhs[i] for i in range(lp.n_rows)]
    eq_rows = [i for i, s in enumerate(lp.senses) if s == EQ]
    for j in range(n):
        if not (np.isfinite(lp.lo[j]) and np.isfinite(lp.hi[j])):
            raise ValueError("oracle requires boxed variables")
        e = np.zeros(n)
        e[j] = 1.0
        normals.append(e.copy())
        offsets.append(lp.lo[j])
        normals.append(e)
        offsets.append(lp.hi[j])
    normals = np.array(normals)
    offsets = np.array(offsets)

    free = [i for i in range(len(normals)) if i not in set(eq_rows)]
    need = n - len(eq_rows)
    if need < 0:
        raise ValueError("more equalities than variables")
    combos = list(itertools.combinations(free, need))
    if not combos:
        combos = [()]
    sel = np.array([list(eq_rows) + list(c) for c in combos], dtype=int)

    mats = normals[sel]  # (n_combos, n, n)
    rhss = offsets[sel]  # (n_combos, n)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-10
    if not np.any(ok):
        return None
    xs = np.linalg.solve(mats[ok], rhss[ok][..., None])[..., 0]

    # feasibility of each candidate vertex against the full system
    ax = xs @ dense.T
    feas = np.ones(len(xs), dtype=bool)
    for i, s in enumerate(lp.senses):
        gap = ax[:, i] - lp.rhs[i]
        if s == LE:
            feas &= gap <= FEAS_TOL
        elif s == GE:
            feas &= gap >= -FEAS_TOL
        else:
            feas &= np.abs(gap) <= FEAS_TOL
    feas &= np.all(xs >= lp.lo - FEAS_TOL, axis=1)
    feas &= np.all(xs <= lp.hi + FEAS_TOL, axis=1)
    if not np.any(feas):
        return None
    return float(np.min(xs[feas] @ lp.obj)) + lp.obj_offset


def reference_kkt_residuals(lp, x, y):
    """Row-by-row and column-by-column KKT residuals, the loop form that
    gridres.lp.kkt_residuals computes with array operations."""
    ax = scipy_csr(lp.a_matrix) @ x
    primal = 0.0
    for i, sense in enumerate(lp.senses):
        gap = ax[i] - lp.rhs[i]
        if sense == LE:
            primal = max(primal, gap)
        elif sense == GE:
            primal = max(primal, -gap)
        else:
            primal = max(primal, abs(gap))
    primal = max(
        primal,
        float(np.max(lp.lo - x, initial=0.0)),
        float(np.max(x - lp.hi, initial=0.0)),
    )

    z = lp.obj - scipy_csr(lp.a_matrix).T @ y
    dual = 0.0
    for i, sense in enumerate(lp.senses):
        if sense == LE:
            dual = max(dual, y[i])  # must be <= 0
        elif sense == GE:
            dual = max(dual, -y[i])  # must be >= 0
    span = lp.hi - lp.lo
    at_lo = (x - lp.lo) <= _BOUND_ACTIVE_TOL * (1.0 + np.abs(lp.lo))
    at_hi = (lp.hi - x) <= _BOUND_ACTIVE_TOL * (1.0 + np.abs(lp.hi))
    fixed = span <= _BOUND_ACTIVE_TOL
    for j in range(lp.n_vars):
        if fixed[j]:
            continue  # fixed columns impose nothing on z
        if at_lo[j]:
            dual = max(dual, -z[j])
        elif at_hi[j]:
            dual = max(dual, z[j])
        else:
            dual = max(dual, abs(z[j]))

    primal_obj = float(lp.obj @ x)
    dual_obj = float(lp.rhs @ y)
    zp = np.where(z > 0, z, 0.0)
    zn = np.where(z < 0, z, 0.0)
    lo_term = np.where(np.isfinite(lp.lo), lp.lo, 0.0) * zp
    hi_term = np.where(np.isfinite(lp.hi), lp.hi, 0.0) * zn
    dual_obj += float(lo_term.sum() + hi_term.sum())
    compl = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))

    return KktResiduals(
        primal=float(primal),
        dual=float(dual),
        compl=float(compl),
        primal_scale=1.0 + float(np.max(np.abs(lp.rhs), initial=0.0)),
        dual_scale=1.0 + float(np.max(np.abs(lp.obj), initial=0.0)),
    )


def random_boxed_lp(seed, feasible=True):
    """Small random LP with every variable boxed.

    With feasible=True the right-hand sides are anchored to an interior
    point, so the instance is feasible by construction; otherwise slacks may
    go negative and the instance can be (but is not always) infeasible.
    """
    rng = Rng(seed)
    n = 2 + rng.below(5)  # 2..6 variables
    m = 2 + rng.below(7)  # 2..8 rows

    b = LpBuilder()
    lo = np.array([-round(rng.uniform(0.0, 2.0), 3) for _ in range(n)])
    hi = lo + np.array([round(rng.uniform(0.5, 4.0), 3) for _ in range(n)])
    cols = [
        b.var(f"x{j}", lo[j], hi[j], round(rng.uniform(-3.0, 3.0), 3))
        for j in range(n)
    ]

    x0 = np.array([rng.uniform(lo[j], hi[j]) for j in range(n)])
    n_eq = 1 if (not feasible and rng.below(4) == 0) else 0
    for i in range(m):
        coefs = np.array([round(rng.uniform(-2.0, 2.0), 3) for _ in range(n)])
        for j in range(n):
            if rng.below(4) == 0 and np.count_nonzero(coefs) > 2:
                coefs[j] = 0.0
        lhs0 = float(coefs @ x0)
        if i < n_eq:
            b.row(f"r{i}", EQ, round(lhs0, 6), list(zip(cols, coefs)))
            continue
        slack = rng.uniform(0.0, 1.5) if feasible else rng.uniform(-0.6, 1.2)
        if rng.below(2) == 0:
            b.row(f"r{i}", LE, round(lhs0 + slack, 6), list(zip(cols, coefs)))
        else:
            b.row(f"r{i}", GE, round(lhs0 - slack, 6), list(zip(cols, coefs)))
    return b.build()


def reference_bound(rows, lp):
    """What lp._BoundRows.bound does, as it did before its reduction was
    grouped by column once per fixed set: each call sorts the bound rows of
    a side by (column, implied bound, position). rows is the _BoundRows of
    lp's fixed set; the sides are re-derived from the rows' senses and
    coefficients. Returns (lo, hi, lower_row, upper_row, implied): the
    tightened copies of lp's bounds, the winning position per column and
    the implied bound of each bound row."""
    fixed_part = np.bincount(rows.fixed_at, weights=rows.fixed_vals * lp.lo[rows.fixed_cols], minlength=rows.rows.size)
    implied = (rows.rhs - fixed_part) / rows.coef
    senses, up = lp.senses[rows.rows], rows.coef > 0
    lower = np.flatnonzero((senses == EQ) | ((senses == GE) & up) | ((senses == LE) & ~up))
    upper = np.flatnonzero((senses == EQ) | ((senses == LE) & up) | ((senses == GE) & ~up))
    lo, hi = lp.lo.copy(), lp.hi.copy()
    lower_row, upper_row = _tighten(lo, lower, rows.cols, implied, -1.0), _tighten(hi, upper, rows.cols, implied, 1.0)
    return lo, hi, lower_row, upper_row, implied


def _tighten(bound, which, cols, implied, sign):
    """Tighten bound (upper for sign 1, lower for sign -1), column by
    column, to the tightest implied value among the bound rows at positions
    which, where that is strictly tighter than the column's own bound; on a
    tie the lowest row wins. Returns the winning position per column, -1
    where the column's own bound stays."""
    key = sign * implied
    order = which[np.lexsort((which, key[which], cols[which]))]
    first = np.ones(order.size, dtype=bool)  # the tightest of each column
    first[1:] = cols[order[1:]] != cols[order[:-1]]
    best = order[first]
    wins = key[best] < sign * bound[cols[best]]
    best = best[wins]
    bound[cols[best]] = implied[best]
    at = np.full(bound.size, -1)
    at[cols[best]] = best
    return at


def reference_lloyd(feats, k, init_indices, tol=1e-9, max_iter=300):
    """Plain Lloyd's algorithm with fixed initial medoid indices; returns the
    final assignment labels. Ties go to the lowest centroid index."""
    centroids = feats[np.array(init_indices)].copy()
    for _ in range(max_iter):
        d = np.linalg.norm(feats[:, None, :] - centroids[None, :, :], axis=2)
        labels = np.argmin(d, axis=1)
        moved = 0.0
        for g in range(k):
            members = feats[labels == g]
            if len(members) == 0:
                continue
            new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[g])))
            centroids[g] = new
        if moved < tol:
            break
    d = np.linalg.norm(feats[:, None, :] - centroids[None, :, :], axis=2)
    return np.argmin(d, axis=1), centroids


def cost_recovery(sol: ExpansionSolution, case: SystemCase) -> dict:
    """Adding-up identity at zonal prices.

    Load payments minus the shed-load penalty must equal generator energy
    revenue plus storage arbitrage plus congestion rent. Spilled energy
    carries a zero price so it drops out. Returns both sides and the parts;
    callers assert the match.
    """
    w = sol.hour_weight
    region_of = {c.id: c.region for c in case.clusters}

    hours = np.asarray(sol.hours)
    load_payment = 0.0
    nse_penalty = 0.0
    for r in case.regions:
        p = sol.prices[r.id]
        dem = r.demand.values[hours]
        load_payment += float((p * dem * w).sum())
        nse_penalty += float((p * sol.nse[r.id] * w).sum())

    gen_revenue = 0.0
    for c in case.clusters:
        p = sol.prices[region_of[c.id]]
        gen_revenue += float((p * sol.dispatch[c.id] * w).sum())

    arbitrage = 0.0
    for s in case.storage:
        p = sol.prices[s.region]
        arbitrage += float((p * (sol.discharge[s.id] - sol.charge[s.id]) * w).sum())

    congestion = 0.0
    for l in case.interregional_lines:
        a, b = l.endpoints
        f = sol.flow_net[l.id]
        congestion += float(((sol.prices[b] - sol.prices[a]) * f * w).sum())

    spill_value = 0.0
    for r in case.regions:
        spill_value += float((sol.prices[r.id] * sol.spill[r.id] * w).sum())

    return {
        "load_payment": load_payment,
        "nse_penalty": nse_penalty,
        "gen_revenue": gen_revenue,
        "storage_arbitrage": arbitrage,
        "congestion_rent": congestion,
        "spill_value": spill_value,
        "lhs": load_payment - nse_penalty,
        "rhs": gen_revenue + arbitrage + congestion,
    }
