"""Parity of the direct HiGHS call with scipy's public HiGHS front ends.

:class:`repro.solver.Model` hands HiGHS its own ``row_lb <= A x <= row_ub``
rows through scipy's private binding.  These tests solve seeded small
models both ways -- through the model, and through
:func:`scipy.optimize.linprog` / :func:`scipy.optimize.milp` as the
reference -- and require:

* the same status;
* bit-equal objectives where HiGHS sees the same input: LPs whose rows
  are all ``<=`` (linprog passes them through in order) and MILPs (milp
  passes the two-sided rows through);
* objectives and duals within ``approx`` elsewhere (linprog negates
  ``>=`` rows and moves ``==`` rows last, so HiGHS may take another path
  to the same optimum).
"""

import numpy as np
import pytest
from scipy import optimize

from repro.solver import Model, SolveStatus

_SCIPY_TO_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}
_SENSES = ("<=", ">=", "==")


def _random_model(seed, senses, sense="max", integer=False):
    """A feasible bounded model with one row per entry of ``senses``.

    Returns the model, its row handles, and the arrays a reference
    solver needs: ``(c, a, row_lb, row_ub, var_lb, var_ub)``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    var_lb = np.zeros(n)
    var_ub = rng.integers(2, 6, size=n).astype(float)
    # Feasible by construction: every row holds at x0.
    x0 = rng.integers(0, 2, size=n).astype(float)
    a = np.round(rng.uniform(-1.0, 3.0, size=(len(senses), n)), 2)
    a[np.abs(a) < 0.2] = 0.0
    a[~a.any(axis=1), 0] = 1.0
    c = np.round(rng.uniform(-2.0, 3.0, size=n), 2)
    ax0 = a @ x0
    slack = np.round(rng.uniform(0.5, 3.0, size=len(senses)), 2)
    row_lb = np.full(len(senses), -np.inf)
    row_ub = np.full(len(senses), np.inf)

    m = Model(f"parity-{seed}")
    xs = [m.add_var(lb=lo, ub=hi, integer=integer)
          for lo, hi in zip(var_lb, var_ub)]
    rows = []
    for i, row_sense in enumerate(senses):
        expr = sum(float(a[i, j]) * xs[j] for j in range(n) if a[i, j])
        if row_sense == "<=":
            row_ub[i] = ax0[i] + slack[i]
            rows.append(m.add_constr(expr <= row_ub[i]))
        elif row_sense == ">=":
            row_lb[i] = ax0[i] - slack[i]
            rows.append(m.add_constr(expr >= row_lb[i]))
        else:
            row_lb[i] = row_ub[i] = ax0[i]
            rows.append(m.add_constr(expr == row_ub[i]))
    m.set_objective(sum(float(c[j]) * xs[j] for j in range(n)), sense=sense)
    return m, rows, (c, a, row_lb, row_ub, var_lb, var_ub)


def _linprog(arrays, sense):
    """The reference LP: scipy.optimize.linprog on split rows.

    Returns ``(status, objective, duals)`` with objective and duals in
    the model's own sense.
    """
    c, a, row_lb, row_ub, var_lb, var_ub = arrays
    sign = -1.0 if sense == "max" else 1.0
    eq = row_lb == row_ub
    ub = ~eq & np.isfinite(row_ub)
    lb = ~eq & np.isfinite(row_lb)
    a_ub = np.vstack([a[ub], -a[lb]])
    b_ub = np.concatenate([row_ub[ub], -row_lb[lb]])
    res = optimize.linprog(
        sign * c,
        A_ub=a_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=row_lb[eq] if eq.any() else None,
        bounds=np.column_stack([var_lb, var_ub]),
        method="highs",
    )
    status = _SCIPY_TO_STATUS[res.status]
    if res.x is None:
        return status, None, None
    duals = np.zeros(a.shape[0])
    ineq = np.asarray(res.ineqlin.marginals)
    duals[np.flatnonzero(ub)] += sign * ineq[: ub.sum()]
    duals[np.flatnonzero(lb)] -= sign * ineq[ub.sum():]
    if eq.any():
        duals[np.flatnonzero(eq)] = sign * np.asarray(res.eqlin.marginals)
    return status, float(sign * res.fun), duals


def _milp(arrays, sense, time_limit=None):
    """The reference MILP: scipy.optimize.milp with every column integer."""
    c, a, row_lb, row_ub, var_lb, var_ub = arrays
    sign = -1.0 if sense == "max" else 1.0
    options = {} if time_limit is None else {"time_limit": time_limit}
    res = optimize.milp(
        sign * c,
        constraints=optimize.LinearConstraint(a, row_lb, row_ub),
        integrality=np.ones(c.size),
        bounds=optimize.Bounds(var_lb, var_ub),
        options=options,
    )
    status = _SCIPY_TO_STATUS[res.status]
    if res.x is None:
        return status, None
    return status, float(sign * res.fun)


def _override(model, rows, arrays, seed):
    """Random rhs and bound overrides, applied to the model's re-solve
    and to copies of the reference arrays alike."""
    c, a, row_lb, row_ub, var_lb, var_ub = (x.copy() for x in arrays)
    rng = np.random.default_rng(seed + 1000)
    rhs = {}
    for i in rng.choice(len(rows), size=2, replace=False).tolist():
        shift = float(np.round(rng.uniform(-0.5, 1.0), 2))
        if np.isfinite(row_ub[i]) and np.isfinite(row_lb[i]):
            rhs[rows[i].row] = row_ub[i] + shift
            row_lb[i] = row_ub[i] = row_ub[i] + shift
        elif np.isfinite(row_ub[i]):
            rhs[rows[i].row] = row_ub[i] + shift
            row_ub[i] += shift
        else:
            rhs[rows[i].row] = row_lb[i] - shift
            row_lb[i] -= shift
    j = int(rng.integers(c.size))
    bounds = {model.variables[j].index: float(var_ub[j] - 1)}
    var_ub[j] -= 1
    result = model.resolve_with(rhs_overrides=rhs, bound_overrides=bounds)
    return result, (c, a, row_lb, row_ub, var_lb, var_ub)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sense", ["max", "min"])
def test_all_le_lp_is_bit_equal_to_linprog(seed, sense):
    model, rows, arrays = _random_model(seed, ["<="] * 4, sense)
    status, objective, duals = _linprog(arrays, sense)
    ours = model.solve()
    assert ours.status is status is SolveStatus.OPTIMAL
    assert ours.objective == objective
    assert ours.duals == pytest.approx(duals, abs=1e-9)

    patched, patched_arrays = _override(model, rows, arrays, seed)
    status, objective, duals = _linprog(patched_arrays, sense)
    assert patched.status is status
    if objective is not None:
        assert patched.objective == objective
        assert patched.duals == pytest.approx(duals, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sense", ["max", "min"])
def test_mixed_sense_lp_matches_linprog(seed, sense):
    senses = [_SENSES[(seed + k) % 3] for k in range(5)]
    model, rows, arrays = _random_model(seed, senses, sense)
    status, objective, duals = _linprog(arrays, sense)
    ours = model.solve()
    assert ours.status is status is SolveStatus.OPTIMAL
    assert ours.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
    assert ours.duals == pytest.approx(duals, abs=1e-7)

    patched, patched_arrays = _override(model, rows, arrays, seed)
    status, objective, duals = _linprog(patched_arrays, sense)
    assert patched.status is status
    if objective is not None:
        assert patched.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
        assert patched.duals == pytest.approx(duals, abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("sense", ["max", "min"])
def test_milp_is_bit_equal_to_milp(seed, sense):
    senses = [_SENSES[(seed + k) % 3] for k in range(4)]
    model, rows, arrays = _random_model(seed, senses, sense, integer=True)
    status, objective = _milp(arrays, sense)
    ours = model.solve()
    assert ours.status is status is SolveStatus.OPTIMAL
    assert ours.objective == objective
    assert ours.duals is None

    patched, patched_arrays = _override(model, rows, arrays, seed)
    status, objective = _milp(patched_arrays, sense)
    assert patched.status is status
    if objective is not None:
        assert patched.objective == objective


def test_infeasible_lp_and_milp():
    for integer in (False, True):
        m = Model()
        x = m.add_var(ub=10, integer=integer)
        m.add_constr(x <= 1)
        m.add_constr(x >= 2)
        m.set_objective(x.to_expr(), sense="max")
        arrays = (np.array([1.0]), np.array([[1.0], [1.0]]),
                  np.array([-np.inf, 2.0]), np.array([1.0, np.inf]),
                  np.zeros(1), np.array([10.0]))
        expected = _milp(arrays, "max")[0] if integer else \
            _linprog(arrays, "max")[0]
        ours = m.solve()
        assert ours.status is expected is SolveStatus.INFEASIBLE
        assert ours.x is None and ours.duals is None


def test_unbounded_lp():
    m = Model()
    x = m.add_var()
    y = m.add_var(ub=1)
    m.add_constr(x - y >= 0)
    m.set_objective(x + y, sense="max")
    arrays = (np.array([1.0, 1.0]), np.array([[1.0, -1.0]]),
              np.array([0.0]), np.array([np.inf]),
              np.zeros(2), np.array([np.inf, 1.0]))
    ours = m.solve()
    assert ours.status is _linprog(arrays, "max")[0] is SolveStatus.UNBOUNDED
    assert ours.x is None and np.isnan(ours.objective)


def test_milp_time_limit_without_incumbent():
    # Equality-constrained integer knapsacks: no incumbent at a zero
    # time limit, so HiGHS stops with nothing to report.
    rng = np.random.default_rng(3)
    n, rows = 30, 10
    a = rng.integers(1, 20, size=(rows, n)).astype(float)
    b = np.round(a.sum(axis=1) * 0.37)
    m = Model()
    for _ in range(n):
        m.add_var(ub=3.0, integer=True)
    m.add_constrs_batch(
        np.arange(0, rows * n + 1, n), np.tile(np.arange(n), rows),
        a.ravel(), sense="==", rhs=b,
    )
    m.set_objective(sum(m.variables), sense="max")
    arrays = (np.ones(n), a, b, b, np.zeros(n), np.full(n, 3.0))
    status, objective = _milp(arrays, "max", time_limit=0.0)
    ours = m.solve(time_limit=0.0)
    assert ours.status is status is SolveStatus.TIME_LIMIT
    assert objective is None and not ours.has_solution
    assert "no incumbent" in ours.message


def test_highs_binding_is_where_the_model_expects_it():
    # The model calls scipy's private HiGHS binding; a scipy release that
    # moves or reshapes it must fail here, by name, not deep in a solve.
    from scipy.optimize._highspy import _core

    for name in ("HighsLp", "_Highs", "HighsModelStatus", "HighsVarType",
                 "MatrixFormat", "kHighsInf"):
        assert hasattr(_core, name), name
    for method in ("setOptionValue", "passModel", "run", "getModelStatus",
                   "getInfo", "getSolution"):
        assert hasattr(_core._Highs, method), method


# -- one HiGHS instance per compiled model ---------------------------------
#
# A model loads its compiled arrays into HiGHS once and re-solves by
# patching bounds in place.  Every result must equal, bit for bit, a
# fresh solve of the same model rebuilt with those bounds.

def _session_arrays(seed):
    """A feasible model over every row sense, larger than the ones
    above so HiGHS does real simplex and branch-and-bound work."""
    rng = np.random.default_rng(seed)
    n, m = 10, 8
    senses = np.array([_SENSES[k % 3] for k in range(m)])
    a = np.round(rng.uniform(-1.0, 3.0, size=(m, n)), 2)
    a[np.abs(a) < 0.6] = 0.0
    a[~a.any(axis=1), 0] = 1.0
    x0 = rng.integers(0, 3, size=n).astype(float)
    ax0 = a @ x0
    slack = np.round(rng.uniform(0.5, 4.0, size=m), 2)
    row_lb = np.where(senses == "<=", -np.inf, ax0 - slack)
    row_ub = np.where(senses == ">=", np.inf, ax0 + slack)
    row_lb[senses == "=="] = row_ub[senses == "=="] = ax0[senses == "=="]
    c = np.round(rng.uniform(-1.0, 3.0, size=n), 3)
    return senses, (c, a, row_lb, row_ub, np.zeros(n),
                    rng.integers(3, 7, size=n).astype(float))


def _from_arrays(arrays, integer):
    """The model of ``arrays``; a row's sense is read from its bounds."""
    c, a, row_lb, row_ub, var_lb, var_ub = arrays
    m = Model("session")
    for lo, hi in zip(var_lb, var_ub):
        m.add_var(lb=lo, ub=hi, integer=integer)
    nz = a != 0
    senses = np.where(np.isinf(row_lb), "<=",
                      np.where(np.isinf(row_ub), ">=", "=="))
    m.add_constrs_batch(
        np.concatenate([[0], np.cumsum(nz.sum(axis=1))]),
        np.nonzero(nz)[1], a[nz], sense=senses.tolist(),
        rhs=np.where(senses == "<=", row_ub, row_lb),
    )
    m.set_objective(sum(float(c[j]) * v for j, v in enumerate(m.variables)),
                    sense="max")
    return m


def _bits(result):
    """Everything a solve reports that must not move, as exact bits."""
    def hexes(values):
        return None if values is None else [float(v).hex() for v in values]
    return (result.status, result.message, float(result.objective).hex(),
            hexes(result.x), hexes(result.duals), result.mip_gap)


def _patched(arrays, senses, rhs, bounds):
    """Reference arrays with ``resolve_with``'s overrides applied."""
    c, a, row_lb, row_ub, var_lb, var_ub = (x.copy() for x in arrays)
    for i, value in rhs.items():
        if senses[i] == "<=":
            row_ub[i] = value
        elif senses[i] == ">=":
            row_lb[i] = value
        else:
            row_lb[i] = row_ub[i] = value
    for j, value in bounds.items():
        var_ub[j] = value
    return c, a, row_lb, row_ub, var_lb, var_ub


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("integer", [False, True])
def test_resolve_sequence_equals_fresh_solves(seed, integer):
    senses, arrays = _session_arrays(seed)
    ge = int(np.flatnonzero(senses == ">=")[0])
    le = int(np.flatnonzero(senses == "<=")[0])
    eq = int(np.flatnonzero(senses == "==")[0])
    sequence = [
        # (rhs overrides, bound overrides, solve options)
        ({ge: 1e4}, {}, {}),                                   # infeasible
        ({le: arrays[3][le] - 0.5}, {2: 1.0}, {}),             # feasible
        ({eq: arrays[3][eq] + 0.25}, {0: 2.0}, {"time_limit": 0.0}),
        ({eq: arrays[3][eq] + 0.25}, {0: 2.0}, {"time_limit": None}),
        ({}, {3: 0.0, 5: 1.0}, {"mip_rel_gap": 0.5}),
        ({}, {3: 0.0, 5: 1.0}, {}),
        ({}, {}, {}),
    ]
    model = _from_arrays(arrays, integer)
    statuses = set()
    for rhs, bounds, options in sequence:
        got = model.resolve_with(rhs, bounds, **options)
        fresh = _from_arrays(_patched(arrays, senses, rhs, bounds), integer)
        assert _bits(got) == _bits(fresh.solve(**options))
        statuses.add(got.status)
    assert SolveStatus.INFEASIBLE in statuses
    assert SolveStatus.OPTIMAL in statuses
    # The overrides never stuck: the model solves as it was built.
    assert _bits(model.solve()) == _bits(_from_arrays(arrays, integer).solve())


def _held(model, integer):
    """The bounds the model's HiGHS instance holds, as exact bits."""
    lp = model._sessions[integer]._highs.getLp()
    return [[float(v).hex() for v in side] for side in (
        lp.row_lower_, lp.row_upper_, lp.col_lower_, lp.col_upper_)]


@pytest.mark.parametrize("integer", [False, True])
def test_each_run_holds_its_own_overrides_and_no_earlier_ones(integer):
    # A call's overrides stay loaded until the next call, which changes
    # only the bounds that differ.  After every call the instance must
    # hold exactly the compiled bounds with that call's overrides on
    # top, a signed zero included, and every result must equal a fresh
    # solve.
    senses, arrays = _session_arrays(2)
    le = int(np.flatnonzero(senses == "<=")[0])
    ge = int(np.flatnonzero(senses == ">=")[0])
    eq = int(np.flatnonzero(senses == "==")[0])
    ge_lb = float(arrays[2][ge])
    eq_rhs = float(arrays[2][eq])
    sequence = [
        ({le: 0.0}, {1: 0.0, 4: 5.0}),
        ({le: 0.0}, {1: 0.0, 4: 5.0}),  # all held alike
        ({le: -0.0, ge: ge_lb - 1.0}, {1: -0.0}),  # -0.0 over 0.0
        ({le: -0.0, ge: ge_lb - 1.0}, {1: 0.0, 6: 2.0}),
        ({ge: float("inf")}, {}),  # refused, with restores
        ({ge: float("inf")}, {6: 2.0}),  # refused
        ({ge: ge_lb - 0.5, eq: eq_rhs}, {6: 2.0}),  # eq held as compiled
        ({}, {}),
    ]
    model = _from_arrays(arrays, integer)
    refused = 0
    for rhs, bounds in sequence:
        got = model.resolve_with(rhs, bounds)
        if got.message == "HiGHS: Model error":
            refused += 1
            continue
        patched = _patched(arrays, senses, rhs, bounds)
        assert _held(model, integer) == [
            [float(v).hex() for v in side] for side in patched[2:]]
        fresh = _from_arrays(patched, integer)
        assert _bits(got) == _bits(fresh.solve())
    assert refused == 2
    assert got.status is SolveStatus.OPTIMAL
    assert _bits(model.solve()) == _bits(_from_arrays(arrays, integer).solve())


@pytest.mark.parametrize("seed", range(3))
def test_relaxation_between_milp_solves(seed):
    _, arrays = _session_arrays(seed)
    model = _from_arrays(arrays, integer=True)
    first = model.solve()
    relaxed = model.solve(relax=True)
    again = model.solve()
    assert first.status is SolveStatus.OPTIMAL
    assert _bits(again) == _bits(first)
    assert _bits(first) == _bits(_from_arrays(arrays, True).solve())
    assert _bits(relaxed) == _bits(
        _from_arrays(arrays, True).solve(relax=True))
    assert relaxed.duals is not None and first.duals is None


def test_time_limit_does_not_leak_into_the_next_solve():
    # A zero time limit stops this MILP with no incumbent; a leaked limit
    # would stop the next, unlimited solve the same way.
    _, arrays = _session_arrays(0)
    model = _from_arrays(arrays, integer=True)
    limited = model.solve(time_limit=0.0)
    unlimited = model.solve()
    assert limited.status is SolveStatus.TIME_LIMIT
    assert unlimited.status is SolveStatus.OPTIMAL
    assert _bits(unlimited) == _bits(_from_arrays(arrays, True).solve())


def test_refused_override_reads_as_model_error_and_is_restored():
    _, arrays = _session_arrays(1)
    model = _from_arrays(arrays, integer=False)
    ge = 1  # _SENSES[1] is ">="
    refused = model.resolve_with({ge: float("inf")})
    assert refused.status is SolveStatus.INFEASIBLE
    assert refused.message == "HiGHS: Model error"
    assert _bits(model.solve()) == _bits(_from_arrays(arrays, False).solve())


def test_adding_a_variable_after_a_solve_reloads_the_model():
    _, arrays = _session_arrays(2)
    model = _from_arrays(arrays, integer=False)
    before = model.solve()
    extra = model.add_var(ub=2.0, name="extra")
    floor = model.add_constr(extra >= 0.0)
    after = model.resolve_with({floor.row: 1.0})
    assert after.x.size == before.x.size + 1
    assert after.x[extra.index] >= 1.0
    assert after.duals.size == before.duals.size + 1
