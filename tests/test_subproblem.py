import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import block_diag, hstack

from conftest import check_feasible
from oracles import brute_force_oracle, enumerate_oracle

from fleetdr.errors import ConfigError, DataError, InfeasibleError
from fleetdr.fleet import N_SLOTS, PevProfile
from fleetdr.subproblem import FEAS_TOL, UserSubproblem, build_subproblem, solve

GRID = 0.1


def make_profile(**kw):
    base = dict(user_id=1, arrival_slot=5, departure_slot=12,
                required_energy=7.2, capacity=24.0, initial_soc=8.4,
                rate=1.8, v2g=False)
    base.update(kw)
    return PevProfile(**base)


def make_sub(**kw):
    base = dict(user_id=1, first=3, coeff=np.array([1.0, -1.0, 0.5]),
                lo=np.zeros(3), up=np.full(3, 1.8), target=1.8,
                min_prefix=-10.0, max_prefix=np.inf)
    base.update(kw)
    return UserSubproblem(**base)


# ---------------------------------------------------------------------------
# problem assembly

def test_build_prices_lam_weighted_signal():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=3.6)
    signal = np.arange(24, dtype=float)
    sub = build_subproblem(prof, signal, lam=1.0)
    assert sub.first == 2
    assert np.allclose(sub.coeff, [1.0, 2.0, 3.0])
    half = build_subproblem(prof, signal, lam=0.5)
    assert np.allclose(half.coeff, [0.5, 1.0, 1.5])


def test_build_soc_band_from_battery_state():
    prof = make_profile(capacity=24.0, initial_soc=8.4)
    sub = build_subproblem(prof, np.zeros(24))
    assert sub.min_prefix == pytest.approx(0.2 * 24.0 - 8.4)
    assert sub.max_prefix == pytest.approx(24.0 - 8.4)


def test_build_spike_term_hits_first_free_slot_only():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=3.6)
    signal = np.full(24, 2.0)
    sub = build_subproblem(prof, signal, lam=0.5, t0_sign=1,
                           t0_term_scale=1000.0)
    assert sub.coeff[0] == pytest.approx(0.5 * 2.0 + 0.5 * 1000.0)
    assert np.allclose(sub.coeff[1:], 1.0)
    # a dip pulls the other way
    dip = build_subproblem(prof, signal, lam=0.5, t0_sign=-1,
                           t0_term_scale=1000.0)
    assert dip.coeff[0] == pytest.approx(0.5 * 2.0 - 0.5 * 1000.0)


def test_build_no_spike_term_at_full_price_weight():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=3.6)
    sub = build_subproblem(prof, np.full(24, 2.0), lam=1.0, t0_sign=1,
                           t0_term_scale=1000.0)
    assert np.allclose(sub.coeff, 2.0)


def test_build_history_freezes_early_slots():
    prof = make_profile(arrival_slot=5, departure_slot=12, required_energy=7.2)
    sub = build_subproblem(prof, np.zeros(24), history=[1.8, 1.8])
    assert sub.first == 7 and len(sub.coeff) == 6
    assert sub.target == pytest.approx(7.2 - 3.6)
    # SOC band is relative to the post-history state of charge
    assert sub.min_prefix == pytest.approx(4.8 - (8.4 + 3.6))
    assert sub.max_prefix == pytest.approx(24.0 - (8.4 + 3.6))


def test_build_v2g_opens_discharge_bounds():
    charge_only = build_subproblem(make_profile(), np.zeros(24))
    assert np.all(charge_only.lo == 0.0)
    v2g = build_subproblem(make_profile(v2g=True), np.zeros(24))
    assert np.all(v2g.lo == -1.8)


def test_build_slot_cap_tightens_upper_bounds():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=1.8)
    cap = np.full(24, 10.0)
    cap[2] = 0.7
    sub = build_subproblem(prof, np.zeros(24), slot_cap=cap)
    assert np.allclose(sub.up, [1.8, 0.7, 1.8])


def test_build_slot_cap_without_room_raises():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=1.8)
    cap = np.full(24, 10.0)
    cap[3] = -0.5  # others already exceed the cap at slot 4
    with pytest.raises(InfeasibleError) as err:
        build_subproblem(prof, np.zeros(24), slot_cap=cap)
    assert err.value.user_id == 1


@pytest.mark.parametrize("v2g, lo", [(False, 0.0), (True, -1.8)])
def test_build_slot_cap_head_room_tolerance_edge(v2g, lo):
    # head-room at slot 3 down to the box's lower bound less FEAS_TOL still
    # fits, and the capped box still reaches the 1.8 kWh target
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=1.8,
                        v2g=v2g)
    cap = np.full(24, 10.0)
    cap[2] = lo - FEAS_TOL
    sub = build_subproblem(prof, np.zeros(24), slot_cap=cap)
    assert sub.up.tolist() == [1.8, lo, 1.8]
    cap[2] = np.nextafter(lo - FEAS_TOL, -np.inf)
    with pytest.raises(InfeasibleError) as err:
        build_subproblem(prof, np.zeros(24), slot_cap=cap)
    assert (err.value.user_id, err.value.constraint) == (1, "demand cap")
    assert str(err.value) == ("user 1: [demand cap] demand cap leaves no "
                              "room at a connected slot")


def test_build_slot_cap_short_of_target_names_the_cap():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=5.4)
    cap = np.full(24, 10.0)
    cap[2] = 1.0  # the uncapped box reaches 5.4 kWh; the capped one 4.6
    with pytest.raises(InfeasibleError, match="5.400 kWh owed.* 4.600") as err:
        build_subproblem(prof, np.zeros(24), slot_cap=cap)
    assert (err.value.user_id, err.value.constraint) == (1, "demand cap")
    # a target the vehicle could not reach without the cap either is the
    # energy balance's verdict, not the cap's
    sub = build_subproblem(prof, np.zeros(24), history=[0.0], slot_cap=cap)
    with pytest.raises(InfeasibleError) as err:
        solve(sub)
    assert err.value.constraint == "energy balance"


def test_build_validation_errors():
    prof = make_profile(arrival_slot=2, departure_slot=4, required_energy=1.8)
    with pytest.raises(ConfigError):
        build_subproblem(prof, np.zeros(24), lam=1.5)
    with pytest.raises(ConfigError):
        build_subproblem(prof, np.zeros(24), history=[0.0] * 4)


# ---------------------------------------------------------------------------
# feasibility checker

def test_check_feasible_flags_each_violation():
    sub = make_sub(min_prefix=0.5, max_prefix=2.0)
    assert check_feasible(sub, [0.6, 0.6, 0.6]) == []
    assert any("outside" in p for p in check_feasible(sub, [2.0, 0.0, -0.2]))
    assert any("energy" in p for p in check_feasible(sub, [0.5, 0.5, 0.5]))
    assert any("below floor" in p
               for p in check_feasible(sub, [0.2, 0.8, 0.8]))
    assert any("above ceiling" in p
               for p in check_feasible(sub, [1.8, 0.4, -0.4]))
    assert check_feasible(sub, [0.6, 0.6]) == ["shape (2,) != (3,)"]


# ---------------------------------------------------------------------------
# production solver

def test_solve_picks_cheapest_slots():
    sub = make_sub(coeff=np.array([3.0, 1.0, 2.0]), target=2.0)
    sol = solve(sub)
    assert sol.method == "greedy"
    assert np.allclose(sol.x, [0.0, 1.8, 0.2])
    assert sol.objective == pytest.approx(1.8 * 1.0 + 0.2 * 2.0)


def test_solve_empty_window():
    sub = make_sub(coeff=np.zeros(0), lo=np.zeros(0),
                   up=np.zeros(0), target=0.0)
    sol = solve(sub)
    assert sol.method == "empty" and sol.objective == 0.0
    owing = make_sub(coeff=np.zeros(0), lo=np.zeros(0),
                     up=np.zeros(0), target=1.0)
    with pytest.raises(InfeasibleError, match="owed"):
        solve(owing)


def test_solve_unreachable_target():
    with pytest.raises(InfeasibleError) as err:
        solve(make_sub(target=10.0))  # 3 slots x 1.8 < 10
    assert err.value.constraint == "energy balance"


def test_solve_soc_floor_forces_exact():
    # discharging early is tempting but would drain below the reserve
    sub = make_sub(coeff=np.array([5.0, -1.0, 0.0]),
                   lo=np.full(3, -1.8), up=np.full(3, 1.8),
                   target=0.0, min_prefix=-0.5)
    sol = solve(sub)
    assert sol.method == "exact"
    assert check_feasible(sub, sol.x) == []
    oracle = brute_force_oracle(sub, GRID)
    assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_solve_soc_ceiling_forces_exact():
    # nearly-full battery: big early charge would overfill it
    sub = make_sub(coeff=np.array([-5.0, 5.0, 0.0]),
                   lo=np.full(3, -1.8), up=np.full(3, 1.8),
                   target=0.0, min_prefix=-23.0, max_prefix=1.0)
    sol = solve(sub)
    assert sol.method == "exact"
    assert check_feasible(sub, sol.x) == []
    oracle = brute_force_oracle(sub, GRID)
    assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_solve_tied_slots_do_not_cycle_the_battery():
    # equal prices make any charge-then-discharge pair cost nothing; the
    # ceiling fails the greedy fill, and the exact path must stay idle
    sub = make_sub(coeff=np.array([1.0, 1.0]),
                   lo=np.full(2, -1.8), up=np.full(2, 1.8),
                   target=0.0, min_prefix=-10.0, max_prefix=1.0)
    sol = solve(sub)
    assert sol.method == "exact"
    assert np.array_equal(sol.x, [0.0, 0.0])


def test_solve_reserve_breach_is_infeasible():
    # arrived below the reserve and owes nothing: no plan can end legal
    prof = make_profile(initial_soc=2.0, required_energy=0.0)
    sub = build_subproblem(prof, np.zeros(24))
    with pytest.raises(InfeasibleError) as err:
        solve(sub)
    assert err.value.constraint == "state-of-charge"


# ---------------------------------------------------------------------------
# oracle guards

def test_oracle_slot_limits():
    big = make_sub(first=1, coeff=np.zeros(7),
                   lo=np.zeros(7), up=np.full(7, 1.8), target=0.0)
    with pytest.raises(DataError):
        brute_force_oracle(big)
    four = make_sub(first=1, coeff=np.zeros(4), lo=np.zeros(4),
                    up=np.full(4, 1.8), target=0.0)
    with pytest.raises(DataError):
        enumerate_oracle(four)


def test_oracle_requires_grid_aligned_target():
    with pytest.raises(DataError, match="grid"):
        brute_force_oracle(make_sub(target=1.85))
    with pytest.raises(ConfigError):
        brute_force_oracle(make_sub(), grid_step=0.0)


# ---------------------------------------------------------------------------
# randomized cross-validation

def random_sub(rng, max_slots=6):
    k = int(rng.integers(1, max_slots + 1))
    slots = sorted(int(s) + 1 for s in rng.choice(N_SLOTS, k, replace=False))
    v2g = bool(rng.random() < 0.5)
    lo = np.full(k, -1.8 if v2g else 0.0)
    up = np.full(k, 1.8)
    if rng.random() < 0.4:  # a congested-slot cap on some slots
        caps = rng.integers(0, 19, k) * GRID
        up = np.maximum(np.minimum(up, caps), lo)
    span_lo = int(round(lo.sum() / GRID))
    span_up = int(round(up.sum() / GRID))
    target = float(rng.integers(span_lo - 3, span_up + 4)) * GRID
    min_prefix = -float(rng.integers(0, 60)) * GRID
    if rng.random() < 0.1:
        min_prefix = float(rng.integers(0, 5)) * GRID  # start below reserve
    if rng.random() < 0.5:
        max_prefix = min_prefix + float(rng.integers(5, 80)) * GRID
    else:
        max_prefix = np.inf
    return UserSubproblem(
        user_id=int(rng.integers(1, 1000)), first=slots[0],
        coeff=rng.normal(0.0, 2.0, k), lo=lo, up=up, target=target,
        min_prefix=min_prefix, max_prefix=max_prefix)


def outcomes(sub, solver, *args):
    try:
        return solver(sub, *args) if args else solver(sub)
    except InfeasibleError:
        return None


def test_solver_agrees_with_dp_oracle():
    rng = np.random.default_rng(2468)
    feasible = infeasible = 0
    for _ in range(120):
        sub = random_sub(rng)
        got = outcomes(sub, solve)
        want = outcomes(sub, brute_force_oracle, GRID)
        assert (got is None) == (want is None), \
            f"verdict mismatch on {sub}"
        if got is None:
            infeasible += 1
            continue
        feasible += 1
        assert check_feasible(sub, got.x) == []
        # the continuous optimum can only undercut the grid optimum, and
        # with all data on the grid it lands on it exactly
        assert got.objective <= want.objective + 1e-9
        assert want.objective - got.objective <= \
            GRID * np.abs(sub.coeff).sum() + 1e-9
    assert feasible >= 50 and infeasible >= 10


def test_dp_agrees_with_exhaustive_enumeration():
    rng = np.random.default_rng(97531)
    checked = 0
    for _ in range(60):
        sub = random_sub(rng, max_slots=3)
        dp = outcomes(sub, brute_force_oracle, GRID)
        enum = outcomes(sub, enumerate_oracle, GRID)
        assert (dp is None) == (enum is None)
        if dp is not None:
            assert dp.objective == pytest.approx(enum.objective, abs=1e-9)
            checked += 1
    assert checked >= 20


def band_instance(rng):
    """A replanning LP of the shape ``build_subproblem`` emits: a V2G or
    charge-only box, upper bounds clipped by a demand cap's head-room, and
    the state-of-charge band of a 24-kWh battery. The battery starts within
    3 kWh of its reserve or of full, so the band often binds."""
    k = int(rng.integers(1, N_SLOTS + 1))
    lo = np.full(k, -1.8 if rng.random() < 0.7 else 0.0)
    up = np.full(k, 1.8)
    if rng.random() < 0.5:
        up = np.maximum(np.minimum(up, rng.uniform(-0.5, 2.5, k)), lo)
    soc0 = float(np.clip(rng.choice([4.8, 24.0]) + rng.uniform(-3.0, 3.0),
                         0.0, 24.0))
    floor, ceiling = 4.8 - soc0, 24.0 - soc0
    return UserSubproblem(
        user_id=int(rng.integers(1, 1000)), first=1,
        coeff=rng.normal(0.0, 2.0, k), lo=lo, up=up,
        target=rng.uniform(max(floor, -4.0) - 0.5, min(ceiling, 8.0) + 0.5),
        min_prefix=floor, max_prefix=ceiling)


def highs_batch(subs):
    """HiGHS verdicts and optimal objectives for many band LPs at once.

    The instances share no variable, so they go into one block-diagonal LP
    with one extra variable t per instance that loosens every one of its
    rows. Minimising the sum of t leaves t = 0 exactly on the feasible
    instances. Pinning those t at 0 and minimising the summed cost then
    optimises each feasible block on its own, because a block that could
    do better would lower the sum. Returns None for an infeasible
    instance, else its optimal objective. Presolve is off only because it
    takes longer than the solve on an LP of this shape.
    """
    blocks, rhs = [], []
    for sub in subs:
        k = len(sub.coeff)
        L = np.tril(np.ones((k, k)))
        one = np.ones((1, k))
        blocks.append(np.vstack([-L, L, one, -one]))
        rhs.append(np.concatenate([np.full(k, -sub.min_prefix),
                                   np.full(k, sub.max_prefix),
                                   [sub.target, -sub.target]]))
    loosen = block_diag([-np.ones((len(r), 1)) for r in rhs])
    A_ub = hstack([block_diag(blocks), loosen], format="csr")
    b_ub = np.concatenate(rhs)
    box = [(lo, up) for sub in subs for lo, up in zip(sub.lo, sub.up)]
    n, m = len(box), len(subs)

    options = {"presolve": False}
    relax = linprog(np.r_[np.zeros(n), np.ones(m)], A_ub=A_ub, b_ub=b_ub,
                    bounds=box + [(0, None)] * m, method="highs",
                    options=options)
    assert relax.status == 0, relax.message
    feasible = relax.x[n:] <= 1e-7
    cost = np.concatenate([sub.coeff for sub in subs])
    best = linprog(np.r_[cost, np.zeros(m)], A_ub=A_ub, b_ub=b_ub,
                   bounds=box + [(0, 0 if ok else None) for ok in feasible],
                   method="highs", options=options)
    assert best.status == 0, best.message
    out, pos = [], 0
    for sub, ok in zip(subs, feasible):
        x = best.x[pos:pos + len(sub.coeff)]
        out.append(float(sub.coeff @ x) if ok else None)
        pos += len(sub.coeff)
    return out


def test_solver_matches_highs_on_band_instances():
    rng = np.random.default_rng(1604)
    subs = [band_instance(rng) for _ in range(2000)]
    want = highs_batch(subs)
    methods = {"greedy": 0, "exact": 0, "infeasible": 0}
    for sub, ref in zip(subs, want):
        got = outcomes(sub, solve)
        assert (got is None) == (ref is None), f"verdict mismatch on {sub}"
        if got is None:
            methods["infeasible"] += 1
            continue
        methods[got.method] += 1
        assert check_feasible(sub, got.x) == []
        assert got.objective == pytest.approx(ref, abs=1e-7)
    assert min(methods.values()) >= 400, methods
