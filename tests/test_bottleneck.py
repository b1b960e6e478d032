import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import disthyp as d
from disthyp import bottleneck as bn

import oracles

SYM = np.array([[0.4, 0.1], [0.1, 0.4]])


@pytest.fixture(scope="module")
def sym_model():
    return d.JointPmf.from_probs(SYM)


@pytest.fixture(scope="module")
def readme_model():
    return d.calibrate_correlation(0.08, 32, 32)[1]


README_RATES = np.linspace(0.01, 0.25, 7) * math.log(2.0)


def three_by_two_model():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(6)).reshape(3, 2)
    probs = np.maximum(probs, 1e-3)
    return d.JointPmf.from_probs(probs / probs.sum())


def dirichlet_model(nx, ny, seed):
    """A full-support nx x ny joint drawn from a flat Dirichlet."""
    probs = np.random.default_rng(seed).dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return d.JointPmf.from_probs(probs)


def objective_after(p, beta, budget):
    """I(U;X) - beta I(U;Y) after at most ``budget`` map evaluations from
    ib_fixed_point's default start."""
    start = bn.TestChannel.identity_plus_noise(p.nx, p.nx + 1).cond_probs
    w, _, _ = bn._iterate(p, beta, start, budget)
    rate, relevance = bn.channel_information(p, bn.TestChannel(w))
    return rate - beta * relevance


class TestConfiguration:
    def test_no_public_function_takes_a_solver_setting(self):
        # MAX_ITERS is the configuration; _iterate keeps its budget
        public = [fn for name, fn in inspect.getmembers(bn, inspect.isfunction)
                  if fn.__module__ == bn.__name__ and not name.startswith("_")]
        assert {fn.__name__ for fn in public} >= {
            "ib_fixed_point", "solve_envelope", "exponent_at_rate", "build_curve"}
        for fn in public:
            assert not {"restarts", "max_iters"} & inspect.signature(fn).parameters.keys()
        assert bn.MAX_ITERS == 1000


class TestTestChannel:
    def test_rejects_negative_entry(self):
        with pytest.raises(bn.SolverError):
            bn.TestChannel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(bn.SolverError):
            bn.TestChannel(np.array([[0.6, 0.6], [0.5, 0.5]]))
        # the sum is spelled as a Python float, not numpy's np.float64(0.9)
        with pytest.raises(bn.SolverError, match=r"^channel row 1 sums to 0\.9, not 1$"):
            bn.TestChannel(np.array([[0.5, 0.5], [0.4, 0.5]]))

    def test_identity_plus_noise_rows(self):
        ch = bn.TestChannel.identity_plus_noise(2, 3)
        assert np.allclose(ch.cond_probs.sum(axis=1), 1.0)
        assert ch.cond_probs[0, 0] == pytest.approx(0.9)
        assert ch.cond_probs[1, 1] == pytest.approx(0.9)

    def test_constant_channel_collapses(self, sym_model):
        ch = bn.TestChannel.constant(2, 3)
        rate, rel = bn.channel_information(sym_model, ch)
        assert abs(rate) < 1e-14 and abs(rel) < 1e-14

    def test_identity_channel_reaches_corner(self, sym_model):
        ch = bn.TestChannel.identity(2, 3)
        rate, rel = bn.channel_information(sym_model, ch)
        assert rate == pytest.approx(sym_model.entropy_x, abs=1e-12)
        assert rel == pytest.approx(d.mutual_information(sym_model), abs=1e-12)


class TestFixedPoint:
    def test_beta_zero_collapses_to_trivial(self, sym_model):
        sol = bn.ib_fixed_point(sym_model, 0.0)
        assert sol.rate < 1e-9 and sol.relevance < 1e-9
        assert sol.converged

    def test_large_beta_reaches_full_relevance(self, sym_model):
        sol = bn.ib_fixed_point(sym_model, 1e3)
        assert sol.relevance == pytest.approx(
            d.mutual_information(sym_model), abs=1e-6)

    def test_objective_is_monotone_in_iterations(self, sym_model):
        # two budgets of the same start: more iterations never raise L
        l_short = objective_after(sym_model, 5.0, 3)
        l_long = objective_after(sym_model, 5.0, 400)
        assert l_long <= l_short + 1e-12

    def test_rejects_negative_beta(self, sym_model):
        with pytest.raises(bn.SolverError):
            bn.ib_fixed_point(sym_model, -0.5)

    def test_non_finite_iterate_raises(self, sym_model):
        # at beta = inf every penalty is inf or NaN, so the first update
        # produces a NaN channel, which must not pass silently
        with pytest.raises(bn.SolverError):
            bn.ib_fixed_point(sym_model, math.inf)
        # the loop itself must stop there, not hand a NaN channel back
        init = bn.TestChannel.identity_plus_noise(2, 3).cond_probs.copy()
        with pytest.raises(bn.SolverError):
            bn._iterate(sym_model, math.inf, init, max_iters=1)

    def test_largest_beta_stays_finite(self, readme_model):
        # at BETA_MAX the update's rows reach about -44,000 before the
        # per-row max is subtracted; unshifted, every entry of a row would
        # underflow to 0 and the row would read 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = bn.ib_fixed_point(readme_model, bn.BETA_MAX)
        assert np.all(np.isfinite(sol.channel.cond_probs))

    def test_rejects_wrong_init_shape(self, sym_model):
        with pytest.raises(bn.SolverError, match="init"):
            bn.ib_fixed_point(sym_model, 1.0, init=bn.TestChannel.identity(2, 2))

    def test_witness_reproduction(self, sym_model):
        # recomputing the information pair from the returned channel must
        # reproduce the reported values exactly
        for beta in (0.5, 2.0, 5.0, 50.0):
            sol = bn.ib_fixed_point(sym_model, beta)
            rate, rel = bn.channel_information(sym_model, sol.channel)
            assert rate == pytest.approx(sol.rate, abs=1e-10)
            assert rel == pytest.approx(sol.relevance, abs=1e-10)


def gauss8():
    return d.discretized_gaussian(0.5, 8, 8)


def chain_betas(pool):
    """The betas solve_envelope solved at, in order: the pool holds the two
    anchors, then one solution per beta."""
    return [s.beta for s in pool.solutions[2:]]


def swept_betas(pool):
    """The descending warm-started sweep: the betas from the largest on."""
    betas = chain_betas(pool)
    return betas[betas.index(max(betas)):]


class TestAcceleration:
    """The extrapolated iteration against the plain map it accelerates."""

    # the tall and wide joints make the stacked operators non-square:
    # |Y|+1 differs from |X|+1
    MODELS = {"sym": lambda: d.JointPmf.from_probs(SYM),
              "three_by_two": three_by_two_model, "gauss8": gauss8,
              "tall": lambda: dirichlet_model(24, 3, 24),
              "wide": lambda: dirichlet_model(3, 24, 3)}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("beta", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("budget", [1000, 20_000])
    def test_never_above_the_plain_map(self, name, beta, budget):
        # with the same budget of map evaluations and the same stopping
        # rule.  On the 8x8 Gaussian at beta 5 the accelerated iteration
        # stops at 841 evaluations and the plain map at 13,066, both about
        # 3.5e-7 above the fixed point: the rule measures one step's change
        p = self.MODELS[name]()
        start = bn.TestChannel.identity_plus_noise(p.nx, p.nx + 1).cond_probs
        plain = oracles.plain_ib(p.probs, beta, start, budget, tol=1e-10)
        assert objective_after(p, beta, budget) <= \
            oracles.ib_objective(p.probs, plain, beta)[2] + 1e-9

    @pytest.mark.parametrize("name", ["dsbs", "gauss8"])
    def test_envelope_support_dominates_the_plain_map(self, name):
        # same start, descending sweep and stopping rule, plain steps only.
        # The check is on the envelope's support line at each swept slope
        # 1/beta, the quantity each beta-solve optimizes; the chord value at
        # a fixed rate also moves with where a vertex stops along the curve,
        # which the stopping rule leaves free
        p = d.JointPmf.from_probs(SYM) if name == "dsbs" else gauss8()
        nu = p.nx + 1
        starts = [bn.TestChannel.identity_plus_noise(p.nx, nu).cond_probs]
        pool = bn.solve_envelope(p)
        swept = swept_betas(pool)
        assert len(swept) == bn.SWEEP_POINTS
        rates, rels = oracles.plain_ib_points(p.probs, starts, swept, 1000, 1e-10)
        ours_r = np.array([s.rate for s in pool.solutions])
        ours_v = np.array([s.relevance for s in pool.solutions])
        slopes = 1.0 / np.array(swept)[:, None]
        ours = np.max(ours_v - slopes * ours_r, axis=1)
        plain = np.max(rels - slopes * rates, axis=1)
        assert np.all(ours >= plain - 1e-9)

    def test_objective_never_rises(self):
        # every budget k ends on an accepted iterate, so the objective is
        # non-increasing in k through the extrapolated steps and rejections
        p = gauss8()
        objs = [objective_after(p, 5.0, k) for k in range(1, 61)]
        assert np.all(np.diff(objs) <= 1e-12)

    def test_dead_cluster_stays_empty(self):
        # a cluster whose mass collapsed keeps an all-zero column; the log of
        # a zero is -inf, which the extrapolation must leave at exactly zero
        # without disturbing the live columns, which step as they would alone
        # (up to rounding: the norms sum the extra zeros in another order)
        p = gauss8()
        w = bn.TestChannel.identity_plus_noise(p.nx, p.nx).cond_probs
        alone, n_alone, _ = bn._iterate(p, 5.0, w, 60)
        for col in (p.nx, 3):
            padded = np.insert(w, col, 0.0, axis=1)
            out, iters, _ = bn._iterate(p, 5.0, padded, 60)
            assert iters == n_alone > 3  # extrapolated steps were taken
            assert np.all(out[:, col] == 0.0)
            assert np.max(np.abs(np.delete(out, col, axis=1) - alone)) <= 1e-7

    def test_capped_solves_converge(self):
        # the plain map stops 5 of these 200 beta-solves at the 1000 cap
        p = d.discretized_gaussian(0.8, 4, 4)
        assert bn.solve_envelope(p).solver_counters()["unconverged"] == 0


class TestMapStep:
    """One evaluation of the accelerated iteration is one plain map step."""

    @pytest.mark.parametrize("name", sorted(TestAcceleration.MODELS))
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 5.0, 50.0])
    def test_one_evaluation_is_one_plain_step(self, name, beta):
        # also with an empty cluster, which must stay exactly empty at every
        # beta: at 0 and 1 its update is 0 * -inf in one term or the other
        p = TestAcceleration.MODELS[name]()
        full = bn.TestChannel.identity_plus_noise(p.nx, p.nx + 1).cond_probs
        dead = np.insert(bn.TestChannel.identity_plus_noise(p.nx, p.nx).cond_probs,
                         1, 0.0, axis=1)
        for w in (full, dead):
            got, iters, _ = bn._iterate(p, beta, w, 1)
            assert iters == 1
            want = oracles.plain_ib(p.probs, beta, w, 1)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert np.all(got[:, 1] == 0.0)


class TestStackCap:
    """Models whose solver arrays would exceed the cap fail before any
    channel is built."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            with pytest.raises(bn.SolverError, match="cap"):
                fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_too_wide_a_model(self):
        # 2048 x 2049 entries, just over the cap; 2047 x 2048 is the widest
        # model it admits
        p = d.JointPmf.from_probs(np.full((2048, 2), 1 / 4096))
        assert self.peak_bytes(lambda: bn.ib_fixed_point(p, 1.0)) < 1 << 20
        assert self.peak_bytes(lambda: bn.solve_envelope(p)) < 1 << 20
        bn._check_stack_size(d.JointPmf.from_probs(np.full((2047, 2), 1 / 4094)))


class TestEnvelope:
    def test_envelope_monotone_and_concave(self, sym_model):
        pool = bn.solve_envelope(sym_model)
        grid = np.linspace(0.0, 1.2, 40)
        vals = np.array([pool.value_at(float(r)) for r in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] >= chords - 1e-9)
        # every vertex is a pool solution, read off it exactly
        hull, hull_rates, hull_rels = pool.hull()
        assert [(pool.solutions[k].rate, pool.solutions[k].relevance) for k in hull] \
            == list(zip(hull_rates, hull_rels))
        assert hull_rates[0] == 0.0
        assert np.all(np.diff(hull_rates) > 0)
        assert np.all(np.diff(np.diff(hull_rels) / np.diff(hull_rates)) < 0)
        # and no solution lies above it: together, the least such majorant
        assert all(s.relevance <= pool.value_at(s.rate) + 1e-12 for s in pool.solutions)

    def test_pool_reads_hull_and_counters_off_its_list(self, sym_model):
        # the solution list is the pool's only state: a solution appended to
        # it is a vertex and a rate solve at the next read
        pool = bn.EnvelopePool(sym_model, bn._anchor_solutions(sym_model))
        assert [f.name for f in dataclasses.fields(pool) if f.init] == ["p", "solutions"]
        assert pool.hull()[0] == [0, 1] and pool.rate_solves == 0
        assert pool.restarts_used == 0
        pool.solutions.append(bn.ib_fixed_point(sym_model, 4.0))
        assert pool.hull()[0] == [0, 2, 1] and pool.rate_solves == 1
        assert pool.value_at(pool.solutions[2].rate) == pool.solutions[2].relevance
        assert bn.EnvelopePool(sym_model, pool.solutions).rate_solves == 0

    def test_every_solution_keeps_all_clusters(self, sym_model):
        # no cluster is dropped, during the sweep or in the bisection, even
        # when its mass collapses; the reported pair is the channel's own
        pool = bn.solve_envelope(sym_model)
        swept = len(pool.solutions)
        for r in (0.05, 0.1, 0.2, 0.3, 0.4):
            bn._bisect(pool, r)
        assert len(pool.solutions) > swept
        for sol in pool.solutions:
            assert sol.channel.cond_probs.shape == (2, 3)
            rate, rel = bn.channel_information(sym_model, sol.channel)
            assert rate == pytest.approx(sol.rate, abs=1e-10)
            assert rel == pytest.approx(sol.relevance, abs=1e-10)

    def test_exponent_at_rate_against_grid_oracle(self, sym_model):
        rates = [0.05, 0.15, 0.3, 0.5, 0.69]
        oracle = oracles.brute_force_exponent(SYM, rates)
        for r, ov in zip(rates, oracle):
            xi, _ = d.exponent_at_rate(sym_model, r, master_seed=5)
            assert xi == pytest.approx(ov, abs=1e-3)

    def test_witness_at_rate_is_feasible_and_reproducible(self, sym_model):
        xi, wit = d.exponent_at_rate(sym_model, 0.4, master_seed=5)
        assert wit.rate <= 0.4 + 1e-12
        rate, rel = bn.channel_information(sym_model, wit.channel)
        assert rate == pytest.approx(wit.rate, abs=1e-10)
        assert rel == pytest.approx(wit.relevance, abs=1e-10)
        assert rel <= xi + 1e-9  # envelope dominates single channels

    def test_negative_rate_rejected(self, sym_model):
        with pytest.raises(bn.SolverError):
            d.exponent_at_rate(sym_model, -0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(bn.SolverError):
                d.exponent_at_rate(sym_model, bad)

    def test_xi_above_min_rate_and_mi_is_refused(self, sym_model, monkeypatch):
        # an envelope that reads above min(R, I(X;Y)) breaks the certified
        # direction: both entry points refuse it past the 1e-9 tolerance,
        # below H(X) where R binds and above it where I(X;Y) does, and
        # answer at the tolerance itself
        mi = d.mutual_information(sym_model)
        for excess, refused in ((2e-9, True), (1e-9, False)):
            monkeypatch.setattr(bn.EnvelopePool, "value_at",
                                lambda self, r, e=excess: min(r, mi) + e)
            for r in (0.1, sym_model.entropy_x + 0.5):
                if refused:
                    with pytest.raises(bn.SolverError, match="above min"):
                        d.build_curve(sym_model, [r])
                    with pytest.raises(bn.SolverError, match="above min"):
                        d.exponent_at_rate(sym_model, r)
                else:
                    assert d.build_curve(sym_model, [r]).xi[0] == min(r, mi) + excess
                    assert d.exponent_at_rate(sym_model, r)[0] == min(r, mi) + excess

    def test_exponent_at_rate_against_mrs_gerber(self, sym_model):
        # SYM is a doubly symmetric binary source with crossover 0.2, whose
        # curve is known in closed form; the envelope must sit just below it,
        # and the bisection's slope -1/beta must be the curve's.  The rates
        # are the benchmark's, one near the critical beta and one near H(X)
        for r in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.6):
            xi, _ = d.exponent_at_rate(sym_model, r)
            assert 0.0 <= oracles.mrs_gerber(r) - xi <= 1e-9
            curve = d.build_curve(sym_model, [r])
            assert curve.xi[0] == xi
            assert abs(curve.d_slope[0] + oracles.mrs_gerber_slope(r)) <= 1e-5


class TestCurve:
    def test_log_loss_identity_exact(self, sym_model):
        # D is defined by the identity D = H(Y) - xi, so that direction is
        # bit-exact; the re-summed form only holds to float rounding
        curve = d.build_curve(sym_model, np.linspace(0.02, 1.0, 8), master_seed=3)
        assert np.array_equal(curve.d, sym_model.entropy_y - curve.xi)
        assert np.allclose(curve.d + curve.xi, sym_model.entropy_y,
                           rtol=0, atol=1e-15)

    def test_curve_monotonicity_and_slope_sign(self, sym_model):
        curve = d.build_curve(sym_model, np.linspace(0.02, 1.0, 8), master_seed=3)
        assert np.all(np.diff(curve.xi) >= -1e-12)
        assert np.all(curve.d_slope <= 0.0)

    def test_sidecar_carries_diagnostics(self, sym_model):
        rates = np.linspace(0.1, 0.9, 5)
        curve = d.build_curve(sym_model, rates, master_seed=3)
        diag = curve.diagnostics
        # the seed is an input, echoed by the CLI sidecar; the counters are the pool's
        assert set(diag) == {"beta_solves", "iterations", "unconverged", "rate_solves"}
        assert 0 <= diag["unconverged"] <= diag["beta_solves"] <= diag["iterations"]
        # each rate below H(X) takes at least one root-finding solve and the
        # last, and at most one chord solve; the identity anchor answers the
        # rest
        below = int(np.sum(rates < sym_model.entropy_x))
        assert below == 3
        assert 2 * below <= diag["rate_solves"] < diag["beta_solves"]

    def test_counters_report_capped_solves(self, monkeypatch):
        # with a cap of 10 evaluations most beta-solves on this 4x4 Gaussian
        # stop at the cap, and each of those spends all 10
        p = d.discretized_gaussian(0.8, 4, 4)
        with monkeypatch.context() as m:
            m.setattr(bn, "MAX_ITERS", 10)
            pool = bn.solve_envelope(p)
        counters = pool.solver_counters()
        solves = [s for s in pool.solutions if math.isfinite(s.beta)]
        # growth doubles beta from 2 to the largest, then the sweep runs
        # SWEEP_POINTS betas down to 1, one solve each
        betas = chain_betas(pool)
        top = betas.index(max(betas))
        assert betas[:top + 1] == [2.0 ** k for k in range(1, top + 2)]
        assert np.allclose(betas[top:], np.geomspace(max(betas), 1.0, bn.SWEEP_POINTS),
                           rtol=1e-15, atol=0)
        assert counters["beta_solves"] == len(solves) == len(betas)
        assert counters["unconverged"] == sum(s.iterations == 10 and not s.converged
                                              for s in solves) > 0
        assert counters["iterations"] == sum(s.iterations for s in solves)
        assert counters["iterations"] >= 10 * counters["unconverged"]
        rates = np.linspace(0.05, 0.5, 3)
        curve = d.build_curve(p, rates)
        pool = bn.solve_envelope(p, rates[-1])
        swept = len(pool.solutions) - 2
        for r in rates:
            bn._bisect(pool, float(r))
        for r in rates:
            bn._solve_on_chord(pool, float(r))
        assert curve.diagnostics == pool.solver_counters()
        # at least one root-finding solve per rate, on top of the sweep, and
        # rate_solves counts those and the chord solves
        assert curve.diagnostics["beta_solves"] >= swept + 3
        assert curve.diagnostics["rate_solves"] == curve.diagnostics["beta_solves"] - swept

    def test_rejects_bad_grids(self, sym_model):
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [])  # empty
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [0.3, 0.2, 0.4])  # not increasing
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [-0.1, 0.2, 0.4])  # negative
        for bad in (math.nan, math.inf):
            with pytest.raises(bn.SolverError):
                d.build_curve(sym_model, [0.1, bad, 0.4])  # not a number

    def test_one_point_grid_runs(self, sym_model):
        # the slope comes from the bisection at the point, not from
        # neighbours on the grid
        curve = d.build_curve(sym_model, [0.2])
        xi, _ = d.exponent_at_rate(sym_model, 0.2)
        assert curve.xi.tolist() == [xi]
        assert curve.d_slope[0] < 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_curve_rejects_bad_rates_directly(self, bad):
        cols = np.array([0.1, 0.2, 0.3])
        with pytest.raises(bn.SolverError, match="finite, nonnegative"):
            bn.ExponentCurve(np.array([0.1, bad, 0.4]), cols, cols, -cols, "fp")
        bn.ExponentCurve(np.array([0.1, 0.2, 0.4]), cols, cols, -cols, "fp")

    @pytest.mark.parametrize("slope", [1e-7, 1e-6, 0.5])
    def test_curve_rejects_positive_slope(self, slope):
        cols = np.array([0.1, 0.2, 0.3])
        with pytest.raises(bn.SolverError, match="nonpositive"):
            bn.ExponentCurve(cols, cols, cols, np.array([-0.1, slope, 0.0]), "fp")
        bn.ExponentCurve(cols, cols, cols, np.array([-0.1, -0.0, 0.0]), "fp")

    def test_boundary_identities(self, sym_model):
        mi = d.mutual_information(sym_model)
        hx = sym_model.entropy_x
        xi_high, _ = d.exponent_at_rate(sym_model, hx + 0.5)
        assert xi_high == pytest.approx(mi, abs=1e-4)
        xi_zero, _ = d.exponent_at_rate(sym_model, 0.0)
        assert xi_zero <= 1e-6

    def test_seed_changes_nothing_material(self, readme_model):
        # the solver draws no random numbers: the seed moves no byte
        a = d.build_curve(readme_model, README_RATES, master_seed=1)
        b = d.build_curve(readme_model, README_RATES, master_seed=2)
        assert a.xi.tobytes() == b.xi.tobytes()
        assert a.d_slope.tobytes() == b.d_slope.tobytes()


# xi at the README curve's 7 rates as the 40-point beta grid with
# refinement at the supporting beta reported them, to full precision
GRID_README_XI = (0.001015507560238674, 0.004956996410059371, 0.008730721556780365,
                  0.01232832399527372, 0.01576418732698618, 0.018970345985119767,
                  0.02213497157560763)


class TestReadmeCurve:
    def test_bisection_never_loses_to_the_grid(self, readme_model):
        # the README model and rates: every xi at least the grid's, no solve
        # stopped at the cap, and every witness within its rate budget
        p = readme_model
        curve = d.build_curve(p, README_RATES)
        assert np.all(curve.xi >= np.array(GRID_README_XI) - 1e-9)
        assert curve.diagnostics["unconverged"] == 0
        # plain bisection in log beta took 114 solves, 103 of them on the rates
        assert curve.diagnostics["beta_solves"] <= 70
        for r in README_RATES:
            _, witness = d.exponent_at_rate(p, float(r))
            assert witness.rate <= r + 1e-12

    def test_bisection_matches_the_loop(self, readme_model):
        # the bracket search over the pool's arrays picks the same standing
        # solutions, ties to the first, as a loop over the pool: every
        # solution and slope agree bit for bit, across rates sharing a pool
        for p, rates in ((readme_model, README_RATES), (d.JointPmf.from_probs(SYM),
                                                        [0.01, 0.2, 0.6, 0.7])):
            ours = bn.solve_envelope(p, max(rates))
            ref = bn.EnvelopePool(p, list(ours.solutions))
            for r in rates:
                assert bn._bisect(ours, float(r)) == oracles.bisect_reference(ref, float(r))
            assert [(s.rate, s.relevance, s.beta) for s in ours.solutions] == \
                [(s.rate, s.relevance, s.beta) for s in ref.solutions]
            assert ours.solver_counters() == ref.solver_counters()

    @pytest.mark.parametrize("at", ["H(X)", "3.0"])
    def test_rates_from_hx_on_grow_no_beta(self, readme_model, at, monkeypatch):
        # the identity anchor answers every rate >= H(X) exactly, so both
        # entry points sweep as for rate 0, bisect nothing and cap no solve
        p = readme_model
        r = p.entropy_x if at == "H(X)" else float(at)
        anchor = bn.channel_information(p, bn.TestChannel.identity(p.nx, p.nx + 1))[1]
        pools = []
        solve = bn.solve_envelope
        monkeypatch.setattr(bn, "solve_envelope",
                            lambda *args: pools.append(solve(*args)) or pools[-1])
        xi, _ = d.exponent_at_rate(p, r)
        curve = d.build_curve(p, [r])
        assert xi == curve.xi[0] == anchor
        assert curve.d_slope[0] == 0.0
        rate_zero = solve(p, 0.0).solver_counters()
        assert rate_zero["unconverged"] == 0
        assert [pool.solver_counters() for pool in pools] == [rate_zero, rate_zero]


def record_solves(monkeypatch):
    """The (beta, start channel) of every later ib_fixed_point call, in order."""
    calls = []
    solve = bn.ib_fixed_point
    monkeypatch.setattr(bn, "ib_fixed_point",
                        lambda p, beta, init: calls.append((beta, init)) or solve(p, beta, init))
    return calls


class TestSecantStep:
    """The root finding in _bisect: its step rule, _next_log_beta, and the
    solves it makes."""

    def test_keeps_a_secant_above_the_midpoint(self):
        # f crosses zero 3/4 of the way up
        assert bn._next_log_beta(0.0, 1.0, -3.0, 1.0) == 0.75

    def test_raises_a_secant_below_the_midpoint(self):
        # f crosses zero 1/4 of the way up
        assert bn._next_log_beta(0.0, 1.0, -1.0, 3.0) == 0.5

    @pytest.mark.parametrize("f_lo, f_hi", [
        (0.5, 0.5), (-0.0, 0.0),          # equal f: the float division is guarded
        (math.nan, 1.0), (-1.0, math.nan),
        (1.0, 2.0), (-2.0, -1.0),         # same sign: the secant leaves the bracket
        (0.0, 1.0), (-1.0, 0.0),          # on an end, not strictly inside
    ])
    def test_falls_back_to_the_midpoint(self, f_lo, f_hi):
        assert bn._next_log_beta(1.0, 2.0, f_lo, f_hi) == 1.5

    def test_stays_in_the_upper_half(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x_lo, x_hi = np.sort(rng.uniform(0.0, 10.0, 2)).tolist()
            f_lo, f_hi = -rng.exponential(), rng.exponential()
            x = bn._next_log_beta(x_lo, x_hi, f_lo, f_hi)
            assert 0.5 * (x_lo + x_hi) <= x < x_hi

    def test_every_solve_starts_on_the_stable_side(self, readme_model, monkeypatch):
        # replay each rate's bracket from the recorded solves: every
        # root-finding solve lies inside its bracket, at or above its
        # log-midpoint, warm-started from the solution standing at the upper
        # end; the last is at the final bracket's geometric mean, from the
        # first upper solution
        pool = bn.solve_envelope(readme_model, float(README_RATES[-1]))
        calls = record_solves(monkeypatch)

        def standing(beta, upto):
            objs = [s.rate - beta * s.relevance for s in pool.solutions[:upto]]
            return pool.solutions[int(np.argmin(objs))]

        above_mid = 0
        for r in README_RATES.tolist():
            start, calls[:] = len(pool.solutions), []
            slope = bn._bisect(pool, r)
            betas = sorted({s.beta for s in pool.solutions[:start] if 1.0 < s.beta < math.inf})
            hi = next(b for b in betas if standing(b, start).rate > r + 1e-12)
            lo = max((b for b in betas if b < hi), default=1.0)
            seed = first = standing(hi, start)
            assert len(calls) >= 2
            for i, (beta, init) in enumerate(calls[:-1]):
                mid = 0.5 * (math.log(lo) + math.log(hi))
                assert lo < beta < hi
                assert math.log(beta) >= mid - 1e-12
                above_mid += math.log(beta) > mid + 1e-12
                assert init is seed.channel
                held = standing(beta, start + i + 1)
                if held.rate > r + 1e-12:
                    hi, seed = beta, held
                else:
                    lo = beta
            assert hi <= lo * (1.0 + bn.BISECT_RTOL)
            beta, init = calls[-1]
            assert beta == math.sqrt(lo * hi) and init is first.channel
            assert slope == -1.0 / beta
        # the secant, not only the midpoint, places solves
        assert above_mid > 0

def random_joint(seed, index):
    """Joint ``index`` of the Dirichlet(0.7) draws from default_rng(seed),
    |X| and |Y| each in 2..12."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        nx, ny = rng.integers(2, 13, size=2)
        probs = rng.dirichlet(np.full(nx * ny, 0.7)).reshape(nx, ny)
    return d.JointPmf.from_probs(probs)


class TestChordSolve:
    """_solve_on_chord: one solve per query rate at the slope of the
    envelope's chord over it."""

    def test_solves_at_the_chord_slope_from_its_lower_vertex(self, monkeypatch):
        p = random_joint(1234, 93)
        rates = (np.linspace(0.05, 0.95, 6) * p.entropy_x).tolist()
        pool = bn.solve_envelope(p, rates[-1])
        for r in rates:
            bn._bisect(pool, r)
        calls = record_solves(monkeypatch)
        rose = 0
        for r in rates:
            hull, hull_rates, _ = pool.hull()
            i = int(np.searchsorted(hull_rates, r))
            lower, upper = (pool.solutions[j] for j in hull[i - 1:i + 1])
            assert lower.rate < r < upper.rate and math.isfinite(lower.beta)
            before, count, calls[:] = pool.value_at(r), pool.rate_solves, []
            bn._solve_on_chord(pool, r)
            beta, init = calls[0]
            assert len(calls) == 1 and pool.rate_solves == count + 1
            assert beta == 1.0 / ((upper.relevance - lower.relevance) / (upper.rate - lower.rate))
            assert init is lower.channel
            # the solve never raises the objective it starts from, so it ends
            # on or above the chord's line, and xi at r never falls
            new = pool.solutions[-1]
            assert new.rate - beta * new.relevance <= lower.rate - beta * lower.relevance + 1e-15
            assert pool.value_at(r) >= before
            rose += pool.value_at(r) > before + 1e-9
        assert rose > 0

    def test_no_solve_at_a_vertex_or_between_anchors(self, sym_model):
        pool = bn.EnvelopePool(sym_model, bn._anchor_solutions(sym_model))
        for r in (0.0, 0.3, sym_model.entropy_x, 2.0):
            bn._solve_on_chord(pool, r)
        assert len(pool.solutions) == 2 and pool.rate_solves == 0

    def test_starts_from_the_upper_vertex_over_the_constant_anchor(self, sym_model,
                                                                    monkeypatch):
        # one solve at beta 4 on the DSBS: the chord from the constant
        # anchor to it has no solve at its lower end
        pool = bn.EnvelopePool(sym_model, bn._anchor_solutions(sym_model)
                               + [bn.ib_fixed_point(sym_model, 4.0)])
        hull, hull_rates, _ = pool.hull()
        assert hull[:2] == [0, 2]
        calls = record_solves(monkeypatch)
        bn._solve_on_chord(pool, 0.5 * hull_rates[1])
        assert [init for _, init in calls] == [pool.solutions[2].channel]

    @pytest.mark.parametrize("seed, index, k, xi", [(1234, 51, 2, 0.25759437173905486),
                                                    (1234, 93, 2, 0.25670127733163006),
                                                    (999, 78, 3, 0.32198613970259443),
                                                    (999, 140, 2, 0.21735922157056906)])
    def test_jump_points_keep_the_bisection_value(self, seed, index, k, xi):
        # rates inside a jump of the solution branch, in a 6-rate curve.  On
        # the first three xi is what plain bisection in log beta read there;
        # the secant alone read 2.04e-6 less on (1234, 93) and 3.7e-5 less
        # on (999, 78), where the chord opens only with the next rate's
        # solves, so its chord solve must come after every search.  On
        # (999, 140) xi is the secant's with its last solve at the final
        # bracket's geometric mean; without that solve it reads 3.35e-6 less
        p = random_joint(seed, index)
        curve = d.build_curve(p, np.linspace(0.05, 0.95, 6) * p.entropy_x)
        assert curve.xi[k] >= xi - 1e-7


class TestAsymmetricModels:
    def test_three_by_two_curve(self):
        p = three_by_two_model()
        mi = d.mutual_information(p)
        curve = d.build_curve(p, np.linspace(0.05, p.entropy_x, 6), master_seed=4)
        assert curve.xi[-1] == pytest.approx(mi, abs=1e-4)
        assert np.all(curve.xi <= np.minimum(curve.r, mi) + 1e-9)
