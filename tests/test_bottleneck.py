import math
import tracemalloc

import numpy as np
import pytest

import disthyp as d
from disthyp import bottleneck as bn, rngstreams

import oracles

SYM = np.array([[0.4, 0.1], [0.1, 0.4]])


@pytest.fixture(scope="module")
def sym_model():
    return d.JointPmf.from_probs(SYM)


def three_by_two_model():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(6)).reshape(3, 2)
    probs = np.maximum(probs, 1e-3)
    return d.JointPmf.from_probs(probs / probs.sum())


class TestTestChannel:
    def test_rejects_negative_entry(self):
        with pytest.raises(bn.SolverError):
            bn.TestChannel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(bn.SolverError):
            bn.TestChannel(np.array([[0.6, 0.6], [0.5, 0.5]]))

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
        short = bn.ib_fixed_point(sym_model, 5.0, max_iters=3)
        long = bn.ib_fixed_point(sym_model, 5.0, max_iters=400)
        l_short = short.rate - 5.0 * short.relevance
        l_long = long.rate - 5.0 * long.relevance
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
            bn._iterate(sym_model, math.inf, init[None], max_iters=1)

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


class TestLockstep:
    """Chains stacked into one iterate run exactly as each does alone."""

    @pytest.fixture(params=["sym", "three_by_two"])
    def model(self, request, sym_model):
        return sym_model if request.param == "sym" else three_by_two_model()

    @staticmethod
    def stack(p):
        # near-identity, random, and the constant channel, which is a fixed
        # point and stops at once while the other two go on
        nx, nu = p.nx, p.nx + 1
        return np.stack([bn.TestChannel.identity_plus_noise(nx, nu).cond_probs,
                         bn.TestChannel.random(nx, nu, np.random.default_rng(7)).cond_probs,
                         bn.TestChannel.constant(nx, nu).cond_probs])

    @pytest.mark.parametrize("beta", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("max_iters", [1000, 20])
    def test_each_chain_matches_its_one_chain_run(self, model, beta, max_iters):
        stack = self.stack(model)
        w, iters, converged = bn._iterate(model, beta, stack, max_iters)
        assert w.shape == stack.shape
        assert iters[2] == 2 and converged[2]
        for k in range(len(stack)):
            alone, n, ok = bn._iterate(model, beta, stack[k:k + 1], max_iters)
            assert (iters[k], converged[k]) == (n[0], ok[0])
            assert np.max(np.abs(w[k] - alone[0])) <= 1e-12

    def test_chains_stop_on_their_own(self, model):
        # the cap cuts the two moving chains off but not the constant one;
        # a chain is flagged converged only if it meets OBJ_TOL within the cap
        # (on sym the random chain meets it at exactly the 10th evaluation)
        stack = self.stack(model)
        _, iters, converged = bn._iterate(model, 5.0, stack, 10)
        _, uncapped, _ = bn._iterate(model, 5.0, stack, 1000)
        assert iters.tolist() == [10, 10, 2]
        assert uncapped[0] > 10 and uncapped[2] == 2
        assert converged.tolist() == (uncapped <= 10).tolist()

    def test_restarts_leave_chain_zero_alone(self, model):
        alone = bn.solve_envelope(model, restarts=0)
        stacked = bn.solve_envelope(model, restarts=3)
        # anchors, then chain 0's sweep: the pool is chain-major
        assert len(stacked.solutions) == 2 + 4 * (len(alone.solutions) - 2)
        for a, b in zip(alone.solutions, stacked.solutions):
            assert np.array_equal(a.channel.cond_probs, b.channel.cond_probs)
            assert (a.rate, a.relevance, a.beta, a.iterations, a.converged) == \
                (b.rate, b.relevance, b.beta, b.iterations, b.converged)


def gauss8():
    return d.discretized_gaussian(0.5, 8, 8)


class TestAcceleration:
    """The extrapolated iteration against the plain map it accelerates."""

    MODELS = {"sym": lambda: d.JointPmf.from_probs(SYM),
              "three_by_two": three_by_two_model, "gauss8": gauss8}

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("beta", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("budget", [1000, 20_000])
    def test_never_above_the_plain_map(self, name, beta, budget):
        # with the same budget of map evaluations and the same stopping
        # rule.  On the 8x8 Gaussian at beta 5 the accelerated iteration
        # stops at 1027 evaluations and the plain map at 13,066, both about
        # 3.5e-7 above the fixed point: the rule measures one step's change
        p = self.MODELS[name]()
        start = bn.TestChannel.identity_plus_noise(p.nx, p.nx + 1).cond_probs
        plain = oracles.plain_ib(p.probs, beta, start, budget, tol=1e-10)
        sol = bn.ib_fixed_point(p, beta, max_iters=budget)
        assert sol.rate - beta * sol.relevance <= \
            oracles.ib_objective(p.probs, plain, beta)[2] + 1e-9

    @pytest.mark.parametrize("name", ["dsbs", "gauss8"])
    def test_envelope_support_dominates_the_plain_map(self, name):
        # same starts, sweep and stopping rule, plain steps only.  The check
        # is on the envelope's support line at each swept slope 1/beta, the
        # quantity each beta-solve optimizes; the chord value at a fixed
        # rate also moves with where a vertex stops along the curve, which
        # the stopping rule leaves free (on the DSBS the plain map's vertex
        # at beta 2.89 stops short of the fixed point, which lifts its chord
        # by 1.1e-6 at R = 0.09 above that of the converged vertex)
        p = d.JointPmf.from_probs(SYM) if name == "dsbs" else gauss8()
        nu = p.nx + 1
        starts = [bn.TestChannel.identity_plus_noise(p.nx, nu).cond_probs]
        starts += [bn.TestChannel.random(p.nx, nu, rngstreams.stream(
            0, rngstreams.PURPOSE_SOLVER, k)).cond_probs for k in range(1, 5)]
        rates, rels = oracles.plain_ib_points(p.probs, starts, bn.DEFAULT_BETA_GRID,
                                              1000, 1e-10)
        pool = bn.solve_envelope(p, restarts=4, master_seed=0)
        ours_r = np.array([s.rate for s in pool.solutions])
        ours_v = np.array([s.relevance for s in pool.solutions])
        slopes = 1.0 / np.array(bn.DEFAULT_BETA_GRID)[:, None]
        ours = np.max(ours_v - slopes * ours_r, axis=1)
        plain = np.max(rels - slopes * rates, axis=1)
        assert np.all(ours >= plain - 1e-9)

    def test_objective_never_rises(self):
        # every budget k ends on an accepted iterate, so the objective is
        # non-increasing in k through the extrapolated steps and rejections
        p = gauss8()
        objs = []
        for k in range(1, 61):
            sol = bn.ib_fixed_point(p, 5.0, max_iters=k)
            objs.append(sol.rate - 5.0 * sol.relevance)
        assert np.all(np.diff(objs) <= 1e-12)

    def test_dead_cluster_stays_empty(self):
        # a cluster whose mass collapsed keeps an all-zero column; the log of
        # a zero is -inf, which the extrapolation must leave at exactly zero
        # without disturbing the live columns, which step as they would alone
        # (up to rounding: the norms sum the extra zeros in another order)
        p = gauss8()
        w = bn.TestChannel.identity_plus_noise(p.nx, p.nx).cond_probs
        alone, n_alone, _ = bn._iterate(p, 5.0, w[None], 60)
        for col in (p.nx, 3):
            padded = np.insert(w, col, 0.0, axis=1)
            out, iters, _ = bn._iterate(p, 5.0, padded[None], 60)
            assert iters[0] == n_alone[0] > 3  # extrapolated steps were taken
            assert np.all(out[0][:, col] == 0.0)
            assert np.max(np.abs(np.delete(out[0], col, axis=1) - alone[0])) <= 1e-7

    def test_capped_solves_converge(self):
        # the plain map stops 5 of these 200 beta-solves at the 1000 cap
        p = d.discretized_gaussian(0.8, 4, 4)
        assert bn.solve_envelope(p).solver_counters()["unconverged"] == 0


class TestMapStep:
    """One evaluation of the lockstep iteration is one plain map step."""

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
            got, iters, _ = bn._iterate(p, beta, w[None], 1)
            assert iters[0] == 1
            want = oracles.plain_ib(p.probs, beta, w, 1)
            assert np.max(np.abs(got[0] - want)) <= 1e-12
        assert np.all(got[0][:, 1] == 0.0)


class TestStackCap:
    """Solves whose stacked iterate would exceed the cap fail before any
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

    def test_too_many_restarts(self, sym_model):
        peak = self.peak_bytes(lambda: bn.solve_envelope(sym_model, restarts=10**7))
        assert peak < 1 << 20

    def test_too_wide_a_model(self):
        # 2048 x 2049 entries for one chain, just over the cap
        p = d.JointPmf.from_probs(np.full((2048, 2), 1 / 4096))
        assert self.peak_bytes(lambda: bn.ib_fixed_point(p, 1.0)) < 1 << 20


class TestEnvelope:
    def test_envelope_monotone_and_concave(self, sym_model):
        pool = bn.solve_envelope(sym_model, restarts=3, master_seed=1)
        grid = np.linspace(0.0, 1.2, 40)
        vals = np.array([pool.value_at(float(r)) for r in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] >= chords - 1e-9)
        # every vertex is a pool solution, read off it exactly
        assert [(pool.solutions[k].rate, pool.solutions[k].relevance) for k in pool.hull] \
            == list(zip(pool.hull_rates, pool.hull_rels))
        assert pool.hull_rates[0] == 0.0
        assert np.all(np.diff(pool.hull_rates) > 0)
        assert np.all(np.diff(np.diff(pool.hull_rels) / np.diff(pool.hull_rates)) < 0)
        # and no solution lies above it: together, the least such majorant
        assert all(s.relevance <= pool.value_at(s.rate) + 1e-12 for s in pool.solutions)

    def test_every_solution_keeps_all_clusters(self, sym_model):
        # no cluster is dropped, during the sweep or in refinement, even when
        # its mass collapses; the reported pair is the channel's own
        pool = bn.solve_envelope(sym_model)
        for r in (0.05, 0.1, 0.2, 0.3, 0.4):
            bn._refine_at(pool, r)
        for sol in pool.solutions:
            assert sol.channel.cond_probs.shape == (2, 3)
            rate, rel = bn.channel_information(sym_model, sol.channel)
            assert rate == pytest.approx(sol.rate, abs=1e-10)
            assert rel == pytest.approx(sol.relevance, abs=1e-10)

    def test_exponent_at_rate_against_grid_oracle(self, sym_model):
        rates = [0.05, 0.15, 0.3, 0.5, 0.69]
        oracle = oracles.brute_force_exponent(SYM, rates)
        for r, ov in zip(rates, oracle):
            xi, _ = d.exponent_at_rate(sym_model, r, restarts=3, master_seed=5)
            assert xi == pytest.approx(ov, abs=1e-3)

    def test_witness_at_rate_is_feasible_and_reproducible(self, sym_model):
        xi, wit = d.exponent_at_rate(sym_model, 0.4, restarts=3, master_seed=5)
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

    def test_exponent_at_rate_against_mrs_gerber(self, sym_model):
        # SYM is a doubly symmetric binary source with crossover 0.2, whose
        # curve is known in closed form; the envelope must sit just below it
        for r in (0.05, 0.1, 0.2, 0.3, 0.4):
            xi, _ = d.exponent_at_rate(sym_model, r)
            assert 0.0 <= oracles.mrs_gerber(r) - xi <= 1e-4


class TestCurve:
    def test_log_loss_identity_exact(self, sym_model):
        # D is defined by the identity D = H(Y) - xi, so that direction is
        # bit-exact; the re-summed form only holds to float rounding
        curve = d.build_curve(sym_model, np.linspace(0.02, 1.0, 8),
                              restarts=2, master_seed=3)
        assert np.array_equal(curve.d, sym_model.entropy_y - curve.xi)
        assert np.allclose(curve.d + curve.xi, sym_model.entropy_y,
                           rtol=0, atol=1e-15)

    def test_curve_monotonicity_and_slope_sign(self, sym_model):
        curve = d.build_curve(sym_model, np.linspace(0.02, 1.0, 8),
                              restarts=2, master_seed=3)
        assert np.all(np.diff(curve.xi) >= -1e-12)
        assert np.all(curve.d_slope <= 1e-6)

    def test_sidecar_carries_diagnostics(self, sym_model):
        curve = d.build_curve(sym_model, np.linspace(0.1, 0.9, 5),
                              restarts=2, master_seed=3)
        assert curve.fingerprint == sym_model.fingerprint()
        diag = curve.diagnostics
        # restarts and the seed are inputs, echoed by the CLI sidecar
        assert set(diag) == {"solutions", "beta_solves", "iterations", "unconverged"}
        assert 0 <= diag["unconverged"] <= diag["beta_solves"] <= diag["iterations"]
        assert diag["beta_solves"] == diag["solutions"] - 2  # the two anchors

    def test_counters_report_capped_solves(self):
        # with a cap of 10 evaluations most beta-solves on this 4x4 Gaussian
        # stop at the cap, and each of those spends all 10
        p = d.discretized_gaussian(0.8, 4, 4)
        pool = bn.solve_envelope(p, restarts=1, max_iters=10)
        counters = pool.solver_counters()
        solves = [s for s in pool.solutions if math.isfinite(s.beta)]
        assert counters["beta_solves"] == len(solves) == 2 * len(bn.DEFAULT_BETA_GRID)
        assert counters["unconverged"] == sum(s.iterations == 10 and not s.converged
                                              for s in solves) > 0
        assert counters["iterations"] == sum(s.iterations for s in solves)
        assert counters["iterations"] >= 10 * counters["unconverged"]
        curve = d.build_curve(p, np.linspace(0.05, 0.5, 3), restarts=1)
        assert curve.diagnostics["beta_solves"] == 2 * len(bn.DEFAULT_BETA_GRID) + 3

    def test_rejects_bad_grids(self, sym_model):
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [0.1, 0.2])  # too short
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [0.3, 0.2, 0.4])  # not increasing
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [-0.1, 0.2, 0.4])  # negative
        for bad in (math.nan, math.inf):
            with pytest.raises(bn.SolverError):
                d.build_curve(sym_model, [0.1, bad, 0.4])  # not a number

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_curve_rejects_bad_rates_directly(self, bad):
        cols = np.array([0.1, 0.2, 0.3])
        with pytest.raises(bn.SolverError, match="finite, nonnegative"):
            bn.ExponentCurve(np.array([0.1, bad, 0.4]), cols, cols, -cols, "fp")
        bn.ExponentCurve(np.array([0.1, 0.2, 0.4]), cols, cols, -cols, "fp")

    def test_boundary_identities(self, sym_model):
        mi = d.mutual_information(sym_model)
        hx = sym_model.entropy_x
        xi_high, _ = d.exponent_at_rate(sym_model, hx + 0.5, restarts=2)
        assert xi_high == pytest.approx(mi, abs=1e-4)
        xi_zero, _ = d.exponent_at_rate(sym_model, 0.0, restarts=2)
        assert xi_zero <= 1e-6

    def test_seed_changes_nothing_material(self, sym_model):
        # different master seeds explore differently but land on the same
        # envelope within solver tolerance
        a, _ = d.exponent_at_rate(sym_model, 0.3, restarts=4, master_seed=1)
        b, _ = d.exponent_at_rate(sym_model, 0.3, restarts=4, master_seed=2)
        assert a == pytest.approx(b, abs=1e-4)


class TestAsymmetricModels:
    def test_three_by_two_curve(self):
        p = three_by_two_model()
        mi = d.mutual_information(p)
        curve = d.build_curve(p, np.linspace(0.05, p.entropy_x, 6),
                              restarts=3, master_seed=4)
        assert curve.xi[-1] == pytest.approx(mi, abs=1e-4)
        assert np.all(curve.xi <= np.minimum(curve.r, mi) + 1e-9)
