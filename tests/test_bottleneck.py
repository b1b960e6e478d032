import json
import math

import numpy as np
import pytest

import disthyp as d
from disthyp import bottleneck as bn

import oracles

SYM = np.array([[0.4, 0.1], [0.1, 0.4]])


@pytest.fixture(scope="module")
def sym_model():
    return d.JointPmf.from_probs(SYM)


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
            bn._iterate(sym_model, math.inf, init, max_iters=1, tol=1e-10)

    def test_rejects_wrong_init_shape(self, sym_model):
        with pytest.raises(bn.SolverError, match="init"):
            bn.ib_fixed_point(sym_model, 1.0, init=bn.TestChannel.identity(2, 2))

    def test_witness_reproduction(self, sym_model):
        # recomputing the information pair from the returned channel must
        # reproduce the reported values exactly (pruning happens first)
        for beta in (0.5, 2.0, 5.0, 50.0):
            sol = bn.ib_fixed_point(sym_model, beta)
            rate, rel = bn.channel_information(sym_model, sol.channel)
            assert rate == pytest.approx(sol.rate, abs=1e-10)
            assert rel == pytest.approx(sol.relevance, abs=1e-10)


class TestEnvelope:
    def test_envelope_monotone_and_concave(self, sym_model):
        pool = bn.solve_envelope(sym_model, restarts=3, master_seed=1)
        grid = np.linspace(0.0, 1.2, 40)
        vals = np.array([pool.value_at(float(r)) for r in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] >= chords - 1e-9)
        assert pool.concavity_residual <= 1e-3

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

    def test_csv_format(self, sym_model):
        curve = d.build_curve(sym_model, np.linspace(0.1, 0.9, 5),
                              restarts=2, master_seed=3)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "R_nats,xi_nats,D_nats,dD_dR"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(0.1)

    def test_sidecar_carries_diagnostics(self, sym_model):
        curve = d.build_curve(sym_model, np.linspace(0.1, 0.9, 5),
                              restarts=2, master_seed=3)
        payload = json.loads(curve.sidecar_json())
        assert payload["fingerprint"] == sym_model.fingerprint()
        for key in ("concavity_residual", "restarts_used"):
            assert key in payload["diagnostics"]

    def test_rejects_bad_grids(self, sym_model):
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [0.1, 0.2])  # too short
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [0.3, 0.2, 0.4])  # not increasing
        with pytest.raises(bn.SolverError):
            d.build_curve(sym_model, [-0.1, 0.2, 0.4])  # negative

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
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(6)).reshape(3, 2)
        probs = np.maximum(probs, 1e-3)
        p = d.JointPmf.from_probs(probs / probs.sum())
        mi = d.mutual_information(p)
        curve = d.build_curve(p, np.linspace(0.05, p.entropy_x, 6),
                              restarts=3, master_seed=4)
        assert curve.xi[-1] == pytest.approx(mi, abs=1e-4)
        assert np.all(curve.xi <= np.minimum(curve.r, mi) + 1e-9)
