import json
import math

import numpy as np
import pytest

import disthyp as d

SYM = np.array([[0.4, 0.1], [0.1, 0.4]])


def random_joint(rng, nx, ny, floor=1e-4):
    probs = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    probs = np.maximum(probs, floor)
    return d.JointPmf.from_probs(probs / probs.sum())


class TestValidation:
    def test_rejects_zero_cell_naming_it(self):
        with pytest.raises(d.DistributionError, match=r"cell \(0, 1\)"):
            d.JointPmf.from_probs(np.array([[0.5, 0.0], [0.25, 0.25]]))

    def test_rejects_negative_cell(self):
        with pytest.raises(d.DistributionError, match="full support"):
            d.JointPmf.from_probs(np.array([[0.6, -0.1], [0.25, 0.25]]))

    def test_rejects_bad_sum(self):
        with pytest.raises(d.DistributionError, match="sum to"):
            d.JointPmf.from_probs(np.array([[0.5, 0.2], [0.2, 0.2]]))

    def test_rejects_nan(self):
        with pytest.raises(d.DistributionError, match="non-finite"):
            d.JointPmf.from_probs(np.array([[0.5, np.nan], [0.25, 0.25]]))

    def test_rejects_1d(self):
        with pytest.raises(d.DistributionError, match="2-d"):
            d.JointPmf.from_probs(np.array([0.5, 0.5]))

    def test_sum_tolerance_is_tight(self):
        d.JointPmf.from_probs(SYM * (1 + 5e-13))  # within the 1e-12 budget
        with pytest.raises(d.DistributionError):
            d.JointPmf.from_probs(SYM * (1 + 1e-10))

    def test_normalize_flag(self):
        p = d.JointPmf.from_probs(SYM * 7.0, normalize=True)
        assert np.allclose(p.probs, SYM)

    def test_label_count_mismatch(self):
        with pytest.raises(d.DistributionError, match="label counts"):
            d.JointPmf(SYM, ("a",), ("b", "c"))

    def test_probs_are_frozen(self):
        p = d.JointPmf.from_probs(SYM)
        with pytest.raises(ValueError):
            p.probs[0, 0] = 0.3


class TestInformationMeasures:
    def test_mi_against_hand_value(self):
        # I = sum p log(p/(px py)) with px = py = (1/2, 1/2):
        # 2*0.4*ln(1.6) + 2*0.1*ln(0.4)
        p = d.JointPmf.from_probs(SYM)
        expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
        assert d.mutual_information(p) == pytest.approx(expected, abs=1e-14)

    def test_c_constant_against_hand_value(self):
        p = d.JointPmf.from_probs(SYM)
        assert d.c_constant(p) == pytest.approx(abs(math.log(0.4)), abs=1e-14)

    def test_entropy_uniform(self):
        assert d.entropy(np.full(8, 0.125)) == pytest.approx(math.log(8), abs=1e-12)

    def test_entropies_match_marginals(self):
        rng = np.random.default_rng(0)
        p = random_joint(rng, 3, 4)
        assert p.entropy_x == pytest.approx(d.entropy(p.x_marginal), abs=1e-14)
        assert p.entropy_y == pytest.approx(d.entropy(p.y_marginal), abs=1e-14)

    def test_mi_equals_kl_to_product_many_random(self):
        # testing against independence: the divergence between the joint and
        # its product model IS the mutual information, for every model
        rng = np.random.default_rng(123)
        for _ in range(1000):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            p = random_joint(rng, nx, ny)
            q = d.product_model(p).probs
            kl = float((p.probs * (np.log(p.probs) - np.log(q))).sum())
            assert d.mutual_information(p) == pytest.approx(kl, abs=1e-12)

    def test_mi_nonnegative_and_capped(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_joint(rng, 3, 3)
            mi = d.mutual_information(p)
            assert -1e-12 <= mi <= min(p.entropy_x, p.entropy_y) + 1e-12

    def test_independent_model_has_zero_mi(self):
        p = d.JointPmf.from_probs(np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
        assert abs(d.mutual_information(p)) < 1e-14
        assert d.c_constant(p) < 1e-12

    def test_divergence_variance_by_direct_sum(self):
        p = d.JointPmf.from_probs(SYM)
        q = d.product_model(p)
        lr = np.log(p.probs) - np.log(q.probs)
        mi = float((p.probs * lr).sum())
        expected = float((p.probs * (lr - mi) ** 2).sum())
        stats = d.divergence_stats(p)
        assert stats.var_div == pytest.approx(expected, abs=1e-15)
        assert (stats.mi, stats.c_const) == (d.mutual_information(p), d.c_constant(p))

    def test_blockwise_c_is_additive(self):
        # log ratios add across independent blocks, so the concentration
        # constant of the l-fold product is exactly l times the base one
        rng = np.random.default_rng(42)
        p = random_joint(rng, 2, 3)
        c1 = d.c_constant(p)
        for l in (2, 3):
            block = p.probs
            for _ in range(l - 1):
                block = np.kron(block, p.probs)
            pl = d.JointPmf.from_probs(block)
            assert d.c_constant(pl) == pytest.approx(l * c1, abs=1e-9)


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        p = random_joint(rng, 3, 2)
        q = d.JointPmf.from_json(p.to_json())
        assert np.array_equal(p.probs, q.probs)
        assert p.x_labels == q.x_labels and p.y_labels == q.y_labels
        assert p.fingerprint() == q.fingerprint()

    def test_json_missing_key(self):
        payload = json.loads(d.JointPmf.from_probs(SYM).to_json())
        del payload["probs"]
        with pytest.raises(d.DistributionError, match="probs"):
            d.JointPmf.from_json(json.dumps(payload))

    def test_json_garbage(self):
        with pytest.raises(d.DistributionError, match="unparseable"):
            d.JointPmf.from_json("{not json")

    def test_fingerprint_tracks_content(self):
        p = d.JointPmf.from_probs(SYM)
        q = d.JointPmf.from_probs(SYM[::-1])
        assert p.fingerprint() != q.fingerprint()
        assert len(p.fingerprint()) == 16


class TestDiscretizedGaussian:
    def test_zero_correlation_is_independent(self):
        p = d.discretized_gaussian(0.0, 8, 8)
        assert abs(d.mutual_information(p)) < 1e-12

    def test_mi_increases_with_correlation(self):
        mis = [d.mutual_information(d.discretized_gaussian(r, 16, 16))
               for r in (0.1, 0.3, 0.5, 0.7)]
        assert all(b > a for a, b in zip(mis, mis[1:]))

    def test_symmetry_in_correlation_sign(self):
        a = d.mutual_information(d.discretized_gaussian(0.6, 8, 8))
        b = d.mutual_information(d.discretized_gaussian(-0.6, 8, 8))
        assert a == pytest.approx(b, abs=1e-12)

    def test_labels_hold_grid_coordinates(self):
        p = d.discretized_gaussian(0.2, 5, 5, span_sigmas=2.0)
        assert p.x_labels[0] == -2.0 and p.x_labels[-1] == 2.0

    def test_rejects_degenerate_correlation(self):
        for rho in (1.0, -1.0, 1.5):
            with pytest.raises(d.DistributionError):
                d.discretized_gaussian(rho, 8, 8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(d.DistributionError, match="at least 2"):
            d.discretized_gaussian(0.3, 1, 8)

    def test_rejects_grid_over_the_cap(self, monkeypatch):
        # refused before any grid array is built
        monkeypatch.setattr(d.dist.np, "linspace", None)
        with pytest.raises(d.DistributionError, match="at most 4194304 cells"):
            d.discretized_gaussian(0.3, 2049, 2048)
        d.dist._check_grid(2048, 2048)  # 2^22 cells is allowed

    def test_rejects_underflowing_cells(self):
        # corner cells need exp(-span^2/(1-rho)) roughly; span 8, rho 0.95
        # pushes the range past the float64 exponent budget
        with pytest.raises(d.DistributionError, match="underflow"):
            d.discretized_gaussian(0.95, 16, 16, span_sigmas=8.0)


class TestCalibration:
    def test_hits_target(self):
        rho, p = d.calibrate_correlation(0.5, 16, 16)
        assert d.mutual_information(p) == pytest.approx(0.5, abs=1e-5)
        assert 0 < rho < 1

    def test_paper_scale_target(self):
        rho, p = d.calibrate_correlation(1.5, 32, 32)
        assert d.mutual_information(p) == pytest.approx(1.5, abs=1e-5)

    def test_zero_target(self):
        rho, p = d.calibrate_correlation(0.0, 8, 8)
        assert rho == 0.0
        assert abs(d.mutual_information(p)) < 1e-12

    def test_unreachable_target_names_cap(self):
        with pytest.raises(d.UnreachableTargetError, match="cap"):
            d.calibrate_correlation(math.log(8) + 0.5, 8, 8)

    def test_target_above_achievable_max(self):
        # below the entropy cap but above what positive-support grids reach
        with pytest.raises(d.UnreachableTargetError):
            d.calibrate_correlation(math.log(8) * 0.999, 8, 8)

    def test_rejects_grid_over_the_cap_before_searching(self, monkeypatch):
        # not read as a correlation too large for the grid
        monkeypatch.setattr(d.dist, "discretized_gaussian", None)
        with pytest.raises(d.DistributionError, match="at most 4194304 cells") as exc:
            d.calibrate_correlation(0.08, 1_000_000, 1_000_000)
        assert not isinstance(exc.value, d.UnreachableTargetError)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -0.1])
    def test_rejects_non_finite_or_negative_target(self, target, monkeypatch):
        # rejected before any model is built
        monkeypatch.setattr(d.dist, "discretized_gaussian", None)
        with pytest.raises(d.DistributionError, match="finite and nonnegative"):
            d.calibrate_correlation(target, 8, 8)
