import math

import numpy as np
import pytest

import disthyp as d
from disthyp import bounds as b

import oracles


class TestRegimeSpec:
    def test_parse_round_trip(self):
        for text, kind, param in (("const:0.1", "constant", 0.1),
                                  ("log", "logarithmic", None),
                                  ("poly:0.5", "polynomial", 0.5),
                                  ("superpoly:0.5", "superpolynomial", 0.5)):
            reg = b.TypeIRegime.parse(text)
            assert reg.kind == kind and reg.param == param
            assert b.TypeIRegime.parse(reg.label) == reg

    def test_parse_long_names(self):
        assert b.TypeIRegime.parse("polynomial:2").param == 2.0
        assert b.TypeIRegime.parse("logarithmic").kind == "logarithmic"

    def test_parse_rejects_garbage(self):
        for text in ("exp:1", "poly", "log:3", "const:1.5", "poly:-1",
                     "superpoly:1.0", "const:abc", "poly:nan", "poly:inf", "const:nan",
                     "superpoly:nan"):
            with pytest.raises(b.RegimeSpecError):
                b.TypeIRegime.parse(text)

    def test_gap_case_mapping(self):
        assert b.TypeIRegime.logarithmic().gap_case == "i"
        assert b.TypeIRegime.polynomial(1.9).gap_case == "ii"
        assert b.TypeIRegime.polynomial(2.0).gap_case == "iii"
        assert b.TypeIRegime.superpolynomial(0.5).gap_case == "iv"
        assert b.TypeIRegime.constant(0.1).gap_case is None


class TestEpsAt:
    def test_polynomial_direct(self):
        assert b.eps_at(b.TypeIRegime.polynomial(1.0), 100) == pytest.approx(0.01)

    def test_logarithmic_near_e_squared(self):
        assert b.eps_at(b.TypeIRegime.logarithmic(), 8) == pytest.approx(0.5, abs=0.02)

    def test_superpolynomial_direct(self):
        assert b.eps_at(b.TypeIRegime.superpolynomial(0.5), 100) == pytest.approx(
            math.exp(-10.0), rel=1e-12)

    def test_constant_ignores_n(self):
        reg = b.TypeIRegime.constant(0.3)
        assert b.eps_at(reg, 5) == b.eps_at(reg, 5000) == 0.3

    def test_logarithmic_domain_error(self):
        for n in (1, 2):
            with pytest.raises(b.RegimeDomainError, match="n >= 3"):
                b.eps_at(b.TypeIRegime.logarithmic(), n)
        assert 0 < b.eps_at(b.TypeIRegime.logarithmic(), 3) < 1


class TestSelectors:
    def test_block_length_cube_root(self):
        assert b.select_block_length(b.TypeIRegime.polynomial(1.0), 1000) == 10
        assert b.select_block_length(b.TypeIRegime.logarithmic(), 1000) == 10

    def test_block_length_superpoly(self):
        assert b.select_block_length(b.TypeIRegime.superpolynomial(0.5), 64) == 2

    def test_block_length_floor_case(self):
        for reg in (b.TypeIRegime.polynomial(1.0), b.TypeIRegime.constant(0.2)):
            assert b.select_block_length(reg, 1) == 1

    def test_block_length_is_ceiling(self):
        assert b.select_block_length(b.TypeIRegime.logarithmic(), 1001) == 11

    def test_h_regime_one_takes_eps(self):
        reg = b.TypeIRegime.polynomial(1.0)
        for n in (10, 100, 10000):
            assert b.select_h(reg, n) == pytest.approx(1.0 / n)

    def test_h_regime_two_takes_inverse_square(self):
        assert b.select_h(b.TypeIRegime.polynomial(3.0), 100) == pytest.approx(1e-4)

    def test_report_uses_the_selectors_values(self):
        for spec in ("const:0.1", "log", "poly:0.5", "poly:150", "superpoly:0.9"):
            reg = b.TypeIRegime.parse(spec)
            for n in (3, 64, 1001, 1554, 46657):
                rep = b.feasibility_interval((0.7, -0.05), 1.92, reg, n)
                eps, block_l, h = (b.eps_at(reg, n), b.select_block_length(reg, n),
                                   b.select_h(reg, n))
                assert (type(eps), type(block_l), type(h)) == (float, int, float)
                assert (rep.eps_n, rep.block_l, rep.h_n) == (eps, block_l, h)

    def test_h_boundary_degeneracy_flags_invalid_lb(self):
        rep = b.feasibility_interval((1.0, 0.0), 1.0, b.TypeIRegime.constant(0.5), 10)
        assert b.select_h(b.TypeIRegime.constant(0.5), 10) == 0.5
        assert not rep.valid_lb
        assert rep.lb_prob == 0.0
        assert math.isinf(rep.lb_exponent)


class TestGapBounds:
    CASES = [("logarithmic", None), ("polynomial", 0.5), ("polynomial", 1.0),
             ("polynomial", 2.0), ("polynomial", 3.0), ("superpolynomial", 0.3),
             ("superpolynomial", 0.7)]

    def test_cross_check_against_independent_transcription(self):
        # second implementation re-typed from the closed forms; both must
        # agree to near machine precision over a parameter sweep
        for kind, param in self.CASES:
            reg = b.TypeIRegime(kind, param)
            for n in (16, 100, 10_000, 10**6):
                for c in (0.5, 2.47):
                    for d_slope in (0.0, -0.05, -1.0):
                        got = b.gap_bounds(reg, n, d_slope, c)
                        want = oracles.gap_bounds_reference(kind, param, n, d_slope, c)
                        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-300)
                        assert got[1] == pytest.approx(want[1], rel=1e-12)

    def test_paper_style_case_ii_values(self):
        reg = b.TypeIRegime.polynomial(1.0)
        got = b.gap_bounds(reg, 10**4, -0.05, 2.47)
        want = oracles.gap_bounds_reference("polynomial", 1.0, 10**4, -0.05, 2.47)
        assert got == pytest.approx(want, rel=1e-12)

    def test_upper_bounds_positive_and_vanishing(self):
        for kind, param in self.CASES:
            reg = b.TypeIRegime(kind, param)
            grid = [32, 128, 1024, 32768, 2**20]
            uppers = [b.gap_bounds(reg, n, -0.1, 1.0)[1] for n in grid]
            assert all(u > 0 for u in uppers)
            assert all(v < u for u, v in zip(uppers, uppers[1:]))

    def test_case_iii_boundary_limit(self):
        # at p = 2 the scaled upper bound n*upper/ln n approaches 2
        c = 1.0
        reg = b.TypeIRegime.polynomial(2.0)
        vals = []
        for n in (10**6, 10**9, 10**12):
            upper = b.gap_bounds(reg, n, 0.0, c)[1]
            scaled = upper * n / math.log(n)
            # analytic envelope of the remainder term
            assert abs(scaled - 2.0) <= 8 * math.sqrt(2) * c * 1.5 / math.log(n)
            vals.append(scaled)
        assert vals[0] > vals[1] > vals[2] > 2.0

    def test_constant_regime_not_covered(self):
        with pytest.raises(b.RegimeSpecError, match="feasibility_interval"):
            b.gap_bounds(b.TypeIRegime.constant(0.1), 100, 0.0, 1.0)

    def test_logarithmic_needs_n_16(self):
        with pytest.raises(b.RegimeDomainError, match="n >= 16"):
            b.gap_bounds(b.TypeIRegime.logarithmic(), 15, 0.0, 1.0)
        b.gap_bounds(b.TypeIRegime.logarithmic(), 16, 0.0, 1.0)

    def test_rejects_positive_d_slope(self):
        for d_slope in (0.5, math.nan, -math.inf):
            with pytest.raises(b.RegimeSpecError, match="nonpositive"):
                b.gap_bounds(b.TypeIRegime.polynomial(1.0), 100, d_slope, 1.0)

    def test_rejects_nonpositive_c(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(b.RegimeSpecError, match="positive"):
                b.gap_bounds(b.TypeIRegime.polynomial(1.0), 100, 0.0, c)


class TestFeasibilityInterval:
    # (curve point, c, regimes, sizes).  At the README point the reference's
    # exp(-n * ub_exponent) overflows past the sizes listed for each regime.
    CROSS_CHECK = [
        ((0.7, -0.05), 1.92, ("const:0.1", "log", "poly:1", "poly:3", "superpoly:0.4"),
         (50, 500, 5000, 64, 2111, 46657)),
        (oracles.README_CURVE[0], oracles.README_C, ("const:0.1", "log", "poly:0.5", "poly:1"),
         (64, 2111)),
        (oracles.README_CURVE[0], oracles.README_C,
         ("poly:2", "poly:3", "superpoly:0.4", "superpoly:0.5"), (64,)),
    ]

    def test_cross_check_against_independent_transcription(self):
        for (xi, d_slope), c, specs, sizes in self.CROSS_CHECK:
            for spec in specs:
                reg = b.TypeIRegime.parse(spec)
                for n in sizes:
                    rep = b.feasibility_interval((xi, d_slope), c, reg, n)
                    lb, ub = oracles.interval_reference(
                        xi, d_slope, c, rep.eps_n, n, rep.block_l, rep.h_n)
                    assert rep.ub_prob == pytest.approx(ub, rel=1e-12, abs=1e-320)
                    assert rep.lb_prob == pytest.approx(lb, rel=1e-12, abs=1e-320)

    def test_interval_brackets_are_ordered(self):
        for spec in ("const:0.1", "log", "poly:1", "superpoly:0.4"):
            reg = b.TypeIRegime.parse(spec)
            for n in (20, 100, 400):
                rep = b.feasibility_interval((0.7, 0.0), 1.92, reg, n)
                assert 0.0 <= rep.lb_prob <= rep.ub_prob <= 1.0
                if rep.valid_lb:
                    assert rep.lb_prob <= rep.nominal <= max(rep.ub_prob, rep.nominal)

    def test_vanishing_budget_kills_concentration_penalty(self):
        # eps_n = 1 makes ln(1/eps) = 0, so the upper exponent reduces to
        # xi + d_slope ln(l)/(2l); polynomial budgets hit eps = 1 at n = 1
        rep = b.feasibility_interval((0.7, -0.1), 1.92, b.TypeIRegime.polynomial(1.0), 1)
        assert rep.delta_tilde == 0.0
        assert rep.ub_prob == pytest.approx(
            math.exp(-(0.7 + -0.1 * math.log(1) / 2.0)), rel=1e-12)

    def test_log_gap_matches_direct_computation_without_underflow(self):
        rep = b.feasibility_interval((0.05, 0.0), 0.5, b.TypeIRegime.constant(0.2), 50)
        assert rep.valid_lb and rep.lb_prob > 0
        direct = math.log(rep.ub_prob - rep.lb_prob) / rep.n
        assert rep.log_gap_per_sample == pytest.approx(direct, rel=1e-12)

    def test_log_gap_survives_underflow(self):
        rep = b.feasibility_interval((3.0, 0.0), 2.47, b.TypeIRegime.polynomial(1.0), 800)
        assert rep.ub_prob == 0.0  # the probability itself underflows
        assert math.isfinite(rep.log_gap_per_sample)
        assert rep.log_gap_per_sample == pytest.approx(-rep.ub_exponent, rel=1e-9)

    def test_ub_monotone_in_xi(self):
        reg = b.TypeIRegime.polynomial(1.0)
        reps = [b.feasibility_interval((xi, 0.0), 1.0, reg, 100)
                for xi in (0.2, 0.5, 1.0, 2.0)]
        for a, bb in zip(reps, reps[1:]):
            assert bb.ub_prob <= a.ub_prob
            assert bb.lb_prob <= a.lb_prob

    def test_csv_header_and_row(self):
        rep = b.feasibility_interval((0.7, 0.0), 1.92, b.TypeIRegime.constant(0.1), 100)
        header = b.BoundReport.CSV_HEADER.split(",")
        row = rep.csv_row().split(",")
        assert len(header) == len(row)
        assert header[0] == "n" and row[0] == "100"
        assert row[-1] == "1"  # valid_lb flag

    def test_negative_upper_exponent_clamps_without_overflow(self):
        # -n * ub_exponent is past 709 here, so exp() of it overflows float64
        rep = b.feasibility_interval(oracles.README_CURVE[0], oracles.README_C,
                                     b.TypeIRegime.superpolynomial(0.5), 383)
        assert rep.ub_prob == 1.0
        assert math.isfinite(rep.ub_exponent) and -383 * rep.ub_exponent > 709

    @pytest.mark.parametrize("spec,n,eps_is_zero", [("superpoly:0.9", 1500, False),
                                                    ("superpoly:0.9", 1554, True),
                                                    ("poly:150", 200, True)])
    def test_underflowed_budget_uses_exact_log(self, spec, n, eps_is_zero):
        # at superpoly:0.9, n = 1500, eps_n is subnormal and 1/eps_n overflows;
        # the other two budgets underflow to 0
        reg = b.TypeIRegime.parse(spec)
        rep = b.feasibility_interval((0.5, 0.0), 1.0, reg, n)
        assert (rep.eps_n == 0.0) == eps_is_zero and 1.0 / max(rep.eps_n, 5e-324) == math.inf
        exact = n ** reg.param if reg.kind == "superpolynomial" else reg.param * math.log(n)
        assert rep.delta_tilde == pytest.approx(math.sqrt(2.0 * exact / (n * rep.block_l)),
                                                rel=1e-14)
        assert math.isfinite(rep.ub_exponent)
        assert rep.h_n == float(n) ** -2.0

    def test_rejects_bad_curve_point(self):
        reg = b.TypeIRegime.constant(0.1)
        for point, c in (((-0.1, 0.0), 1.0), ((0.5, 0.1), 1.0), ((0.5, 0.0), -1.0),
                         ((math.nan, 0.0), 1.0), ((math.inf, 0.0), 1.0),
                         ((0.5, math.nan), 1.0), ((0.5, -math.inf), 1.0),
                         ((0.5, 0.0), math.nan), ((0.5, 0.0), math.inf)):
            with pytest.raises(b.RegimeSpecError):
                b.feasibility_interval(point, c, reg, 100)


class TestCriticalSampleSize:
    def test_big_delta_returns_smallest_admissible_n(self):
        res = b.critical_sample_size((0.7, 0.0), 1.0, b.TypeIRegime.polynomial(1.0), 1.0)
        assert res.cns == 1
        res = b.critical_sample_size((0.7, 0.0), 1.0, b.TypeIRegime.logarithmic(), 1.0)
        assert res.cns == 3  # n = 1, 2 are outside the logarithmic domain

    def test_monotone_in_delta(self):
        reg = b.TypeIRegime.logarithmic()
        sizes = [b.critical_sample_size((0.7, 0.0), 1.92, reg, delta).cns
                 for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(s is not None for s in sizes)
        assert all(x <= y for x, y in zip(sizes, sizes[1:]))

    def test_condition_holds_at_cns_not_before(self):
        reg = b.TypeIRegime.constant(0.1)
        point, c, delta = (0.7, 0.0), 1.92, 1e-5
        res = b.critical_sample_size(point, c, reg, delta)
        at = b.feasibility_interval(point, c, reg, res.cns)
        assert max(at.ub_prob - at.nominal, at.nominal - at.lb_prob) <= delta
        if res.cns > 1:
            prev = b.feasibility_interval(point, c, reg, res.cns - 1)
            assert max(prev.ub_prob - prev.nominal, prev.nominal - prev.lb_prob) > delta

    def test_cap_not_found(self):
        res = b.critical_sample_size((3.0, 0.0), 2.47, b.TypeIRegime.polynomial(0.1),
                                     1e-300, cap=10)
        assert res.cns is None and res.cap == 10

    def test_rejects_bad_delta(self):
        for delta in (0.0, -1e-5, math.nan):
            with pytest.raises(b.RegimeSpecError, match="delta"):
                b.critical_sample_size((0.7, 0.0), 1.0, b.TypeIRegime.logarithmic(), delta)

    def test_rejects_bad_curve_point(self):
        reg = b.TypeIRegime.logarithmic()
        for point, c in (((-0.1, 0.0), 1.0), ((0.5, 0.1), 1.0), ((0.5, 0.0), 0.0),
                         ((math.nan, 0.0), 1.0), ((0.5, math.nan), 1.0), ((0.5, 0.0), math.nan)):
            with pytest.raises(b.RegimeSpecError):
                b.critical_sample_size(point, c, reg, 1e-5, cap=2)

    def test_csv_shape(self):
        res = b.critical_sample_size((0.7, 0.0), 1.92, b.TypeIRegime.constant(0.1), 1e-5)
        text = b.cns_csv([res])
        lines = text.strip().split("\n")
        assert lines[0] == "regime,delta,cns"
        assert lines[1].startswith("const:0.1,")


class TestCnsScanAgainstReference:
    """critical_sample_size against oracles.cns_reference, the per-n scalar loop."""

    @pytest.mark.parametrize("spec", oracles.README_REGIMES)
    def test_readme_curve(self, spec):
        reg = b.TypeIRegime.parse(spec)
        for point in oracles.README_CURVE:
            got = b.critical_sample_size(point, oracles.README_C, reg, 1e-5, cap=3000).cns
            assert got == oracles.cns_reference(point, oracles.README_C, reg, 1e-5, cap=3000)

    @pytest.mark.parametrize("spec,cns", [("const:0.1", 46657), ("log", 47446),
                                          ("poly:0.5", 85185)])
    def test_late_readme_cells(self, spec, cns):
        point, reg = oracles.README_CURVE[-1], b.TypeIRegime.parse(spec)
        assert b.critical_sample_size(point, oracles.README_C, reg, 1e-5).cns == cns
        assert oracles.cns_reference(point, oracles.README_C, reg, 1e-5) == cns

    def test_tiny_delta(self):
        # the gap reaches 0 only once all three probabilities underflow
        for spec in ("const:0.1", "log", "poly:0.1", "superpoly:0.5"):
            reg = b.TypeIRegime.parse(spec)
            got = b.critical_sample_size((3.0, 0.0), 2.47, reg, 1e-300, cap=3000).cns
            assert got is not None
            assert got == oracles.cns_reference((3.0, 0.0), 2.47, reg, 1e-300, cap=3000)

    @pytest.mark.parametrize("spec,first", [("poly:1", 1), ("log", 3)])
    @pytest.mark.parametrize("chunk_end", [64, 192, 448, 960, 1984, 4032, 6080])
    def test_chunk_edges(self, spec, first, chunk_end):
        # chunks hold 64, 128, ..., 2048, 2048, ... sizes from the first
        # admissible n.  This cell's gap falls strictly over [60, 6100], so
        # delta = gap(m) makes m the cns with equality in the condition.
        reg, point, c = b.TypeIRegime.parse(spec), (0.05, 0.0), 0.2
        edge = first - 1 + chunk_end
        for m in (edge - 1, edge, edge + 1):
            delta = oracles.cns_gap(point, c, reg, m)
            assert oracles.cns_reference(point, c, reg, delta, cap=edge + 1) == m
            for cap in (edge - 1, edge, edge + 1):
                got = b.critical_sample_size(point, c, reg, delta, cap=cap).cns
                assert got == (m if m <= cap else None)

    def test_lower_side_binds(self):
        # nominal - lb_prob exceeds ub_prob - nominal at every n of this cell
        reg, point, c = b.TypeIRegime.constant(0.05), (0.35, 0.0), 0.05
        for m in (14, 25, 33, 40):
            at = b.feasibility_interval(point, c, reg, m)
            assert at.nominal - at.lb_prob > at.ub_prob - at.nominal
            delta = oracles.cns_gap(point, c, reg, m)
            got = b.critical_sample_size(point, c, reg, delta, cap=500).cns
            assert got == oracles.cns_reference(point, c, reg, delta, cap=500) == m

    def test_log_below_its_domain(self):
        reg = b.TypeIRegime.logarithmic()
        for cap in (1, 2, 3, 4):
            for delta in (1.0, 1e-5):
                got = b.critical_sample_size((0.7, 0.0), 1.92, reg, delta, cap=cap).cns
                assert got == oracles.cns_reference((0.7, 0.0), 1.92, reg, delta, cap=cap)

    def test_unit_budget_at_n_one(self):
        # poly:1 has eps_1 = 1: ln(1/eps) = 0 and the converse degenerates
        reg, point, c = b.TypeIRegime.polynomial(1.0), (0.7, -0.1), 1.92
        for delta in (1.0, oracles.cns_gap(point, c, reg, 1), 1e-5):
            got = b.critical_sample_size(point, c, reg, delta, cap=200).cns
            assert got == oracles.cns_reference(point, c, reg, delta, cap=200)

    def test_superpolynomial_scan_past_budget_underflow(self):
        # eps_n underflows to 0 from n = 1554 on
        reg = b.TypeIRegime.superpolynomial(0.9)
        got = b.critical_sample_size((0.5, 0.0), 1.0, reg, 1e-5, cap=5000).cns
        assert got == oracles.cns_reference((0.5, 0.0), 1.0, reg, 1e-5, cap=5000)


class TestBoundsCsv:
    def test_multi_row_table(self):
        reg = b.TypeIRegime.polynomial(1.0)
        reps = [b.feasibility_interval((0.7, 0.0), 1.92, reg, n) for n in (50, 100)]
        text = b.bounds_csv(reps)
        lines = text.strip().split("\n")
        assert lines[0] == b.BoundReport.CSV_HEADER
        assert len(lines) == 3
