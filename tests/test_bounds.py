import math
import sys

import numpy as np
import pytest

import disthyp as d
from disthyp import bounds as b

import oracles


class TestRegimeSpec:
    def test_parse_round_trip(self):
        for text, kind, param in (("const:0.1", "const", 0.1), ("log", "log", None),
                                  ("poly:0.5", "poly", 0.5), ("superpoly:0.5", "superpoly", 0.5)):
            reg = b.TypeIRegime.parse(text)
            assert reg.kind == kind and reg.param == param
            assert b.TypeIRegime.parse(reg.label) == reg

    def test_label_round_trips_every_digit(self):
        regimes = [b.TypeIRegime("poly", p) for p in (0.1234567, 0.1234568, 1.0, 2.0, 1e-05, 1e22)]
        regimes += [b.TypeIRegime("const", 0.1 + 0.2), b.TypeIRegime("superpoly", 1 / 3)]
        for reg in regimes:
            assert b.TypeIRegime.parse(reg.label) == reg, reg.label
        assert len({reg.label for reg in regimes}) == len(regimes)
        assert [reg.label for reg in regimes[:3]] == ["poly:0.1234567", "poly:0.1234568", "poly:1"]
        # the README's labels keep their bytes
        for text in ("const:0.1", "log", "poly:0.01", "poly:0.1", "poly:0.5", "poly:1", "poly:2",
                     "superpoly:0.5"):
            assert b.TypeIRegime.parse(text).label == text

    def test_parse_rejects_garbage(self):
        for text in ("exp:1", "poly", "log:3", "const:1.5", "poly:-1",
                     "superpoly:1.0", "const:abc", "poly:nan", "poly:inf", "const:nan",
                     "superpoly:nan", "polynomial:2", "logarithmic"):
            with pytest.raises(b.RegimeSpecError):
                b.TypeIRegime.parse(text)


class TestEpsAt:
    def test_polynomial_direct(self):
        assert b.eps_at(b.TypeIRegime("poly", 1.0), 100) == pytest.approx(0.01)

    def test_logarithmic_near_e_squared(self):
        assert b.eps_at(b.TypeIRegime("log"), 8) == pytest.approx(0.5, abs=0.02)

    def test_superpolynomial_direct(self):
        assert b.eps_at(b.TypeIRegime("superpoly", 0.5), 100) == pytest.approx(
            math.exp(-10.0), rel=1e-12)

    def test_constant_ignores_n(self):
        reg = b.TypeIRegime("const", 0.3)
        assert b.eps_at(reg, 5) == b.eps_at(reg, 5000) == 0.3

    def test_logarithmic_domain_error(self):
        for n in (1, 2):
            with pytest.raises(b.RegimeDomainError, match="n >= 3"):
                b.eps_at(b.TypeIRegime("log"), n)
        assert 0 < b.eps_at(b.TypeIRegime("log"), 3) < 1

    def test_each_regime_starts_at_its_first_budget_below_one(self):
        # a budget of 1 restricts nothing: every regime starts at its first
        # n with 0 < eps_n < 1, and the size before it is refused
        regimes = [b.TypeIRegime.parse(spec) for spec in (
            "const:1e-300", "const:0.999", "log", "poly:0.01", "poly:1", "poly:70",
            "superpoly:0.01", "superpoly:0.99")]
        assert {reg.kind for reg in regimes} == set(b._REGIMES)
        for reg in regimes:
            first = b._REGIMES[reg.kind][1]
            assert 0.0 < b.eps_at(reg, first) < 1.0, reg.label
            with pytest.raises(b.RegimeDomainError, match=f"needs n >= {first}"):
                b.eps_at(reg, first - 1)
            with pytest.raises(b.RegimeDomainError, match=f"needs n >= {first}"):
                b.feasibility_interval((0.7, 0.0), 1.92, reg, first - 1)
            if first > 1:
                # the refused size's budget, as the arithmetic gives it, is no error level
                with np.errstate(all="ignore"):
                    eps = b._budget(reg, np.array([first - 1.0]))[0][0]
                assert not eps < 1.0, reg.label

    def test_refuses_n_beyond_float64(self):
        # every size is evaluated in float64; these used to end in OverflowError
        reg = b.TypeIRegime("poly", 1.0)
        largest = int(sys.float_info.max)
        for n in (largest + 1, 10 ** 400):
            with pytest.raises(b.RegimeDomainError, match="float64"):
                b.eps_at(reg, n)
            with pytest.raises(b.RegimeDomainError, match="float64"):
                b.feasibility_interval((0.02, 0.0), 9.9, reg, n)
            with pytest.raises(b.RegimeDomainError, match="float64"):
                b.gap_bounds(reg, n, 0.0, 9.9)
        assert b.eps_at(reg, largest) == 1.0 / sys.float_info.max
        assert all(math.isfinite(v) for v in b.gap_bounds(reg, largest, 0.0, 9.9))


def _report(reg, n):
    return b.feasibility_interval((0.7, -0.05), 1.92, reg, n)


class TestSelectors:
    """Block length l and slack mass h_n as feasibility_interval reports them."""

    def test_block_length_cube_root(self):
        assert _report(b.TypeIRegime("poly", 1.0), 1000).block_l == 10
        assert _report(b.TypeIRegime("log"), 1000).block_l == 10

    def test_block_length_superpoly(self):
        assert _report(b.TypeIRegime("superpoly", 0.5), 64).block_l == 2

    def test_block_length_floor_case(self):
        # only n = 1 gives n^(1/3) = 1; poly refuses it, as eps_1 = 1
        for reg in (b.TypeIRegime("const", 0.2), b.TypeIRegime("superpoly", 0.5)):
            assert _report(reg, 1).block_l == 1
        with pytest.raises(b.RegimeDomainError, match="n >= 2"):
            _report(b.TypeIRegime("poly", 1.0), 1)
        assert _report(b.TypeIRegime("poly", 1.0), 2).block_l == 2

    def test_block_length_is_ceiling(self):
        assert _report(b.TypeIRegime("log"), 1001).block_l == 11

    def test_h_regime_one_takes_eps(self):
        reg = b.TypeIRegime("poly", 1.0)
        for n in (10, 100, 10000):
            assert _report(reg, n).h_n == pytest.approx(1.0 / n)

    def test_h_regime_two_takes_inverse_square(self):
        assert _report(b.TypeIRegime("poly", 3.0), 100).h_n == pytest.approx(1e-4)

    def test_report_uses_the_selectors_values(self):
        for spec in ("const:0.1", "log", "poly:0.5", "poly:150", "superpoly:0.9"):
            reg = b.TypeIRegime.parse(spec)
            for n in (3, 64, 1001, 1554, 46657):
                rep = _report(reg, n)
                assert (type(rep.eps_n), type(rep.block_l), type(rep.h_n)) == (float, int, float)
                assert rep.eps_n == b.eps_at(reg, n)

    def test_h_boundary_degeneracy_flags_invalid_lb(self):
        rep = b.feasibility_interval((1.0, 0.0), 1.0, b.TypeIRegime("const", 0.5), 10)
        assert rep.h_n == 0.5
        assert not rep.valid_lb
        assert rep.lb_prob == 0.0
        assert math.isinf(rep.lb_exponent)


class TestGapBounds:
    CASES = [("log", None), ("poly", 0.5), ("poly", 1.0), ("poly", 1.9), ("poly", 2.0),
             ("poly", 3.0), ("superpoly", 0.3), ("superpoly", 0.7)]

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

    @pytest.mark.parametrize("param, n", [(0.01, 10**200), (0.3, 10**6)],
                             ids=["p0.01-n1e200", "p0.3-n1e6"])
    def test_superpoly_upper_end_in_log_space(self, param, n):
        # the radicand e^{-n^p} n^2 + 1 overflows as written past n = 1e154
        # while e^{-n^p} is still nonzero (the upper end at p = 0.01,
        # n = 1e200 is 4.364e-21, not inf); the reference forms its log
        c, ln_n = 2.0, math.log(n)
        a = 2.0 * ln_n - float(n) ** param
        log_root = 0.5 * (a + math.log1p(math.exp(-a)) if a > 0 else math.log1p(math.exp(a)))
        want = math.exp(math.log(8.0 * math.sqrt(2.0) * c) + log_root - ln_n) + 2.0 * ln_n / n
        upper = b.gap_bounds(b.TypeIRegime("superpoly", param), n, -0.1, c)[1]
        assert upper == pytest.approx(want, rel=1e-12)

    def test_paper_style_case_ii_values(self):
        reg = b.TypeIRegime("poly", 1.0)
        got = b.gap_bounds(reg, 10**4, -0.05, 2.47)
        want = oracles.gap_bounds_reference("poly", 1.0, 10**4, -0.05, 2.47)
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
        reg = b.TypeIRegime("poly", 2.0)
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
            b.gap_bounds(b.TypeIRegime("const", 0.1), 100, 0.0, 1.0)

    def test_logarithmic_needs_n_16(self):
        with pytest.raises(b.RegimeDomainError, match="n >= 16"):
            b.gap_bounds(b.TypeIRegime("log"), 15, 0.0, 1.0)
        b.gap_bounds(b.TypeIRegime("log"), 16, 0.0, 1.0)

    def test_rejects_positive_d_slope(self):
        for d_slope in (0.5, 1e-7, math.nan, -math.inf):
            with pytest.raises(b.RegimeSpecError, match="nonpositive"):
                b.gap_bounds(b.TypeIRegime("poly", 1.0), 100, d_slope, 1.0)

    def test_rejects_nonpositive_c(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(b.RegimeSpecError, match="positive"):
                b.gap_bounds(b.TypeIRegime("poly", 1.0), 100, 0.0, c)

    def test_rejects_c_whose_converse_slack_overflows(self):
        # 4c overflows above float max / 4; where the slack rounds to 1 the
        # converse took inf * 0 and lb_prob read NaN.  The largest c that
        # passes still gives a probability at the size that broke
        reg = b.TypeIRegime.parse("superpoly:0.5")
        for c in (4.5e307, sys.float_info.max):
            with pytest.raises(b.RegimeSpecError, match="4c finite"):
                b.feasibility_interval((0.02, 0.0), c, reg, 10 ** 20)
            with pytest.raises(b.RegimeSpecError, match="4c finite"):
                b.critical_sample_size((0.02, 0.0), c, reg, 1e-5)
            with pytest.raises(b.RegimeSpecError, match="4c finite"):
                b.gap_bounds(b.TypeIRegime("poly", 1.0), 100, 0.0, c)
        rep = b.feasibility_interval((0.02, 0.0), 4.49e307, reg, 10 ** 20)
        assert rep.valid_lb and rep.lb_prob == 0.0


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
        # xi + d_slope ln(l)/(2l); polynomial budgets hit eps = 1 at n = 1,
        # which poly therefore refuses, and _interval still computes
        reg = b.TypeIRegime("poly", 1.0)
        with pytest.raises(b.RegimeDomainError, match=r"n = 1 \(needs n >= 2\)"):
            b.feasibility_interval((0.7, -0.1), 1.92, reg, 1)
        at = b._interval(0.7, -0.1, 1.92, reg, np.array([1.0]))
        assert at["eps_n"][0] == 1.0 and at["delta_tilde"][0] == 0.0
        assert at["ub_prob"][0] == pytest.approx(
            math.exp(-(0.7 + -0.1 * math.log(1) / 2.0)), rel=1e-12)

    def test_log_gap_matches_direct_computation_without_underflow(self):
        # at const:0.9 the slack mass is eps itself, so 1 - eps - h < 0, the
        # converse degenerates and the gap is the upper end alone
        for c, eps, n, valid in ((0.5, 0.2, 50, True), (1.0, 0.9, 100, False)):
            rep = b.feasibility_interval((0.05, 0.0), c, b.TypeIRegime("const", eps), n)
            assert rep.valid_lb == valid and (rep.lb_prob > 0) == valid
            direct = math.log(rep.ub_prob - rep.lb_prob) / rep.n
            assert rep.log_gap_per_sample == pytest.approx(direct, rel=1e-12)
        assert rep.log_gap_per_sample == pytest.approx(-0.0294709, abs=1e-7)

    def test_log_gap_survives_underflow(self):
        rep = b.feasibility_interval((3.0, 0.0), 2.47, b.TypeIRegime("poly", 1.0), 800)
        assert rep.ub_prob == 0.0  # the probability itself underflows
        assert math.isfinite(rep.log_gap_per_sample)
        assert rep.log_gap_per_sample == pytest.approx(-rep.ub_exponent, rel=1e-9)

    def test_ub_monotone_in_xi(self):
        reg = b.TypeIRegime("poly", 1.0)
        reps = [b.feasibility_interval((xi, 0.0), 1.0, reg, 100)
                for xi in (0.2, 0.5, 1.0, 2.0)]
        for a, bb in zip(reps, reps[1:]):
            assert bb.ub_prob <= a.ub_prob
            assert bb.lb_prob <= a.lb_prob

    def test_negative_upper_exponent_clamps_without_overflow(self):
        # -n * ub_exponent is past 709 here, so exp() of it overflows float64
        rep = b.feasibility_interval(oracles.README_CURVE[0], oracles.README_C,
                                     b.TypeIRegime("superpoly", 0.5), 383)
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
        exact = n ** reg.param if reg.kind == "superpoly" else reg.param * math.log(n)
        assert rep.delta_tilde == pytest.approx(math.sqrt(2.0 * exact / (n * rep.block_l)),
                                                rel=1e-14)
        assert math.isfinite(rep.ub_exponent)
        assert rep.h_n == float(n) ** -2.0

    def test_rejects_bad_curve_point(self):
        reg = b.TypeIRegime("const", 0.1)
        for point, c in (((-0.1, 0.0), 1.0), ((0.5, 0.1), 1.0), ((0.5, 0.0), -1.0),
                         ((math.nan, 0.0), 1.0), ((math.inf, 0.0), 1.0),
                         ((0.5, math.nan), 1.0), ((0.5, -math.inf), 1.0),
                         ((0.5, 0.0), math.nan), ((0.5, 0.0), math.inf)):
            with pytest.raises(b.RegimeSpecError):
                b.feasibility_interval(point, c, reg, 100)


class TestCriticalSampleSize:
    def test_big_delta_returns_smallest_admissible_n(self):
        # eps_n is undefined below the first admissible n: n = 1, 2 for log
        # and n = 1 for poly, where eps_1 = 1
        point, c = (0.7, 0.0), 1.0
        for spec, first in (("const:0.1", 1), ("log", 3), ("poly:1", 2), ("superpoly:0.5", 1)):
            reg = b.TypeIRegime.parse(spec)
            for at in (lambda n: b.eps_at(reg, n),
                       lambda n: b.feasibility_interval(point, c, reg, n)):
                with pytest.raises(b.RegimeDomainError, match=f"n >= {first}"):
                    at(first - 1)
                at(first)
            assert b.critical_sample_size(point, c, reg, 1.0) == first

    def test_monotone_in_delta(self):
        reg = b.TypeIRegime("log")
        sizes = [b.critical_sample_size((0.7, 0.0), 1.92, reg, delta)
                 for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(s is not None for s in sizes)
        assert all(x <= y for x, y in zip(sizes, sizes[1:]))

    def test_condition_holds_at_cns_not_before(self):
        reg = b.TypeIRegime("const", 0.1)
        point, c, delta = (0.7, 0.0), 1.92, 1e-5
        cns = b.critical_sample_size(point, c, reg, delta)
        at = b.feasibility_interval(point, c, reg, cns)
        assert max(at.ub_prob - at.nominal, at.nominal - at.lb_prob) <= delta
        if cns > 1:
            prev = b.feasibility_interval(point, c, reg, cns - 1)
            assert max(prev.ub_prob - prev.nominal, prev.nominal - prev.lb_prob) > delta

    def test_cap_not_found(self):
        assert b.critical_sample_size((3.0, 0.0), 2.47, b.TypeIRegime("poly", 0.1),
                                      1e-300, cap=10) is None

    def test_cap_limit(self):
        # the README's const:0.1 cns at xi = 3 is 8
        reg, point, c = b.TypeIRegime("const", 0.1), (3.0, 0.0), 2.47
        for cap in (0, b.MAX_CAP + 1):
            with pytest.raises(b.RegimeSpecError, match=f"must lie in \\[1, {b.MAX_CAP}\\]"):
                b.critical_sample_size(point, c, reg, 1e-5, cap=cap)
        assert b.critical_sample_size(point, c, reg, 1e-5, cap=b.MAX_CAP) == 8

    def test_rejects_bad_delta(self):
        for delta in (0.0, -1e-5, math.nan):
            with pytest.raises(b.RegimeSpecError, match="delta"):
                b.critical_sample_size((0.7, 0.0), 1.0, b.TypeIRegime("log"), delta)

    def test_rejects_bad_curve_point(self):
        reg = b.TypeIRegime("log")
        for point, c in (((-0.1, 0.0), 1.0), ((0.5, 0.1), 1.0), ((0.5, 0.0), 0.0),
                         ((math.nan, 0.0), 1.0), ((0.5, math.nan), 1.0), ((0.5, 0.0), math.nan)):
            with pytest.raises(b.RegimeSpecError):
                b.critical_sample_size(point, c, reg, 1e-5, cap=2)


class TestCnsScanAgainstReference:
    """critical_sample_size against oracles.cns_reference, the per-n scalar loop."""

    @pytest.mark.parametrize("spec", oracles.README_REGIMES)
    def test_readme_curve(self, spec):
        reg = b.TypeIRegime.parse(spec)
        for point in oracles.README_CURVE:
            got = b.critical_sample_size(point, oracles.README_C, reg, 1e-5, cap=3000)
            assert got == oracles.cns_reference(point, oracles.README_C, reg, 1e-5, cap=3000)

    @pytest.mark.parametrize("spec,cns", [("const:0.1", 46657), ("log", 47446),
                                          ("poly:0.5", 85185)])
    def test_late_readme_cells(self, spec, cns):
        point, reg = oracles.README_CURVE[-1], b.TypeIRegime.parse(spec)
        assert b.critical_sample_size(point, oracles.README_C, reg, 1e-5) == cns
        assert oracles.cns_reference(point, oracles.README_C, reg, 1e-5) == cns

    def test_tiny_delta(self):
        # the gap reaches 0 only once all three probabilities underflow
        for spec in ("const:0.1", "log", "poly:0.1", "superpoly:0.5"):
            reg = b.TypeIRegime.parse(spec)
            got = b.critical_sample_size((3.0, 0.0), 2.47, reg, 1e-300, cap=3000)
            assert got is not None
            assert got == oracles.cns_reference((3.0, 0.0), 2.47, reg, 1e-300, cap=3000)

    @pytest.mark.parametrize("spec,start", [("poly:1", 1), ("poly:1", 2), ("log", 3)])
    @pytest.mark.parametrize("chunk_end", [64, 192, 448, 960, 1984, 2048, 4032, 4096, 6080,
                                           6144])
    def test_chunk_edges(self, spec, start, chunk_end):
        # chunks hold 2048 sizes each from the first admissible n (2 for poly,
        # 3 for log); the other ends are those of chunks that once doubled
        # from 64 sizes, and start = 1 gives those of poly's chunks when they
        # began at n = 1.  This cell's gap falls strictly over [60, 6200], so
        # delta = gap(m) makes m the cns with equality in the condition.
        reg, point, c = b.TypeIRegime.parse(spec), (0.05, 0.0), 0.2
        edge = start - 1 + chunk_end
        for m in (edge - 1, edge, edge + 1):
            delta = oracles.cns_gap(point, c, reg, m)
            assert oracles.cns_reference(point, c, reg, delta, cap=edge + 1) == m
            for cap in (edge - 1, edge, edge + 1):
                got = b.critical_sample_size(point, c, reg, delta, cap=cap)
                assert got == (m if m <= cap else None)

    def test_lower_side_binds(self):
        # nominal - lb_prob exceeds ub_prob - nominal at every n of this cell
        reg, point, c = b.TypeIRegime("const", 0.05), (0.35, 0.0), 0.05
        for m in (14, 25, 33, 40):
            at = b.feasibility_interval(point, c, reg, m)
            assert at.nominal - at.lb_prob > at.ub_prob - at.nominal
            delta = oracles.cns_gap(point, c, reg, m)
            got = b.critical_sample_size(point, c, reg, delta, cap=500)
            assert got == oracles.cns_reference(point, c, reg, delta, cap=500) == m

    def test_log_below_its_domain(self):
        reg = b.TypeIRegime("log")
        for cap in (1, 2, 3, 4):
            for delta in (1.0, 1e-5):
                got = b.critical_sample_size((0.7, 0.0), 1.92, reg, delta, cap=cap)
                assert got == oracles.cns_reference((0.7, 0.0), 1.92, reg, delta, cap=cap)

    def test_unit_budget_at_n_one(self):
        # poly:1 has eps_1 = 1: ln(1/eps) = 0 and the converse degenerates,
        # so the regime refuses n = 1 and the scan starts at n = 2
        reg, point, c = b.TypeIRegime("poly", 1.0), (0.7, -0.1), 1.92
        with pytest.raises(b.RegimeDomainError, match="n >= 2"):
            oracles.cns_gap(point, c, reg, 1)
        assert b.critical_sample_size(point, c, reg, 1.0, cap=1) is None
        for delta in (1.0, oracles.cns_gap(point, c, reg, 2), 1e-5):
            got = b.critical_sample_size(point, c, reg, delta, cap=200)
            assert got == oracles.cns_reference(point, c, reg, delta, cap=200)
        assert b.critical_sample_size(point, c, reg, 1.0, cap=200) == 2

    def test_superpolynomial_scan_past_budget_underflow(self):
        # eps_n underflows to 0 from n = 1554 on
        reg = b.TypeIRegime("superpoly", 0.9)
        got = b.critical_sample_size((0.5, 0.0), 1.0, reg, 1e-5, cap=5000)
        assert got == oracles.cns_reference((0.5, 0.0), 1.0, reg, 1e-5, cap=5000)


class TestSizeAloneAndInAChunk:
    """A size gets the same bits from feasibility_interval as inside a chunk
    that the scan evaluates: cmd_cns re-checks the cns that way."""

    @staticmethod
    def assert_alone_matches_chunk(point, c, reg, n, lo, hi):
        # _interval's keys are BoundReport's ten interval fields
        at = b._interval(*point, c, reg, np.arange(lo, hi + 1, dtype=np.float64))
        rep = b.feasibility_interval(point, c, reg, n)
        assert len(at) == 10
        for key, chunk in at.items():
            got = np.array(getattr(rep, key), dtype=chunk.dtype)
            assert got.tobytes() == chunk[n - lo].tobytes(), (reg.label, point, c, n, lo, hi, key)

    def test_edge_sizes(self):
        # poly:1 at its first size (n = 1, where eps = 1, is refused),
        # superpoly:0.9 on both sides of eps underflow (n = 1554), log at its
        # first size
        point, c = (0.7, -0.1), 1.92
        with pytest.raises(b.RegimeDomainError, match="n >= 2"):
            b.feasibility_interval(point, c, b.TypeIRegime("poly", 1.0), 1)
        for spec, n, lo, hi in (("poly:1", 2, 2, 65), ("superpoly:0.9", 1553, 1500, 1617),
                                ("superpoly:0.9", 1554, 1500, 1617),
                                ("superpoly:0.9", 1554, 1554, 1554), ("log", 3, 3, 66)):
            self.assert_alone_matches_chunk(point, c, b.TypeIRegime.parse(spec), n, lo, hi)

    def test_random_cells(self):
        rng = np.random.default_rng(19)
        specs = ("const:0.1", "const:0.9", "log", "poly:0.5", "poly:1", "poly:3",
                 "superpoly:0.5", "superpoly:0.9")
        for cell in range(240):
            reg = b.TypeIRegime.parse(specs[cell % len(specs)])
            xi, d_slope = rng.uniform(0.0, 3.0) * rng.choice([1e-3, 1.0]), -rng.uniform(0.0, 0.2)
            c = rng.uniform(0.01, 12.0)
            first = b._REGIMES[reg.kind][1]
            lo = first + int(rng.integers(0, 200_000))
            hi = lo + int(rng.integers(0, b._CHUNK))
            n = int(rng.integers(lo, hi + 1))
            self.assert_alone_matches_chunk((xi, d_slope), c, reg, n, lo, hi)


class TestChunkScreen:
    """The scan skips a chunk only where _chunk_clears_delta proves that no
    size in it passes the upper test, and still returns what one unchunked
    evaluation of the interval gives."""

    SPECS = ("const:0.1", "const:0.9", "const:1e-300", "log", "poly:0.5", "poly:1", "poly:2",
             "poly:70", "superpoly:0.01", "superpoly:0.5", "superpoly:0.9")

    @staticmethod
    def draw_point(rng) -> tuple[float, float, float]:
        """(xi, d_slope, c) with xi in {0, 1e-12} and d_slope = 0 often."""
        xi = (0.0, 1e-12, rng.uniform(0.0, 0.03), rng.uniform(0.0, 3.0))[rng.integers(4)]
        d_slope = (0.0, -rng.uniform(0.0, 0.3))[rng.integers(2)]
        return float(xi), float(d_slope), float(rng.uniform(0.01, 12.0))

    def draw_chunk(self, rng) -> tuple[str, int, int]:
        """(regime, lo, hi): a chunk of 1 to 2048 sizes starting below 100,000."""
        spec = self.SPECS[rng.integers(len(self.SPECS))]
        lo = b._REGIMES[spec.partition(":")[0]][1] + int(10 ** rng.uniform(0.0, 5.0)) - 1
        return spec, lo, lo + int((0, 1, 63, 2047, rng.integers(0, 2048))[rng.integers(5)])

    @staticmethod
    def screen(xi, d_slope, c, reg, lo, hi, delta) -> np.ndarray:
        """_chunk_clears_delta over the chunks [lo[i], hi[i]]."""
        return b._chunk_clears_delta(xi, d_slope, c, reg, np.array(lo, dtype=np.float64),
                                     np.array(hi, dtype=np.float64), delta)

    @staticmethod
    def upper_gap(xi, d_slope, c, reg, lo, hi) -> np.ndarray:
        """ub_prob - nominal at every n of [lo, hi], as the scan computes it."""
        at = b._interval(xi, d_slope, c, reg, np.arange(lo, hi + 1, dtype=np.float64))
        return at["ub_prob"] - at["nominal"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_skip_only_where_every_size_fails_the_upper_test(self):
        rng = np.random.default_rng(20)
        # l crosses 1 -> 4 on [1, 64] and 2 -> 5 on [2, 65]; poly starts at
        # n = 2; superpoly:0.9's eps_n underflows from n = 1554 on; log starts at n = 3
        edges = [("const:0.1", 1, 64), ("poly:1", 2, 65), ("poly:1", 2, 2), ("poly:1", 2, 3),
                 ("superpoly:0.9", 1554, 1554), ("superpoly:0.9", 1500, 1617),
                 ("superpoly:0.9", 1554, 3601), ("superpoly:0.9", 20_000, 22_047),
                 ("log", 3, 66), ("log", 3, 3), ("superpoly:0.01", 1, 64)]
        cases, skips, tight_skips, drawn = 0, 0, 0, []
        for _ in range(60):
            for edge in edges + [None] * 4:
                spec, lo, hi = edge or self.draw_chunk(rng)
                reg = b.TypeIRegime.parse(spec)
                xi, d_slope, c = self.draw_point(rng)
                gap = self.upper_gap(xi, d_slope, c, reg, lo, hi)
                least = float(np.min(gap))
                # 1e-300 and 0.5, and just below and above the least gap of the chunk
                for delta in (1e-300, 0.5, least * (1.0 - 10 ** -rng.uniform(1.0, 12.0)),
                              least * (1.0 + 10 ** -rng.uniform(1.0, 12.0))):
                    if not delta > 0:
                        continue
                    cases += 1
                    skip = self.screen(xi, d_slope, c, reg, [lo], [hi], delta)[0]
                    drawn.append((xi, d_slope, c, reg, lo, hi, delta, skip))
                    if skip:
                        assert np.all(gap > delta), (spec, xi, d_slope, c, lo, hi, delta)
                        skips += 1
                        tight_skips += delta > least * (1.0 - 1e-3)
        assert cases >= 500 and skips >= 100 and tight_skips >= 10, (cases, skips, tight_skips)
        # one call over every chunk drawn in a regime gives each case the
        # answer of the call over its own chunk alone
        chunks = {}
        for _, _, _, reg, lo, hi, _, _ in drawn:
            chunks.setdefault(reg, {}).setdefault((lo, hi), len(chunks[reg]))
        for xi, d_slope, c, reg, lo, hi, delta, skip in drawn:
            los, his = zip(*chunks[reg])
            mask = self.screen(xi, d_slope, c, reg, los, his, delta)
            assert mask[chunks[reg][lo, hi]] == skip, (reg.label, xi, d_slope, c, lo, hi, delta)

    def test_scan_matches_one_unchunked_evaluation(self):
        rng = np.random.default_rng(21)
        found = 0
        for cell in range(240):
            reg = b.TypeIRegime.parse(self.SPECS[cell % len(self.SPECS)])
            xi, d_slope, c = self.draw_point(rng)
            delta = float((1e-300, 0.5, 10 ** rng.uniform(-300.0, 0.0),
                           10 ** rng.uniform(-12.0, -1.0))[rng.integers(4)])
            cap = 100_000 if cell % 3 == 0 else int(10 ** rng.uniform(0.0, 5.0))
            n = np.arange(b._REGIMES[reg.kind][1], cap + 1, dtype=np.float64)
            at = b._interval(xi, d_slope, c, reg, n)
            ok = np.flatnonzero(np.maximum(at["ub_prob"] - at["nominal"],
                                           at["nominal"] - at["lb_prob"]) <= delta)
            want = int(n[ok[0]]) if ok.size else None
            assert b.critical_sample_size((xi, d_slope), c, reg, delta, cap=cap) == want, (
                reg.label, xi, d_slope, c, delta, cap)
            found += want is not None
        assert 30 <= found <= 210, found

    @staticmethod
    def count_upper(monkeypatch) -> list:
        seen, interval = [0], b._interval

        def counted(xi, d_slope, c, regime, n):
            seen[0] += n.size
            return interval(xi, d_slope, c, regime, n)
        monkeypatch.setattr(b, "_interval", counted)
        return seen

    @pytest.mark.parametrize("spec,cns", [("const:0.1", 46657), ("log", 47446),
                                          ("poly:0.5", 85185)])
    def test_readme_tail_row_evaluates_few_sizes(self, monkeypatch, spec, cns):
        seen = self.count_upper(monkeypatch)
        reg = b.TypeIRegime.parse(spec)
        point, c = (0.02213497157560763, -0.11413974114169244), 9.919821435033967
        assert b.critical_sample_size(point, c, reg, 1e-5) == cns
        assert 0 < seen[0] < 0.1 * (cns - b._REGIMES[reg.kind][1] + 1)

    def test_readme_cells_evaluate_only_the_chunk_of_their_cns(self, monkeypatch):
        # the screen drops every chunk before the cns, and a cell without a
        # cns evaluates nothing
        chunks = []

        def recorded(xi, d_slope, c, regime, n):
            chunks.append((int(n[0]), int(n[-1])))
            return interval(xi, d_slope, c, regime, n)
        interval = b._interval
        monkeypatch.setattr(b, "_interval", recorded)
        calls = 0
        for spec in oracles.README_REGIMES:
            reg = b.TypeIRegime.parse(spec)
            for point in oracles.README_CURVE:
                chunks.clear()
                cns = b.critical_sample_size(point, oracles.README_C, reg, 1e-5, cap=100_000)
                if cns is None:
                    assert chunks == [], (spec, point)
                else:
                    assert len(chunks) == 1 and chunks[0][0] <= cns <= chunks[0][1], (spec, point)
                calls += len(chunks)
        assert calls == 7

    def test_readme_first_point_evaluates_almost_nothing(self, monkeypatch):
        seen = self.count_upper(monkeypatch)
        point, c = (0.001015507560238674, -0.14215916043389096), 9.919821435033967
        assert b.critical_sample_size(point, c, b.TypeIRegime("const", 0.1), 1e-5,
                                      cap=100_000) is None
        assert seen[0] < 0.01 * 100_000


class TestDsbsOptimum:
    """The interval against the exact optimal Type II error on the DSBS.

    At R >= H(X) the detector sees X, so the optimum is the centralized
    Neyman-Pearson test on [[.4, .1], [.1, .4]], and the curve point is
    xi = I(X;Y) with a flat distortion (d_slope = 0).
    """

    DSBS = d.JointPmf.from_probs([[0.4, 0.1], [0.1, 0.4]])

    def _point(self):
        return (d.mutual_information(self.DSBS), 0.0), d.c_constant(self.DSBS)

    def test_oracle_matches_enumeration(self):
        enc = d.Encoder(d.TestChannel.identity(2, 2))
        pmf0, pmf1, lr = oracles.cell_law(self.DSBS, enc)
        for n in range(1, 7):
            _, p0, p1 = oracles.statistic_atoms(pmf0, pmf1, lr, n, n)
            for eps in (0.01, 0.05, 0.1, 0.3, 0.5):
                want = oracles.np_optimum_from_atoms(p0, p1, eps)
                got = math.exp(oracles.dsbs_np_optimum(n, eps))
                assert got == pytest.approx(want, rel=1e-12)

    # at superpoly:0.5, -n lb_exponent reads -211.7 (n = 1e3) and -1951.1
    # (n = 1e4) against ln beta* of -84.9 and -1233.5
    @pytest.mark.parametrize("spec", ["const:0.1", "log", "poly:1", "poly:2", "superpoly:0.5"])
    @pytest.mark.parametrize("n", [1_000, 10_000])
    def test_lower_end_bounds_the_optimum(self, spec, n):
        point, c = self._point()
        rep = b.feasibility_interval(point, c, b.TypeIRegime.parse(spec), n)
        assert rep.valid_lb
        assert -n * rep.lb_exponent <= oracles.dsbs_np_optimum(n, rep.eps_n)

    def test_upper_end_is_not_a_bound(self):
        # ln ub_prob = -158.7 against ln beta* = -145.7: the upper end drops
        # residual terms, so it can fall below the optimum it approximates
        point, c = self._point()
        n = 1_000
        rep = b.feasibility_interval(point, c, b.TypeIRegime("poly", 1.0), n)
        assert -n * max(rep.ub_exponent, 0.0) < oracles.dsbs_np_optimum(n, rep.eps_n)
