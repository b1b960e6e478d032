import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import disthyp as d
from disthyp import rngstreams, simulate as s

import oracles

SYM = [[0.4, 0.1], [0.1, 0.4]]


def sym_model():
    return d.JointPmf.from_probs(SYM)


def encoder_mse(enc, pts, wts):
    total = 0.0
    for j in np.unique(enc.table):
        m = enc.table == j
        mu = np.average(pts[m], weights=wts[m])
        total += float((wts[m] * (pts[m] - mu) ** 2).sum())
    return total


class TestEncoder:
    def test_identity(self):
        enc = s.Encoder.identity(3)
        assert enc.block_len == 1 and enc.codebook_size == 3
        assert np.array_equal(enc.table, [0, 1, 2])

    def test_codes_must_fit_codebook(self):
        # one code per x, each in [0, |X|)
        with pytest.raises(s.SimulationError):
            s.Encoder(np.array([0, 2]))
        with pytest.raises(s.SimulationError):
            s.Encoder(np.array([0, -1]))
        with pytest.raises(s.SimulationError):
            s.Encoder(np.zeros((2, 2), dtype=int))
        with pytest.raises(s.SimulationError):
            s.Encoder(np.array([0, 1]), block_len=0)

    def test_blockwise_keeps_the_scalar_map(self):
        scalar = s.Encoder(np.array([0, 2, 2]))
        blk = scalar.blockwise(2)
        assert np.array_equal(blk.table, scalar.table) and blk.nx == 3
        # two codes are used, so four code blocks
        assert (blk.block_len, blk.codebook_size) == (2, 4)
        assert (scalar.block_len, scalar.codebook_size) == (1, 2)

    def test_blockwise_needs_scalar_base(self):
        blk = s.Encoder.identity(2).blockwise(2)
        with pytest.raises(s.SimulationError):
            blk.blockwise(2)

    def test_random_map_reproducible(self):
        a = oracles.random_map(4, 2, 3, np.random.default_rng(5))
        bb = oracles.random_map(4, 2, 3, np.random.default_rng(5))
        assert np.array_equal(a.table, bb.table) and a.block_len == 2
        assert a.table.min() >= 0 and a.table.max() < 3


class TestLloydMax:
    def test_matches_exhaustive_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            npts = int(rng.integers(4, 10))
            pts = np.sort(rng.normal(size=npts))
            wts = rng.dirichlet(np.full(npts, 2.0))
            wts = np.maximum(wts, 1e-3)
            wts /= wts.sum()
            for levels in (2, 3, 4):
                enc = s.lloyd_max(pts, wts, levels)
                got = encoder_mse(enc, pts, wts)
                want = oracles.best_contiguous_mse(pts, wts, levels)
                assert got <= want + 1e-12
                assert enc.codebook_size == levels

    def test_cells_are_contiguous(self):
        rng = np.random.default_rng(11)
        pts = np.sort(rng.normal(size=30))
        enc = s.lloyd_max(pts, np.full(30, 1 / 30), 6)
        assert np.all(np.diff(enc.table) >= 0)
        assert enc.codebook_size == 6

    def test_symmetric_tie_is_deterministic(self):
        # both two-cell splits of this symmetric grid have equal cost; the
        # implementation must pick one reproducibly (middle point goes left)
        enc = s.lloyd_max(np.array([-1.0, 0.0, 1.0]), np.array([0.4, 0.2, 0.4]), 2)
        assert np.array_equal(enc.table, [0, 0, 1])

    def test_levels_at_least_points_collapses_to_identity(self):
        pts = np.array([0.0, 1.0, 2.0])
        w = np.full(3, 1 / 3)
        enc = s.lloyd_max(pts, w, 3)
        assert np.array_equal(enc.table, [0, 1, 2]) and not enc.levels_reduced
        enc = s.lloyd_max(pts, w, 7)
        assert np.array_equal(enc.table, [0, 1, 2]) and enc.levels_reduced

    def test_single_level(self):
        enc = s.lloyd_max(np.array([0.0, 1.0, 5.0]), np.array([0.2, 0.3, 0.5]), 1)
        assert enc.codebook_size == 1

    def test_input_validation(self):
        w2 = np.array([0.5, 0.5])
        with pytest.raises(s.SimulationError, match="increasing"):
            s.lloyd_max(np.array([1.0, 1.0]), w2, 1)
        with pytest.raises(s.SimulationError, match="sum to 1"):
            s.lloyd_max(np.array([0.0, 1.0]), np.array([0.5, 0.6]), 1)
        with pytest.raises(s.SimulationError, match="positive"):
            s.lloyd_max(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1)
        with pytest.raises(s.SimulationError, match="levels"):
            s.lloyd_max(np.array([0.0, 1.0]), w2, 0)
        with pytest.raises(s.SimulationError, match="1-d"):
            s.lloyd_max(np.eye(2), np.eye(2), 1)
        # NaN compares false, so without a finite check these pass the
        # ordering and weight checks
        w3 = np.full(3, 1 / 3)
        for bad in (math.nan, math.inf):
            with pytest.raises(s.SimulationError, match="finite"):
                s.lloyd_max(np.array([0.0, bad, 1.0]), w3, 2)
            with pytest.raises(s.SimulationError, match="finite"):
                s.lloyd_max(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5, bad]), 2)


class TestQuantizedModel:
    def test_identity_encoder_reproduces_tables(self):
        p = sym_model()
        qm = s.quantized_model(p, s.Encoder.identity(2))
        assert np.array_equal(qm.h0, p.probs)
        assert np.allclose(qm.h1, 0.25, atol=1e-15)
        assert qm.block_len == 1

    def test_alternative_is_product_of_null_marginals(self):
        rng = np.random.default_rng(3)
        mat = np.maximum(rng.dirichlet(np.ones(12)), 1e-4).reshape(3, 4)
        p = d.JointPmf.from_probs(mat, normalize=True)
        for l in (1, 2, 3):
            enc = oracles.random_map(3, l, 3, rng)
            qm = s.quantized_model(p, enc)
            outer = np.outer(qm.h0.sum(axis=1), qm.h0.sum(axis=0))
            assert np.allclose(qm.h1, outer, atol=1e-12)
            assert qm.h0.sum() == pytest.approx(1.0, abs=1e-12)
            assert qm.h1.sum() == pytest.approx(1.0, abs=1e-12)

    def test_data_processing_on_quantized_information(self):
        p = sym_model()
        mi = d.mutual_information(p)
        rng = np.random.default_rng(9)
        for l in (1, 2, 3):
            for _ in range(3):
                enc = oracles.random_map(2, l, 2, rng)
                qm = s.quantized_model(p, enc)
                assert oracles.table_mutual_information(qm.h0) <= l * mi + 1e-9

    def test_injective_scalar_encoder_preserves_information(self):
        p = sym_model()
        qm = s.quantized_model(p, s.Encoder.identity(2))
        assert oracles.table_mutual_information(qm.h0) == pytest.approx(
            d.mutual_information(p), abs=1e-12)

    def test_constant_encoder_kills_information(self):
        p = sym_model()
        enc = s.Encoder(np.array([0, 0]))
        qm = s.quantized_model(p, enc)
        assert qm.h0.shape[0] == 1
        assert oracles.table_mutual_information(qm.h0) == pytest.approx(0.0, abs=1e-12)

    def test_unused_codes_dropped(self):
        p = d.JointPmf.from_probs([[0.2, 0.1], [0.1, 0.2], [0.3, 0.1]])
        qm = s.quantized_model(p, s.Encoder(np.array([0, 2, 2])))
        assert qm.h0.shape[0] == 2
        qm = s.quantized_model(p, s.Encoder(np.array([0, 2, 2])).blockwise(2))
        assert qm.h0.shape == (4, 4)

    @pytest.mark.parametrize("block_len", [1, 2, 3])
    def test_matches_x_block_enumeration(self, block_len):
        rng = np.random.default_rng(block_len)
        p = d.JointPmf.from_probs(rng.dirichlet(np.ones(12)).reshape(3, 4))
        # code 1 of the last map is never used
        for table in ([0, 1, 2], [0, 1, 0], [2, 0, 2]):
            self.assert_matches_enumeration(p, s.Encoder(np.array(table)).blockwise(block_len))

    @pytest.mark.parametrize("grid, block_len, classes",
                             [(32, 1, 64), (16, 1, 32), (16, 2, 528)])
    def test_readme_tables_match_x_block_enumeration(self, grid, block_len, classes):
        qm = self.assert_matches_enumeration(*readme_model(grid, block_len))
        assert qm.class_lr.size == classes

    @staticmethod
    def assert_matches_enumeration(p, enc):
        """Same cells as summing every x-block: bit for bit at block
        length 1, within 1e-15 above it, and the same log-ratio classes."""
        qm = s.quantized_model(p, enc)
        want0, want1 = oracles.block_tables(p, enc)
        if enc.block_len == 1:
            assert qm.h0.tobytes() == want0.tobytes()
            assert qm.h1.tobytes() == want1.tobytes()
        assert qm.h0.shape == want0.shape
        assert np.allclose(qm.h0, want0, rtol=0, atol=1e-15)
        assert np.allclose(qm.h1, want1, rtol=0, atol=1e-15)
        want_lr = np.log(want0) - np.log(want1)
        want = s._merge_tied_cells(want0.ravel(), want1.ravel(), want_lr.ravel())
        assert qm.class_lr.size == want[2].size
        assert np.allclose(qm.class_lr, want[2], rtol=0, atol=1e-13)
        return qm

    def test_block_length_cap(self):
        with pytest.raises(s.SimulationError, match="cap"):
            s.quantized_model(sym_model(), s.Encoder.identity(2).blockwise(4))

    def test_table_cap_counts_sampler_cells(self, monkeypatch):
        # README model, 4 levels at block length 3: 64 codes x 32^3 y-blocks,
        # over 2 million cells; rejected before the table is built
        p = d.discretized_gaussian(0.384727, 32, 32)
        scalar = s.lloyd_max(np.array([float(v) for v in p.x_labels]), p.x_marginal, 4)
        monkeypatch.setattr(s, "product_model", None)
        with pytest.raises(s.SimulationError, match="cap"):
            s.quantized_model(p, scalar.blockwise(3))

    def test_alphabet_mismatch(self):
        with pytest.raises(s.SimulationError, match="expects"):
            s.quantized_model(sym_model(), s.Encoder.identity(3))


def readme_model(grid, block_len):
    """The README model (MI 0.08 nats) and the 4-level quantizer."""
    _, p = d.calibrate_correlation(0.08, grid, grid)
    scalar = s.lloyd_max(np.array([float(v) for v in p.x_labels]), p.x_marginal, 4)
    return p, scalar.blockwise(block_len)


def row_sums(counts, lr, n):
    """S of each row of a count matrix."""
    return (counts * lr).sum(axis=1) / n


def sample_stats(pmf, lr, k, n, trials, seed, purpose):
    """S of every trial, chunk by chunk, in trial order."""
    return np.concatenate([s._chunk_stats(pmf, lr, k, n, seed, purpose, span)
                           for span in rngstreams.chunk_spans(trials)])


def merged_atoms(values, masses, tol):
    """Atom values and masses after merging values closer than tol."""
    starts = np.concatenate(([True], np.diff(values) > tol))
    return values[starts], np.add.reduceat(masses, np.flatnonzero(starts))


class TestLogRatioClasses:
    def test_tie_free_table_samples_cells_bit_for_bit(self):
        rng = np.random.default_rng(12)
        p = d.JointPmf.from_probs(rng.dirichlet(np.ones(12)).reshape(3, 4))
        for enc in (s.Encoder.identity(3), s.Encoder(np.array([0, 1, 0]))):
            qm = s.quantized_model(p, enc)
            pmf0, pmf1, lr = qm.flat()
            assert np.unique(lr).size == lr.size
            for cls, cell in ((qm.class_h0, pmf0), (qm.class_h1, pmf1),
                              (qm.class_lr, lr)):
                assert cls.tobytes() == cell.tobytes()
            n, trials = 5, rngstreams.CHUNK_TRIALS + 500
            got = sample_stats(qm.class_h0, qm.class_lr, n, n, trials, 3,
                               rngstreams.PURPOSE_H0)
            want = np.concatenate([
                row_sums(rngstreams.stream(3, rngstreams.PURPOSE_H0, idx).multinomial(
                    n, pmf0, size=cnt), lr, n)
                for idx, cnt in rngstreams.chunk_spans(trials)])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid, block_len, classes",
                             [(32, 1, 64), (16, 2, 528)])
    def test_readme_tables_merge_symmetric_ties(self, grid, block_len, classes):
        qm = readme_table(grid, block_len)
        pmf0, pmf1, lr = qm.flat()
        assert qm.class_lr.size == classes < lr.size
        # every cell lies within the tolerance of its class's log-ratio, and
        # the class masses are the sums over those cells
        tol = s.CLASS_RTOL * np.abs(lr).max()
        nearest = np.abs(lr[:, None] - qm.class_lr[None, :]).argmin(axis=1)
        assert np.all(np.abs(lr - qm.class_lr[nearest]) <= tol)
        for cls, cell in ((qm.class_h0, pmf0), (qm.class_h1, pmf1)):
            assert np.allclose(cls, np.bincount(nearest, weights=cell), rtol=0, atol=1e-12)
            assert abs(cls.sum() - cell.sum()) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dsbs_class_law_equals_cell_law(self, n):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        assert qm.class_lr.size == 2
        self.assert_same_law(qm, n)

    def test_tied_lloyd_table_class_law_equals_cell_law(self):
        # symmetric Gaussian grid, 2 levels: cell (c, y) ties with (1-c, 7-y)
        p = d.discretized_gaussian(0.5, 8, 8)
        scalar = s.lloyd_max(np.array([float(v) for v in p.x_labels]), p.x_marginal, 2)
        qm = s.quantized_model(p, scalar)
        assert qm.class_lr.size == 8 < qm.h0.size
        for n in (1, 2, 3):
            self.assert_same_law(qm, n)

    @staticmethod
    def assert_same_law(qm, n):
        cells = oracles.statistic_atoms(*qm.flat(), n, n)
        classes = oracles.statistic_atoms(qm.class_h0, qm.class_h1, qm.class_lr, n, n)
        tol = 1e-12 * max(1.0, np.abs(qm.class_lr).max())
        for side in (1, 2):
            want_v, want_m = merged_atoms(cells[0], cells[side], tol)
            got_v, got_m = merged_atoms(classes[0], classes[side], tol)
            assert np.allclose(got_v, want_v, rtol=0, atol=tol)
            assert np.allclose(got_m, want_m, rtol=0, atol=1e-12)


def readme_table(grid, block_len):
    return s.quantized_model(*readme_model(grid, block_len))


def synthetic_classes(classes):
    rng = np.random.default_rng(classes)
    return rng.dirichlet(np.ones(classes)), rng.normal(size=classes)


class TestBlockedSampling:
    @pytest.fixture
    def draw_sizes(self, monkeypatch):
        """The size of every multinomial draw from a stream, in order."""
        sizes = []
        real_stream = rngstreams.stream

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, k, pmf, size):
                sizes.append(size)
                return self.rng.multinomial(k, pmf, size=size)

        monkeypatch.setattr(rngstreams, "stream", lambda *ids: Recording(real_stream(*ids)))
        return sizes

    @staticmethod
    def one_shot(pmf, lr, k, n, seed, purpose, span):
        idx, count = span
        return row_sums(rngstreams.stream(seed, purpose, idx).multinomial(k, pmf, size=count),
                        lr, n)

    @pytest.mark.parametrize("case, span, blocks", [
        ("readme_64", (0, 3000), [1024, 1024, 952]),
        ("readme_528", (1, rngstreams.CHUNK_TRIALS), [124] * 132 + [16]),
        ("synthetic_16384", (2, 64), [4] * 16),
        ("synthetic_100", (3, 3001), [655] * 4 + [381]),
        ("readme_64", (4, 2049), [1024, 1024, 1]),
        ("synthetic_2080", (5, 57), [31, 26]),
        ("synthetic_16384", (6, 9), [4, 4, 1]),
        ("synthetic_16384", (7, 1), [1]),
        ("synthetic_2", (8, rngstreams.CHUNK_TRIALS), [rngstreams.CHUNK_TRIALS]),
    ])
    def test_blocks_match_one_shot_draw(self, case, span, blocks, draw_sizes):
        kind, classes = case.split("_")
        if kind == "readme":
            qm = readme_table(32, 1) if classes == "64" else readme_table(16, 2)
            pmf, lr = qm.class_h0, qm.class_lr
        else:
            pmf, lr = synthetic_classes(int(classes))
        assert lr.size == int(classes)
        k, n = 50, 100
        want = self.one_shot(pmf, lr, k, n, 11, rngstreams.PURPOSE_H0, span)
        draw_sizes.clear()
        got = s._chunk_stats(pmf, lr, k, n, 11, rngstreams.PURPOSE_H0, span)
        assert got.tobytes() == want.tobytes()
        assert draw_sizes == blocks
        rows, nbytes = s.count_block(lr.size)
        assert rows == min(rngstreams.CHUNK_TRIALS,
                           s.COUNT_BLOCK_BYTES // (8 * lr.size)) >= blocks[-1]
        assert blocks[:-1] == [rows] * (len(blocks) - 1)
        assert nbytes == rows * lr.size * 8 <= s.COUNT_BLOCK_BYTES

    def test_one_row_per_draw_when_one_does_not_fit(self, draw_sizes):
        pmf, lr = synthetic_classes(s.COUNT_BLOCK_BYTES // 8 + 1)
        assert s.count_block(lr.size) == (1, lr.size * 8)
        s._chunk_stats(pmf, lr, 5, 5, 0, rngstreams.PURPOSE_H0, (0, 3))
        assert draw_sizes == [1, 1, 1]

    def test_every_draw_fits_the_block_budget(self, draw_sizes):
        qm = readme_table(16, 2)
        rows, nbytes = s.count_block(qm.class_lr.size)
        s.calibrate_threshold(qm, 50, 0.1, rngstreams.CHUNK_TRIALS + 300, seed=4, workers=2)
        s.estimate_errors(qm, 50, 0.0, 2000, seed=4)
        assert sum(draw_sizes) == rngstreams.CHUNK_TRIALS + 300 + 2 * 2000
        assert max(draw_sizes) == rows and nbytes <= s.COUNT_BLOCK_BYTES

    def test_blas_thread_count_moves_no_bit(self):
        # a 2-thread matrix-vector product over a whole 8,230-row chunk
        # moved bits; a row sum reduces each row on its own
        script = ("import hashlib, numpy as np; from disthyp import simulate as s; "
                  "rng = np.random.default_rng(3); pmf = rng.dirichlet(np.ones(64)); "
                  "lr = rng.normal(size=64); "
                  "print(hashlib.sha256(s._chunk_stats(pmf, lr, 30, 60, 5, 2, (0, 8230))"
                  ".tobytes()).hexdigest())")
        src_dir = str(Path(s.__file__).resolve().parents[1])
        digests = {subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True,
                                  env={**os.environ, "PYTHONPATH": src_dir,
                                       "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")}
        assert len(digests) == 1

    def test_estimate_counts_errors_chunk_by_chunk(self):
        qm = readme_table(32, 1)
        n, t, trials = 100, 0.04, 2 * rngstreams.CHUNK_TRIALS + 500
        got = s.estimate_errors(qm, n, t, trials, seed=21, workers=2)
        s0 = sample_stats(qm.class_h0, qm.class_lr, n, n, trials, 21, rngstreams.PURPOSE_H0)
        s1 = sample_stats(qm.class_h1, qm.class_lr, n, n, trials, 21, rngstreams.PURPOSE_H1)
        k1, k2 = int((s0 <= t).sum()), int((s1 > t).sum())
        assert 0 < k1 < trials and 0 < k2 < trials
        assert got == s.SimResult(k1 / trials, k2 / trials, s.wilson_interval(k1, trials),
                                  s.wilson_interval(k2, trials))


class TestCalibration:
    def test_two_atom_quantile_lands_on_lower_atom(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        cal = s.calibrate_threshold(qm, 1, 0.25, 200_000, seed=42)
        assert not cal.saturated
        assert cal.t == pytest.approx(math.log(0.1) - math.log(0.25), abs=1e-12)
        res = s.estimate_errors(qm, 1, cal.t, 100_000, seed=42)
        lo1, hi1 = res.type1_ci
        lo2, hi2 = res.type2_ci
        assert lo1 <= 0.2 <= hi1
        assert lo2 <= 0.5 <= hi2

    def test_threshold_monotone_in_eps(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        ts = [s.calibrate_threshold(qm, 8, eps, 50_000, seed=1).t
              for eps in (0.05, 0.15, 0.35, 0.6)]
        assert all(a <= bb for a, bb in zip(ts, ts[1:]))

    def test_saturation_at_tiny_eps(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        with pytest.warns(UserWarning, match="small for eps"):
            cal = s.calibrate_threshold(qm, 4, 1e-9, 1000, seed=0)
        assert cal.saturated
        res = s.estimate_errors(qm, 4, cal.t, 20_000, seed=0)
        assert res.type1_hat == 0.0
        assert res.type2_hat == 1.0

    @pytest.mark.parametrize("eps", [0.13, 0.25, 0.5])
    @pytest.mark.parametrize("n", [1, 6])
    def test_threshold_is_largest_admissible_value(self, n, eps):
        # same seed and purpose reproduce the calibration sample exactly,
        # so the empirical constraint can be checked directly; the DSBS
        # statistic has n + 1 atoms, so the sample is full of ties
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        m = 30_000
        cal = s.calibrate_threshold(qm, n, eps, m, seed=77)
        stats = np.concatenate([
            row_sums(rngstreams.stream(77, rngstreams.PURPOSE_CALIBRATE, idx).multinomial(
                n, qm.class_h0, size=cnt), qm.class_lr, n)
            for idx, cnt in rngstreams.chunk_spans(m)])
        allowed = math.floor(eps * m)
        assert (stats <= cal.t).sum() <= allowed
        # t is the largest admissible value: the next one overshoots
        if cal.saturated:
            assert cal.t == np.nextafter(stats.min(), -np.inf)
        else:
            assert cal.t in stats
        above = stats[stats > cal.t]
        assert above.size and (stats <= above.min()).sum() > allowed

    def test_one_float_per_statistic_atom(self):
        # the DSBS statistic has n + 1 atoms; each must come out as one float
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        n = 6
        stats = s._chunk_stats(qm.class_h0, qm.class_lr, n, n, 77,
                               rngstreams.PURPOSE_CALIBRATE, (0, rngstreams.CHUNK_TRIALS))
        assert np.unique(stats).size == n + 1

    def test_sample_is_held_once(self):
        # 30 chunks of the 2-class DSBS statistic at 2 workers: 8 bytes per
        # trial, plus per worker one count block, its weighted copy and a
        # chunk of S.  Concatenating per-chunk arrays would hold it twice.
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        trials, workers = 30 * rngstreams.CHUNK_TRIALS, 2
        block = rngstreams.CHUNK_TRIALS * qm.class_lr.size * 8
        tracemalloc.start()
        try:
            s.calibrate_threshold(qm, 8, 0.1, trials, seed=3, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * trials + workers * (2 * block + 8 * rngstreams.CHUNK_TRIALS)

    def test_multiple_of_block_length_enforced(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2).blockwise(2))
        with pytest.raises(s.SimulationError, match="multiple"):
            s.calibrate_threshold(qm, 5, 0.1, 100, seed=0)
        with pytest.raises(s.SimulationError, match="multiple"):
            s.estimate_errors(qm, 5, 0.0, 100, seed=0)

    def test_input_validation(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        with pytest.raises(s.SimulationError):
            s.calibrate_threshold(qm, 4, 0.0, 100, seed=0)
        with pytest.raises(s.SimulationError):
            s.calibrate_threshold(qm, 4, 1.0, 100, seed=0)
        with pytest.raises(s.SimulationError):
            s.calibrate_threshold(qm, 4, 0.1, 0, seed=0)
        for n in (0, -2):
            with pytest.raises(s.SimulationError, match="positive"):
                s.calibrate_threshold(qm, n, 0.1, 1000, seed=0)
        with pytest.raises(s.SimulationError):
            s.estimate_errors(qm, 4, 0.0, 0, seed=0)
        with pytest.raises(s.SimulationError, match="NaN"):
            s.estimate_errors(qm, 4, math.nan, 100, seed=0)

    def test_trial_counts_over_the_cap(self, monkeypatch):
        # refused before the calibration sample or any chunk exists
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        monkeypatch.setattr(s, "_map_chunks", None)
        monkeypatch.setattr(s.np, "empty", None)
        with pytest.raises(s.SimulationError, match=str(s.MAX_TRIALS)):
            s.calibrate_threshold(qm, 4, 0.1, s.MAX_TRIALS + 1, seed=0)
        with pytest.raises(s.SimulationError, match=str(s.MAX_TRIALS)):
            s.estimate_errors(qm, 4, 0.0, s.MAX_TRIALS + 1, seed=0)


class TestEstimateErrors:
    def test_exact_law_within_confidence_band(self):
        p = sym_model()
        qm = s.quantized_model(p, s.Encoder.identity(2))
        pmf0, pmf1, lr = qm.flat()
        for n, eps in ((2, 0.2), (3, 0.1)):
            values, p0, p1 = oracles.statistic_atoms(pmf0, pmf1, lr, n, n)
            t = oracles.exact_threshold(values, p0, eps)
            exact1, exact2 = oracles.exact_error_probs(values, p0, p1, t)
            trials = 100_000
            res = s.estimate_errors(qm, n, t, trials, seed=2024)
            lo1, hi1 = s.wilson_interval(round(res.type1_hat * trials),
                                         trials, z=s.WILSON_Z99)
            lo2, hi2 = s.wilson_interval(round(res.type2_hat * trials),
                                         trials, z=s.WILSON_Z99)
            assert lo1 <= exact1 <= hi1
            assert lo2 <= exact2 <= hi2

    def test_degenerate_thresholds(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        always = s.estimate_errors(qm, 4, -math.inf, 1000, seed=0)
        assert always.type1_hat == 0.0 and always.type2_hat == 1.0
        never = s.estimate_errors(qm, 4, math.inf, 1000, seed=0)
        assert never.type1_hat == 1.0 and never.type2_hat == 0.0

    def test_seed_determinism_and_worker_invariance(self):
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        base = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=1)
        again = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=1)
        threaded = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=4)
        assert base == again == threaded
        other = s.estimate_errors(qm, 8, 0.0, 40_000, seed=6)
        assert other.type2_hat != base.type2_hat

    @pytest.mark.parametrize("chunks,most", [(5, 3), (1, 1)])
    def test_threads_bounded_by_cpus_and_chunks(self, monkeypatch, chunks, most):
        # with 3 CPUs, 5 chunks share at most 3 threads and 1 chunk uses one
        qm = s.quantized_model(sym_model(), s.Encoder.identity(2))
        monkeypatch.setattr(s, "_sampling_threads", lambda: 3)
        seen = {}
        chunk_stats = s._chunk_stats

        def traced(*args):
            seen.setdefault(args[5], set()).add(threading.get_ident())
            return chunk_stats(*args)

        monkeypatch.setattr(s, "_chunk_stats", traced)
        trials = (chunks - 1) * rngstreams.CHUNK_TRIALS + 1
        s.estimate_errors(qm, 4, 0.0, trials, seed=0)
        assert set(seen) == {rngstreams.PURPOSE_H0, rngstreams.PURPOSE_H1}
        assert all(1 <= len(ids) <= most for ids in seen.values())


class TestWilson:
    def test_closed_form(self):
        k, m, z = 710, 1000, s.WILSON_Z95
        phat = k / m
        denom = 1 + z * z / m
        center = (phat + z * z / (2 * m)) / denom
        half = z * math.sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
        lo, hi = s.wilson_interval(k, m)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)
        assert lo <= phat <= hi

    def test_rule_of_three_at_extremes(self):
        assert s.wilson_interval(0, 1000) == (0.0, 0.003)
        assert s.wilson_interval(1000, 1000) == (0.997, 1.0)
        assert s.wilson_interval(0, 2) == (0.0, 1.0)

    def test_z_constants_are_normal_quantiles(self):
        assert s.WILSON_Z95 == pytest.approx(NormalDist().inv_cdf(0.975), abs=1e-15)
        assert s.WILSON_Z99 == pytest.approx(NormalDist().inv_cdf(0.995), abs=1e-15)

    def test_nesting_in_z(self):
        lo95, hi95 = s.wilson_interval(37, 500)
        lo99, hi99 = s.wilson_interval(37, 500, z=s.WILSON_Z99)
        assert lo99 < lo95 < hi95 < hi99

    def test_validation(self):
        with pytest.raises(s.SimulationError):
            s.wilson_interval(5, 0)
        with pytest.raises(s.SimulationError):
            s.wilson_interval(-1, 10)
        with pytest.raises(s.SimulationError):
            s.wilson_interval(11, 10)


class TestCentralizedSecondOrder:
    def test_direct_formula(self):
        p = sym_model()
        stats = d.divergence_stats(p)
        eps, n = 0.1, 400
        want = (stats.mi + math.sqrt(stats.var_div / n) * NormalDist().inv_cdf(eps)
                + math.log(n) / (2 * n))
        assert s.centralized_second_order(p, eps, n) == pytest.approx(want, rel=1e-14)

    def test_upper_tail_quantile(self):
        # recover the normal quantile z from the returned value; its upper
        # tail must give back 1 - eps (exact in floats, unlike q).  abs=0:
        # pytest's default abs=1e-12 would hide the error at these q
        p = sym_model()
        stats = d.divergence_stats(p)
        n = 400
        for q in (1e-6, 1e-10, 1e-13):
            eps = 1.0 - q
            value = s.centralized_second_order(p, eps, n)
            z = (value - stats.mi - math.log(n) / (2 * n)) / math.sqrt(stats.var_div / n)
            assert 0.5 * math.erfc(z / math.sqrt(2)) == pytest.approx(
                1.0 - eps, rel=1e-11, abs=0)

    def test_approaches_first_order(self):
        p = sym_model()
        mi = d.divergence_stats(p).mi
        gaps = [abs(s.centralized_second_order(p, 0.2, n) - mi)
                for n in (100, 10_000, 1_000_000)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_domain(self):
        p = sym_model()
        with pytest.raises(s.SimulationError):
            s.centralized_second_order(p, 0.0, 10)
        with pytest.raises(s.SimulationError):
            s.centralized_second_order(p, 0.1, 0)
