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


def identity(nx):
    return s.Encoder(d.TestChannel.identity(nx, nx))


def codes(enc):
    """The code map x -> u of an encoder whose channel rows are one-hot."""
    w = enc.channel.cond_probs
    assert np.all((w == 0.0) | (w == 1.0))
    return w.argmax(axis=1)


def encoder_mse(enc, pts, wts):
    total = 0.0
    table = codes(enc)
    for j in np.unique(table):
        m = table == j
        mu = np.average(pts[m], weights=wts[m])
        total += float((wts[m] * (pts[m] - mu) ** 2).sum())
    return total


class TestEncoder:
    def test_identity(self):
        # one code per x: the table keeps the model's 3 rows
        enc = identity(3)
        assert enc.block_len == 1
        p = d.JointPmf.from_probs([[0.2, 0.1], [0.1, 0.2], [0.3, 0.1]])
        assert s.quantized_model(p, enc).h0.tobytes() == p.probs.tobytes()

    def test_codes_must_fit_codebook(self):
        # the channel checks its rows; the encoder checks its block length
        with pytest.raises(d.SolverError, match="sums to"):
            s.Encoder(d.TestChannel([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(d.SolverError, match="nonnegative"):
            s.Encoder(d.TestChannel([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(d.SolverError, match="2-d"):
            s.Encoder(d.TestChannel([1.0, 1.0]))
        with pytest.raises(s.SimulationError, match="block_len"):
            s.Encoder(d.TestChannel.identity(2, 2), block_len=0)

    def test_blockwise_keeps_the_scalar_map(self):
        scalar = oracles.code_map([0, 2, 2])
        blk = scalar.blockwise(2)
        assert blk.channel is scalar.channel
        assert (blk.block_len, scalar.block_len) == (2, 1)

    def test_blockwise_needs_scalar_base(self):
        blk = identity(2).blockwise(2)
        with pytest.raises(s.SimulationError):
            blk.blockwise(2)

    def test_random_map_reproducible(self):
        a = oracles.random_map(4, 2, 3, np.random.default_rng(5))
        bb = oracles.random_map(4, 2, 3, np.random.default_rng(5))
        assert np.array_equal(a.channel.cond_probs, bb.channel.cond_probs)
        assert a.block_len == 2 and a.channel.nu <= 3
        assert codes(a).max() < 3


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
                assert np.unique(codes(enc)).size == enc.channel.nu == levels

    def test_cells_are_contiguous(self):
        rng = np.random.default_rng(11)
        pts = np.sort(rng.normal(size=30))
        enc = s.lloyd_max(pts, np.full(30, 1 / 30), 6)
        assert np.all(np.diff(codes(enc)) >= 0)
        assert np.unique(codes(enc)).size == enc.channel.nu == 6

    def test_symmetric_tie_is_deterministic(self):
        # both two-cell splits of this symmetric grid have equal cost; the
        # implementation must pick one reproducibly (middle point goes left)
        enc = s.lloyd_max(np.array([-1.0, 0.0, 1.0]), np.array([0.4, 0.2, 0.4]), 2)
        assert np.array_equal(codes(enc), [0, 0, 1])

    def test_levels_at_least_points_collapses_to_identity(self):
        pts = np.array([0.0, 1.0, 2.0])
        w = np.full(3, 1 / 3)
        for levels in (3, 7):
            enc = s.lloyd_max(pts, w, levels)
            assert enc.channel.cond_probs.tobytes() == np.eye(3).tobytes()

    def test_single_level(self):
        enc = s.lloyd_max(np.array([0.0, 1.0, 5.0]), np.array([0.2, 0.3, 0.5]), 1)
        assert enc.channel.cond_probs.tobytes() == np.ones((3, 1)).tobytes()

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
        # the DSBS cells tie in two classes, ln(0.4/0.25) on the diagonal
        p = sym_model()
        qm = s.quantized_model(p, identity(2))
        assert np.array_equal(qm.h0, p.probs)
        assert np.allclose(qm.class_h0, [0.8, 0.2], rtol=0, atol=1e-15)
        assert np.allclose(qm.class_h1, [0.5, 0.5], rtol=0, atol=1e-15)
        assert np.allclose(qm.class_lr, np.log([1.6, 0.4]), rtol=0, atol=1e-15)
        assert qm.block_len == 1

    def test_alternative_is_product_of_null_marginals(self):
        rng = np.random.default_rng(3)
        mat = np.maximum(rng.dirichlet(np.ones(12)), 1e-4).reshape(3, 4)
        p = d.JointPmf.from_probs(mat / mat.sum())
        for l in (1, 2, 3):
            enc = oracles.random_map(3, l, 3, rng)
            qm = s.quantized_model(p, enc)
            # with Q the product of the null table's marginals, the mean
            # log-ratio is I(U;Y) under P and minus D(Q || P) under Q
            outer = np.outer(qm.h0.sum(axis=1), qm.h0.sum(axis=0))
            lautum = float((outer * (np.log(outer) - np.log(qm.h0))).sum())
            assert float(qm.class_h0 @ qm.class_lr) == pytest.approx(
                oracles.table_mutual_information(qm.h0), rel=0, abs=1e-12)
            assert float(qm.class_h1 @ qm.class_lr) == pytest.approx(-lautum, rel=0, abs=1e-12)
            assert qm.h0.sum() == pytest.approx(1.0, abs=1e-12)
            assert qm.class_h1.sum() == pytest.approx(1.0, abs=1e-12)

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
        qm = s.quantized_model(p, identity(2))
        assert oracles.table_mutual_information(qm.h0) == pytest.approx(
            d.mutual_information(p), abs=1e-12)

    def test_constant_encoder_kills_information(self):
        p = sym_model()
        enc = oracles.code_map([0, 0])
        qm = s.quantized_model(p, enc)
        assert qm.h0.shape[0] == 1
        assert oracles.table_mutual_information(qm.h0) == pytest.approx(0.0, abs=1e-12)

    def test_unused_codes_dropped(self):
        p = d.JointPmf.from_probs([[0.2, 0.1], [0.1, 0.2], [0.3, 0.1]])
        qm = s.quantized_model(p, oracles.code_map([0, 2, 2]))
        assert qm.h0.shape[0] == 2
        qm = s.quantized_model(p, oracles.code_map([0, 2, 2]).blockwise(2))
        assert qm.h0.shape == (4, 4)

    @pytest.mark.parametrize("block_len", [1, 2, 3])
    def test_matches_x_block_enumeration(self, block_len):
        rng = np.random.default_rng(block_len)
        p = d.JointPmf.from_probs(rng.dirichlet(np.ones(12)).reshape(3, 4))
        # code 1 of the last map is never used
        encoders = [oracles.code_map(table, block_len)
                    for table in ([0, 1, 2], [0, 1, 0], [2, 0, 2])]
        if block_len <= 2:
            # the solver's witness: a dense 3 x 4 channel, every cell above
            # 0.01, so no row is one-hot
            witness = d.exponent_at_rate(p, 0.05)[1].channel
            assert np.all(witness.cond_probs > 0.01)
            encoders.append(s.Encoder(witness, block_len))
        for enc in encoders:
            self.assert_matches_enumeration(p, enc)

    @pytest.mark.parametrize("grid, block_len, classes",
                             [(32, 1, 64), (16, 1, 32), (16, 2, 528)])
    def test_readme_tables_match_x_block_enumeration(self, grid, block_len, classes):
        qm = self.assert_matches_enumeration(*readme_model(grid, block_len))
        assert qm.class_lr.size == classes

    @staticmethod
    def assert_matches_enumeration(p, enc):
        """Same null table and same log-ratio classes as summing every
        (x-block, code-block) pair: bit for bit at block length 1, within
        1e-15 per cell above it."""
        qm = s.quantized_model(p, enc)
        want0, _ = oracles.block_tables(p, enc)
        want = s._merge_tied_cells(*oracles.cell_law(p, enc))
        got = (qm.class_h0, qm.class_h1, qm.class_lr)
        if enc.block_len == 1:
            assert qm.h0.tobytes() == want0.tobytes()
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert qm.h0.shape == want0.shape
        assert np.allclose(qm.h0, want0, rtol=0, atol=1e-15)
        assert qm.class_lr.size == want[2].size
        assert np.allclose(qm.class_lr, want[2], rtol=0, atol=1e-13)
        for cls, want_cls in zip(got[:2], want[:2]):
            assert np.allclose(cls, want_cls, rtol=0, atol=1e-15)
        return qm

    def test_block_length_cap(self):
        with pytest.raises(s.SimulationError, match="cap"):
            s.quantized_model(sym_model(), identity(2).blockwise(4))

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
            s.quantized_model(sym_model(), identity(3))


class TestWitnessScheme:
    """The solver's witness channel runs as a scheme with no other code:
    its table's exponent KL(H0 || H1) = I(U;Y) is the witness's relevance,
    and calibration and evaluation sample it like any table."""

    @pytest.mark.parametrize("model, rate", [("dsbs", 0.3), ("readme", 0.17329)])
    def test_table_exponent_is_witness_relevance(self, model, rate):
        p = sym_model() if model == "dsbs" else d.calibrate_correlation(0.08, 32, 32)[1]
        sol = d.exponent_at_rate(p, rate)[1]
        qm = s.quantized_model(p, s.Encoder(sol.channel))
        assert qm.h0.shape == (sol.channel.nu, p.ny)
        kl = float((qm.class_h0 * qm.class_lr).sum())
        assert kl == pytest.approx(sol.relevance, rel=0, abs=1e-12)
        assert oracles.table_mutual_information(qm.h0) == pytest.approx(
            sol.relevance, rel=0, abs=1e-12)
        n, eps, trials = 50, 0.1, 4000
        cal = s.calibrate_threshold(qm, n, eps, trials, seed=5)
        res = s.estimate_errors(qm, n, cal.t, trials, seed=5)
        # calibration and evaluation draw disjoint samples
        sigma = math.sqrt(eps * (1.0 - eps) * 2.0 / trials)
        assert not cal.saturated and res.type1_hat <= eps + 4.0 * sigma
        assert 0.0 < res.type2_hat < 1.0 - eps
        assert res.type2_ci[0] <= res.type2_hat <= res.type2_ci[1]


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
        for enc in (identity(3), oracles.code_map([0, 1, 0])):
            qm = s.quantized_model(p, enc)
            pmf0, pmf1, lr = oracles.cell_law(p, enc)
            assert np.unique(lr).size == lr.size
            # one class per cell, stored heavy first: by descending null
            # mass, tied masses in cell order
            heavy = sorted(range(lr.size), key=lambda cell: (-pmf0[cell], cell))
            assert heavy != sorted(heavy)
            pmf0, pmf1, lr = pmf0[heavy], pmf1[heavy], lr[heavy]
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

    def test_one_code_table_is_one_class(self):
        # every ln(P/Q) is 0 up to rounding, 2.2e-16 in one cell here: a gap
        # relative to max|lr| alone would split them into two classes
        rng = np.random.default_rng(3)
        mat = np.maximum(rng.dirichlet(np.ones(12)), 1e-4).reshape(3, 4)
        p = d.JointPmf.from_probs(mat / mat.sum())
        qm = s.quantized_model(p, oracles.code_map([0, 0, 0]))
        assert np.abs(oracles.cell_law(p, oracles.code_map([0, 0, 0]))[2]).max() > 0
        assert qm.class_lr.tolist() == [0.0]
        assert qm.class_h0 == pytest.approx([1.0]) and qm.class_h1 == pytest.approx([1.0])

    @pytest.mark.parametrize("grid, block_len, classes",
                             [(32, 1, 64), (16, 2, 528)])
    def test_readme_tables_merge_symmetric_ties(self, grid, block_len, classes):
        p, enc = readme_model(grid, block_len)
        qm = s.quantized_model(p, enc)
        pmf0, pmf1, lr = oracles.cell_law(p, enc)
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
        qm = s.quantized_model(sym_model(), identity(2))
        assert qm.class_lr.size == 2
        self.assert_same_law(qm, oracles.cell_law(sym_model(), identity(2)), n)

    def test_tied_lloyd_table_class_law_equals_cell_law(self):
        # symmetric Gaussian grid, 2 levels: cell (c, y) ties with (1-c, 7-y)
        p = d.discretized_gaussian(0.5, 8, 8)
        scalar = s.lloyd_max(np.array([float(v) for v in p.x_labels]), p.x_marginal, 2)
        qm = s.quantized_model(p, scalar)
        assert qm.class_lr.size == 8 < qm.h0.size
        for n in (1, 2, 3):
            self.assert_same_law(qm, oracles.cell_law(p, scalar), n)

    @staticmethod
    def assert_same_law(qm, cell_law, n):
        cells = oracles.statistic_atoms(*cell_law, n, n)
        classes = oracles.statistic_atoms(qm.class_h0, qm.class_h1, qm.class_lr, n, n)
        tol = 1e-12 * max(1.0, np.abs(qm.class_lr).max())
        for side in (1, 2):
            want_v, want_m = merged_atoms(cells[0], cells[side], tol)
            got_v, got_m = merged_atoms(classes[0], classes[side], tol)
            assert np.allclose(got_v, want_v, rtol=0, atol=tol)
            assert np.allclose(got_m, want_m, rtol=0, atol=1e-12)


@pytest.mark.parametrize("total", [0, 1, rngstreams.CHUNK_TRIALS,
                                   rngstreams.CHUNK_TRIALS + 1, s.MAX_TRIALS])
def test_chunk_spans_cover_the_total(total):
    spans = rngstreams.chunk_spans(total)
    indices = [idx for idx, _ in spans]
    sizes = [size for _, size in spans]
    assert indices == list(range(len(spans)))
    assert all(size == rngstreams.CHUNK_TRIALS for size in sizes[:-1])
    assert all(0 < size <= rngstreams.CHUNK_TRIALS for size in sizes[-1:])
    assert sum(sizes) == total


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
        ("readme_64", (0, 3000), [256] * 11 + [184]),
        ("readme_528", (1, rngstreams.CHUNK_TRIALS), [31] * 528 + [16]),
        ("synthetic_16384", (2, 64), [1] * 64),
        ("synthetic_100", (3, 3001), [163] * 18 + [67]),
        ("readme_64", (4, 2049), [256] * 8 + [1]),
        ("synthetic_2080", (5, 57), [7] * 8 + [1]),
        ("synthetic_16384", (6, 9), [1] * 9),
        ("synthetic_16384", (7, 1), [1]),
        ("synthetic_2", (8, rngstreams.CHUNK_TRIALS), [8192, 8192]),
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
        assert rows == s.COUNT_BLOCK_BYTES // (8 * lr.size) >= blocks[-1]
        assert blocks[:-1] == [rows] * (len(blocks) - 1)
        assert nbytes == rows * lr.size * 8 <= s.COUNT_BLOCK_BYTES

    def test_a_block_fits_in_one_chunk(self):
        # count_block does not cap its rows at a chunk: a one-class block,
        # the largest, must still hold no more rows than a chunk has trials
        assert s.COUNT_BLOCK_BYTES // 8 <= rngstreams.CHUNK_TRIALS
        assert s.count_block(1)[0] <= rngstreams.CHUNK_TRIALS

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
        # calibration's sample, then the one evaluation stream
        assert sum(draw_sizes) == rngstreams.CHUNK_TRIALS + 300 + 2000
        assert max(draw_sizes) == rows and nbytes <= s.COUNT_BLOCK_BYTES

    def test_streams_draw_heavy_classes_first(self, monkeypatch):
        # the classes are stored by descending null mass, tied masses in the
        # order of their first cell (cell 0 before cell 4, though its
        # log-ratio is larger); all three streams draw them as stored, so
        # the alternative's stream keeps the null's order
        h0, h1 = np.array([0.1, 0.3, 0.2, 0.3, 0.1]), np.array([0.2, 0.2, 0.2, 0.1, 0.3])
        lr = np.log(h0) - np.log(h1)
        qm = s.QuantizedModel(h0.reshape(1, 5), 1, *s._merge_tied_cells(h0, h1, lr))
        order = [1, 3, 2, 0, 4]
        for cls, cell in ((qm.class_h0, h0), (qm.class_h1, h1), (qm.class_lr, lr)):
            assert cls.tobytes() == cell[order].tobytes()
        drawn = {}
        chunk_stats = s._chunk_stats

        def recorded(pmf, lr, *args):
            drawn[args[3]] = pmf, lr
            return chunk_stats(pmf, lr, *args)

        monkeypatch.setattr(s, "_chunk_stats", recorded)
        s.calibrate_threshold(qm, 4, 0.1, 2000, seed=0)
        assert s.estimate_errors(qm, 4, 0.5, 100, seed=0).evaluation_stream == "h0"
        assert s.estimate_errors(qm, 4, -0.5, 100, seed=0).evaluation_stream == "h1"
        assert drawn.keys() == {rngstreams.PURPOSE_CALIBRATE, rngstreams.PURPOSE_H0,
                                rngstreams.PURPOSE_H1}
        for purpose, stored in ((rngstreams.PURPOSE_CALIBRATE, qm.class_h0),
                                (rngstreams.PURPOSE_H0, qm.class_h0),
                                (rngstreams.PURPOSE_H1, qm.class_h1)):
            assert drawn[purpose][0] is stored and drawn[purpose][1] is qm.class_lr

    def test_class_arrays_are_stored_heavy_first(self):
        # the README table's classes come by descending null mass, tied
        # masses in the order of their first cell, each with its first
        # cell's log-ratio; that is not cell order on this table
        qm = readme_table(32, 1)
        _, _, cell_lr = oracles.cell_law(*readme_model(32, 1))
        tol = s.CLASS_RTOL * np.abs(cell_lr).max()
        first = [int(np.flatnonzero(np.abs(cell_lr - v) <= tol)[0]) for v in qm.class_lr]
        assert len(set(first)) == len(first) and first != sorted(first)
        assert qm.class_lr.tobytes() == cell_lr[first].tobytes()
        keys = list(zip(-qm.class_h0, first))
        assert keys == sorted(keys)

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
        self.check_estimate(0.04, "h0")

    def test_estimate_weighs_type1_below_zero(self):
        self.check_estimate(-0.05, "h1")

    @staticmethod
    def check_estimate(t, stream):
        """The drawn stream's own error is a count; the other error is the
        mean of its likelihood-ratio weights, recomputed here in one sum."""
        qm = readme_table(32, 1)
        n, trials = 100, 2 * rngstreams.CHUNK_TRIALS + 500
        got = s.estimate_errors(qm, n, t, trials, seed=21, workers=2)
        null = stream == "h0"
        pmf, purpose = ((qm.class_h0, rngstreams.PURPOSE_H0) if null
                        else (qm.class_h1, rngstreams.PURPOSE_H1))
        stats = sample_stats(pmf, qm.class_lr, n, n, trials, 21, purpose)
        counted = stats <= t if null else stats > t
        k = int(counted.sum())
        # dP1/dP0 = e^{-nS} weighs the null's trials, dP0/dP1 = e^{nS} the alternative's
        sign = -n if null else n
        weights = np.exp(sign * stats[~counted])
        assert 0 < k < trials and weights.size > 0
        count_hat, count_ci, weight_hat, weight_ci = (
            (got.type1_hat, got.type1_ci, got.type2_hat, got.type2_ci) if null
            else (got.type2_hat, got.type2_ci, got.type1_hat, got.type1_ci))
        assert got.evaluation_stream == stream
        assert count_hat == k / trials and count_ci == s.wilson_interval(k, trials)
        assert weight_hat == pytest.approx(math.fsum(weights) / trials, rel=1e-12)
        u = np.exp(sign * (stats[~counted] - t))
        lo, hi = s.empirical_bernstein_interval(math.fsum(u), math.fsum(u * u), trials)
        scale = math.exp(sign * t)
        assert weight_ci == pytest.approx((scale * lo, scale * hi), rel=1e-9)
        assert weight_ci[0] < weight_hat < weight_ci[1]


class TestCalibration:
    def test_two_atom_quantile_lands_on_lower_atom(self):
        qm = s.quantized_model(sym_model(), identity(2))
        cal = s.calibrate_threshold(qm, 1, 0.25, 200_000, seed=42)
        assert not cal.saturated
        assert cal.t == pytest.approx(math.log(0.1) - math.log(0.25), abs=1e-12)
        res = s.estimate_errors(qm, 1, cal.t, 100_000, seed=42)
        lo1, hi1 = res.type1_ci
        lo2, hi2 = res.type2_ci
        assert lo1 <= 0.2 <= hi1
        assert lo2 <= 0.5 <= hi2

    def test_threshold_monotone_in_eps(self):
        qm = s.quantized_model(sym_model(), identity(2))
        ts = [s.calibrate_threshold(qm, 8, eps, 50_000, seed=1).t
              for eps in (0.05, 0.15, 0.35, 0.6)]
        assert all(a <= bb for a, bb in zip(ts, ts[1:]))

    def test_saturation_at_tiny_eps(self):
        qm = s.quantized_model(sym_model(), identity(2))
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
        qm = s.quantized_model(sym_model(), identity(2))
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
        qm = s.quantized_model(sym_model(), identity(2))
        n = 6
        stats = s._chunk_stats(qm.class_h0, qm.class_lr, n, n, 77,
                               rngstreams.PURPOSE_CALIBRATE, (0, rngstreams.CHUNK_TRIALS))
        assert np.unique(stats).size == n + 1

    def test_sample_is_held_once(self):
        # calibration at 2 workers holds 8 bytes per trial, plus per worker
        # one count block, its weighted copy and a chunk of S; a count block
        # is 128 KiB on both the 2-class DSBS and the 64-class README table.
        # Concatenating per-chunk arrays would hold the sample twice
        workers = 2
        for qm, chunks in ((s.quantized_model(sym_model(), identity(2)), 30),
                           (readme_table(32, 1), 16)):
            trials = chunks * rngstreams.CHUNK_TRIALS
            block = s.count_block(qm.class_lr.size)[1]
            assert block == 1 << 17
            s.estimate_errors(qm, 8, 0.0, 1, seed=3)  # loads the thread pool's modules
            tracemalloc.start()
            try:
                s.calibrate_threshold(qm, 8, 0.1, trials, seed=3, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 8 * trials + workers * (2 * block + 8 * rngstreams.CHUNK_TRIALS)

    def test_multiple_of_block_length_enforced(self):
        qm = s.quantized_model(sym_model(), identity(2).blockwise(2))
        with pytest.raises(s.SimulationError, match="multiple"):
            s.calibrate_threshold(qm, 5, 0.1, 100, seed=0)
        with pytest.raises(s.SimulationError, match="multiple"):
            s.estimate_errors(qm, 5, 0.0, 100, seed=0)

    def test_blocks_fit_the_multinomial(self, monkeypatch):
        # Generator.multinomial draws at most 2^63 - 1 blocks; one more
        # ended in an OverflowError inside a sampling thread
        most = 2 ** 63 - 1
        assert s.blocks_per_trial(most, 1) == s.blocks_per_trial(2 * most, 2) == most

        def sampled(*_):
            raise AssertionError("a chunk was sampled")
        monkeypatch.setattr(s, "_chunk_stats", sampled)
        for enc, n in ((identity(2), most + 1), (identity(2), 10 ** 20),
                       (identity(2).blockwise(2), 2 * most + 2)):
            qm = s.quantized_model(sym_model(), enc)
            with pytest.raises(s.SimulationError, match=r"2\^63 - 1"):
                s.calibrate_threshold(qm, n, 0.1, 100, seed=0)
            with pytest.raises(s.SimulationError, match=r"2\^63 - 1"):
                s.estimate_errors(qm, n, 0.0, 100, seed=0)

    def test_input_validation(self):
        qm = s.quantized_model(sym_model(), identity(2))
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
        qm = s.quantized_model(sym_model(), identity(2))
        monkeypatch.setattr(s, "_map_chunks", None)
        monkeypatch.setattr(s.np, "empty", None)
        with pytest.raises(s.SimulationError, match=str(s.MAX_TRIALS)):
            s.calibrate_threshold(qm, 4, 0.1, s.MAX_TRIALS + 1, seed=0)
        with pytest.raises(s.SimulationError, match=str(s.MAX_TRIALS)):
            s.estimate_errors(qm, 4, 0.0, s.MAX_TRIALS + 1, seed=0)

    def test_negative_seed(self, monkeypatch):
        # SeedSequence would raise a bare ValueError from a sampling thread;
        # the seed is refused before the calibration sample or any chunk exists
        qm = s.quantized_model(sym_model(), identity(2))
        monkeypatch.setattr(s, "_map_chunks", None)
        monkeypatch.setattr(s.np, "empty", None)
        for t in (0.5, -0.5):
            with pytest.raises(s.SimulationError, match=r"^seed = -1 must be >= 0$"):
                s.estimate_errors(qm, 4, t, 100, seed=-1)
        with pytest.raises(s.SimulationError, match=r"^seed = -1 must be >= 0$"):
            s.calibrate_threshold(qm, 4, 0.1, 2000, seed=-1)


class TestEstimateErrors:
    def test_exact_law_within_confidence_band(self):
        p = sym_model()
        qm = s.quantized_model(p, identity(2))
        pmf0, pmf1, lr = oracles.cell_law(p, identity(2))
        for n, eps in ((2, 0.2), (3, 0.1)):
            values, p0, p1 = oracles.statistic_atoms(pmf0, pmf1, lr, n, n)
            t = oracles.exact_threshold(values, p0, eps)
            exact1, exact2 = oracles.exact_error_probs(values, p0, p1, t)
            trials = 100_000
            res = s.estimate_errors(qm, n, t, trials, seed=2024)
            # index 0 is Type I, 1 Type II; the drawn stream counts its own error
            hats, exact = (res.type1_hat, res.type2_hat), (exact1, exact2)
            counted = 0 if res.evaluation_stream == "h0" else 1
            lo, hi = s.wilson_interval(round(hats[counted] * trials), trials, z=s.WILSON_Z99)
            assert lo <= exact[counted] <= hi
            mean, var, top = oracles.weighted_error_moments(values, p0, p1, n, t)
            assert mean == pytest.approx(exact[1 - counted], rel=1e-12, abs=1e-15)
            radius = oracles.bernstein_radius(var, top, trials, 0.01)
            assert abs(hats[1 - counted] - exact[1 - counted]) <= radius

    def test_degenerate_thresholds(self, monkeypatch):
        # one stream is drawn; no trial lies on the far side of an infinite t,
        # and its scale e^{-n|t|} is 0: the weighted error and its interval are 0
        qm = s.quantized_model(sym_model(), identity(2))
        seen = self.trace_chunks(monkeypatch)
        certain = s.wilson_interval(1000, 1000)
        always = s.estimate_errors(qm, 4, -math.inf, 1000, seed=0)
        assert set(seen) == {rngstreams.PURPOSE_H1} and always.evaluation_stream == "h1"
        assert (always.type1_hat, always.type1_ci) == (0.0, (0.0, 0.0))
        assert (always.type2_hat, always.type2_ci) == (1.0, certain)
        seen.clear()
        never = s.estimate_errors(qm, 4, math.inf, 1000, seed=0)
        assert set(seen) == {rngstreams.PURPOSE_H0} and never.evaluation_stream == "h0"
        assert (never.type1_hat, never.type1_ci) == (1.0, certain)
        assert (never.type2_hat, never.type2_ci) == (0.0, (0.0, 0.0))

    def test_dsbs_type2_far_below_one_over_trials(self):
        # DSBS identity scheme at n = 200: S is fixed by the agreement count K,
        # Bin(n, 0.8) under P and Bin(n, 1/2) under Q.  At the largest cut
        # with exact Type I error <= 0.1, the exact Type II error is ~1e-14,
        # which a plain H1 stream of 20,000 trials reads as 0
        n, eps, trials = 200, 0.1, 20_000
        qm = s.quantized_model(sym_model(), identity(2))
        agree, differ = math.log(0.4 / 0.25), math.log(0.1 / 0.25)
        type1 = [math.fsum(math.comb(n, j) * 0.8 ** j * 0.2 ** (n - j) for j in range(k + 1))
                 for k in range(n + 1)]
        k = max(j for j in range(n + 1) if type1[j] <= eps)
        stat = [(j * agree + (n - j) * differ) / n for j in (k, k + 1)]
        t = 0.5 * (stat[0] + stat[1])  # between the atoms of K = k and K = k + 1
        beta = math.fsum(math.comb(n, j) for j in range(k + 1, n + 1)) / 2 ** n
        assert t > 0 and 1e-15 < beta < 1.0 / trials
        res = s.estimate_errors(qm, n, t, trials, seed=8)
        assert res.evaluation_stream == "h0"
        assert res.type2_hat > 0
        assert res.type2_ci[0] <= beta <= res.type2_ci[1]
        assert res.type1_ci[0] <= type1[k] <= res.type1_ci[1]

    def test_agrees_with_plain_two_stream_estimates(self):
        # 20 seeded configs: the counted error is the plain count bit for bit,
        # and where the plain stream sees enough errors (>= 100) of the
        # weighted one, the two estimators' 95% intervals overlap
        rng = np.random.default_rng(36)
        trials, compared = 20_000, 0
        for k in range(20):
            nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
            probs = np.maximum(rng.dirichlet(np.ones(nx * ny)), 5e-3).reshape(nx, ny)
            qm = s.quantized_model(d.JointPmf.from_probs(probs / probs.sum()), identity(nx))
            n = int(rng.integers(2, 30))
            t = float(rng.uniform(-0.3, 0.3))
            res = s.estimate_errors(qm, n, t, trials, seed=3600 + k)
            plain = oracles.plain_errors(qm, n, t, trials, seed=3600 + k)
            hats, cis = (res.type1_hat, res.type2_hat), (res.type1_ci, res.type2_ci)
            counted = 0 if res.evaluation_stream == "h0" else 1
            assert hats[counted] == plain[counted] / trials
            assert cis[counted] == s.wilson_interval(plain[counted], trials)
            if plain[1 - counted] >= 100:
                compared += 1
                lo, hi = s.wilson_interval(plain[1 - counted], trials)
                assert max(lo, cis[1 - counted][0]) <= min(hi, cis[1 - counted][1])
        assert compared >= 10

    def test_seed_determinism_and_worker_invariance(self):
        qm = s.quantized_model(sym_model(), identity(2))
        base = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=1)
        again = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=1)
        threaded = s.estimate_errors(qm, 8, 0.0, 40_000, seed=5, workers=4)
        assert base == again == threaded
        other = s.estimate_errors(qm, 8, 0.0, 40_000, seed=6)
        assert other.type2_hat != base.type2_hat

    @staticmethod
    def trace_chunks(monkeypatch) -> dict:
        """The threads that sampled chunks, by stream purpose."""
        seen = {}
        chunk_stats = s._chunk_stats

        def traced(*args):
            seen.setdefault(args[5], set()).add(threading.get_ident())
            return chunk_stats(*args)

        monkeypatch.setattr(s, "_chunk_stats", traced)
        return seen

    @pytest.mark.parametrize("chunks, most, t, purpose", [
        (5, 3, 0.0, rngstreams.PURPOSE_H0), (1, 1, 0.0, rngstreams.PURPOSE_H0),
        (5, 3, -0.5, rngstreams.PURPOSE_H1)], ids=["5-3", "1-1", "5-3-below-zero"])
    def test_threads_bounded_by_cpus_and_chunks(self, monkeypatch, chunks, most, t, purpose):
        # with 3 CPUs, 5 chunks share at most 3 threads and 1 chunk uses one;
        # one stream is drawn, the null's for t >= 0 and the alternative's below
        qm = s.quantized_model(sym_model(), identity(2))
        monkeypatch.setattr(s, "_sampling_threads", lambda: 3)
        seen = self.trace_chunks(monkeypatch)
        trials = (chunks - 1) * rngstreams.CHUNK_TRIALS + 1
        s.estimate_errors(qm, 4, t, trials, seed=0)
        assert set(seen) == {purpose}
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
