"""Acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line
(run with -s to see them on success).  Criteria with a stated runtime
budget include the elapsed time in the check.
"""

import json
import math
import time

import numpy as np

import disthyp as d
from disthyp import cli

import oracles

HIGH_RATE = {"xi": 3.0, "c": 2.47}
LOW_RATE = {"xi": 0.7, "c": 1.92}


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_cns_high_rate():
    t0 = time.perf_counter()
    regimes = [d.TypeIRegime("poly", 0.01), d.TypeIRegime("poly", 0.1),
               d.TypeIRegime("log"), d.TypeIRegime("const", 0.1)]
    point = (HIGH_RATE["xi"], 0.0)
    sizes = [d.critical_sample_size(point, HIGH_RATE["c"], reg, 1e-5)
             for reg in regimes]
    elapsed = time.perf_counter() - t0
    ok = all(s is not None and s <= 22 for s in sizes) and elapsed < 1.0
    _report("CNS high-rate point: at most 22 samples in all four regimes",
            ok, f"cns={sizes}, {elapsed:.2f}s")


def test_cns_low_rate():
    t0 = time.perf_counter()
    regimes = [d.TypeIRegime("poly", 0.01), d.TypeIRegime("poly", 0.1),
               d.TypeIRegime("log"), d.TypeIRegime("const", 0.1)]
    point = (LOW_RATE["xi"], 0.0)
    sizes = [d.critical_sample_size(point, LOW_RATE["c"], reg, 1e-5)
             for reg in regimes]
    elapsed = time.perf_counter() - t0
    hits = sum(1 for s in sizes if s is not None and s <= 80)
    ok = hits >= 3 and elapsed < 1.0
    _report("CNS low-rate point: at most 80 samples in 3 of 4 regimes",
            ok, f"cns={sizes}, {elapsed:.2f}s")


def test_cns_readme_curve():
    t0 = time.perf_counter()
    delta, failed, found = 1e-5, [], []
    for point in oracles.README_CURVE:
        for spec in oracles.README_REGIMES:
            reg = d.TypeIRegime.parse(spec)
            try:
                cns = d.critical_sample_size(point, oracles.README_C, reg, delta)
            except Exception as exc:  # the gate reports every cell that raises
                failed.append(f"{point[0]:.4f} {spec}: {type(exc).__name__}")
                continue
            if cns is None:
                continue
            found.append(cns)
            if oracles.cns_gap(point, oracles.README_C, reg, cns) > delta:
                failed.append(f"{point[0]:.4f} {spec}: condition fails at cns={cns}")
            elif cns > 1 and oracles.cns_gap(point, oracles.README_C, reg, cns - 1) <= delta:
                failed.append(f"{point[0]:.4f} {spec}: condition already holds at {cns - 1}")
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 5.0
    _report("CNS README curve: 35 cells to cap 1e5, none raises, each cns is the first n",
            ok, f"{len(found)} found, failed={failed}, {elapsed:.2f}s")


def test_interval_decay():
    t0 = time.perf_counter()
    xi, c = HIGH_RATE["xi"], HIGH_RATE["c"]
    point = (xi, 0.0)
    details = []
    ok = True
    for spec in ("log", "poly:1", "poly:2", "superpoly:0.3"):
        reg = d.TypeIRegime.parse(spec)
        rel = []
        for n in (200, 400, 800):
            rep = d.feasibility_interval(point, c, reg, n)
            rel.append(abs(rep.log_gap_per_sample + xi) / xi)
        details.append(f"{spec}: {rel[-1]:.3f}")
        ok = ok and all(a > b for a, b in zip(rel, rel[1:])) and rel[-1] <= 0.10
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report("interval decay: per-sample log gap within 10% of the exponent",
            ok, "; ".join(details) + f", {elapsed:.2f}s")


def test_ib_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for i in range(21):
        ny = 2 if i % 2 == 0 else 3
        probs = rng.dirichlet(np.ones(2 * ny)).reshape(2, ny)
        probs = np.maximum(probs, 1e-3)
        probs /= probs.sum()
        p = d.JointPmf.from_probs(probs)
        rates = np.linspace(0.08, 1.0, 5) * p.entropy_x
        want = oracles.brute_force_exponent(p.probs, rates)
        got = np.array([d.exponent_at_rate(p, float(r), restarts=3,
                                           master_seed=11)[0] for r in rates])
        worst = max(worst, float(np.abs(want - got).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 300.0
    _report("information bottleneck matches exhaustive channel search to 1e-3",
            ok, f"21 joints, worst {worst:.2e}, {elapsed:.1f}s")


def test_ib_boundary_identities():
    t0 = time.perf_counter()
    checks = []
    rng = np.random.default_rng(31)
    models = [d.JointPmf.from_probs([[0.4, 0.1], [0.1, 0.4]])]
    probs = np.maximum(rng.dirichlet(np.ones(6)).reshape(2, 3), 1e-3)
    models.append(d.JointPmf.from_probs(probs, normalize=True))
    for p in models:
        mi = d.mutual_information(p)
        hy = p.entropy_y
        rates = np.linspace(0.0, p.entropy_x + 0.3, 8)
        curve = d.build_curve(p, rates, restarts=3, master_seed=11)
        checks.append(abs(curve.xi[-1] - mi) <= 1e-4)
        full, _ = d.exponent_at_rate(p, p.entropy_x, restarts=3, master_seed=11)
        checks.append(abs(full - mi) <= 1e-4)
        checks.append(curve.xi[0] <= 1e-6)
        checks.append(bool(np.array_equal(curve.d, hy - curve.xi)))
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    _report("boundary identities: xi caps at I(X;Y), xi(0)=0, D+xi=H(Y) exact",
            ok, f"{len(checks)} checks, {elapsed:.1f}s")


def test_exact_np_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6021)
    misses = 0
    for k in range(200):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.05, 0.4))
        probs = np.maximum(rng.dirichlet(np.ones(nx * ny)), 5e-3).reshape(nx, ny)
        p = d.JointPmf.from_probs(probs, normalize=True)
        qm = d.quantized_model(p, d.Encoder.identity(nx))
        pmf0, pmf1, lr = qm.flat()
        values, p0, p1 = oracles.statistic_atoms(pmf0, pmf1, lr, n, n)
        t = oracles.exact_threshold(values, p0, eps)
        exact1, exact2 = oracles.exact_error_probs(values, p0, p1, t)
        trials = 100_000
        res = d.estimate_errors(qm, n, t, trials, seed=60_000 + k)
        k1 = round(res.type1_hat * trials)
        k2 = round(res.type2_hat * trials)
        lo1, hi1 = d.wilson_interval(k1, trials, z=d.simulate.WILSON_Z99)
        lo2, hi2 = d.wilson_interval(k2, trials, z=d.simulate.WILSON_Z99)
        if not (lo1 <= exact1 <= hi1 and lo2 <= exact2 <= hi2):
            misses += 1
    elapsed = time.perf_counter() - t0
    ok = misses <= 2 and elapsed < 600.0
    _report("simulator agrees with the exhaustive likelihood-ratio law",
            ok, f"{200 - misses}/200 configs inside Wilson 99%, {elapsed:.1f}s")


def test_centralized_second_order():
    t0 = time.perf_counter()
    _, p = d.calibrate_correlation(0.03, 8, 8)
    qm = d.quantized_model(p, d.Encoder.identity(8))
    eps, n, trials = 0.1, 400, 1_000_000
    cal = d.calibrate_threshold(qm, n, eps, trials, seed=777, workers=4)
    res = d.estimate_errors(qm, n, cal.t, trials, seed=777, workers=4)
    predicted = d.centralized_second_order(p, eps, n)
    beta = res.type2_hat
    empirical = -math.log(beta) / n if beta > 0 else math.inf
    elapsed = time.perf_counter() - t0
    ok = beta > 0 and abs(empirical - predicted) <= 0.05 and elapsed < 600.0
    _report("uncompressed error rate matches the second-order approximation",
            ok, f"measured {empirical:.4f} vs predicted {predicted:.4f} nats, "
                f"beta={beta:.2e}, {elapsed:.1f}s")


def test_converse_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    specs = ("const:0.1", "const:0.2", "log", "poly:0.5", "poly:1")
    checked = 0
    violations = 0
    for k in range(50):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        probs = np.maximum(rng.dirichlet(np.ones(nx * ny)), 5e-3).reshape(nx, ny)
        p = d.JointPmf.from_probs(probs, normalize=True)
        reg = d.TypeIRegime.parse(specs[k % len(specs)])
        n = (60, 120, 240)[k % 3]
        rep = d.feasibility_interval((d.mutual_information(p), 0.0),
                                     d.c_constant(p), reg, n)
        if not rep.valid_lb:
            continue
        checked += 1
        qm = d.quantized_model(p, d.Encoder.identity(nx))
        cal_trials = max(20_000, math.ceil(100.0 / rep.eps_n))
        cal = d.calibrate_threshold(qm, n, rep.eps_n, cal_trials, seed=400 + k)
        res = d.estimate_errors(qm, n, cal.t, 20_000, seed=400 + k)
        if res.type2_ci[1] < rep.lb_prob:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 25 and violations == 0 and elapsed < 600.0
    _report("certified lower bound never exceeds the simulated error band",
            ok, f"{checked} configs with a valid bound, {violations} violations, "
                f"{elapsed:.1f}s")


def test_determinism(tmp_path, monkeypatch):
    model = tmp_path / "model.json"
    assert cli.main(["model", "--rho", "0.6", "--grid", "8",
                     "--out-dir", str(tmp_path), "--out", "model.json"]) == 0

    def render(tag: str, workers: int) -> dict[str, bytes]:
        monkeypatch.setattr(d.simulate, "_sampling_threads", lambda: workers)
        out = tmp_path / tag
        base = ["--seed", "3", "--out-dir", str(out)]
        # 40,000 trials are 3 chunks per phase, so 4 threads run chunks at once
        assert cli.main(["simulate", "--model", str(model), "--identity-encoder",
                         "--n", "8", "--regime", "const:0.2", "--trials", "40000",
                         "--cal-trials", "40000", "--out", "sim.csv"] + base) == 0
        assert json.loads((out / "sim.meta.json").read_text())["chunks"] >= 2 * 3
        assert cli.main(["exponent", "--model", str(model),
                         "--rates", "0.05,0.1,0.2", "--out", "curve.csv"]
                        + base) == 0
        assert cli.main(["bounds", "--xi", "0.7", "--c", "1.92",
                         "--regime", "poly:1", "--n-grid", "50,100",
                         "--out", "bounds.csv"] + base) == 0
        assert cli.main(["cns", "--xi", "0.7", "--c", "1.92",
                         "--regimes", "log,poly:1", "--out", "cns.csv"]
                        + base) == 0
        return {name: (out / name).read_bytes()
                for name in ("sim.csv", "curve.csv", "bounds.csv", "cns.csv")}

    first = render("a", 1)
    second = render("b", 1)
    threaded = render("c", 4)
    ok = first == second == threaded
    _report("byte-identical CSVs across reruns and worker counts",
            ok, "4 artifact kinds x 3 runs")
