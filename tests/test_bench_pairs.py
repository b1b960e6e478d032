import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "item_us", "better": "lower", "bound": 0.25},
              {"name": "ops_ok_frac", "better": "higher", "bound": 0.05}]


def pairs(parent_us, change_us):
    return [{"parent": {"metrics": {"item_us": b, "ops_ok_frac": 1.0}},
             "change": {"metrics": {"item_us": c, "ops_ok_frac": 1.0}}}
            for b, c in zip(parent_us, change_us)]


def test_summary_counts_wins_and_ties():
    summary = bench_pairs.summarize(pairs([10, 12, 14, 16, 18], [9, 12, 15, 8, 7]),
                                    END_TO_END)
    us = summary["item_us"]
    # lower is better: the change wins pairs 1, 4 and 5, ties pair 2, loses pair 3
    assert (us["pairs_won_by_change"], us["pairs_won_by_parent"]) == (3, 1)
    # inclusive quartiles, as numpy's default percentile
    assert us["parent"] == {"median": 14, "q1": 12, "q3": 16}
    assert us["median_change_rel"] == pytest.approx((9 - 14) / 14)
    ok = summary["ops_ok_frac"]
    assert (ok["pairs_won_by_change"], ok["pairs_won_by_parent"], ok["median_change_rel"]) == \
        (0, 0, 0.0)
    # the parent's IQR, 4, is 29% of its median 14, above the bound of 25%
    assert us["unresolved"] and not ok["unresolved"]


@pytest.mark.parametrize("parent_us, change_us, unresolved", [
    ([10, 12, 14, 16, 18], [10, 12, 14, 16, 18], True),  # IQR 4 > 0.25 * 14
    ([20, 22, 24, 26, 28], [20, 22, 24, 26, 28], False),  # IQR 4 < 0.25 * 24
    ([10, 12, 14, 16, 18], [5, 6, 7, 8, 9.9], False),  # every change run is faster
    ([10, 12, 14, 16, 18], [5, 6, 7, 8, 10], True),  # one tie with the parent's fastest
])
def test_unresolved_where_the_parent_spread_exceeds_the_bound(parent_us, change_us, unresolved):
    summary = bench_pairs.summarize(pairs(parent_us, change_us), END_TO_END)
    assert summary["item_us"]["unresolved"] is unresolved


@pytest.mark.parametrize("inherited,want", [(None, "src"), ("", "src"), ("lib", "src:lib")])
def test_tier1_puts_src_before_the_inherited_path(monkeypatch, inherited, want):
    if inherited is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", inherited)
    assert bench_pairs.tier1_env()["PYTHONPATH"] == want
