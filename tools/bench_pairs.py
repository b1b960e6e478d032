"""Paired benchmark runs of the parent commit against the working tree,
written to ``BENCH_<tag>.json`` at the root of the repository.

    python3 tools/bench_pairs.py --tag pr29 --note "what the change does"

The parent is ``HEAD``, exported with ``git archive``; the change is the
working tree (its tracked files and its untracked files that git does not
ignore), copied.  So neither the repository nor its git metadata gains
anything but the BENCH file.  Every run then works in a fresh copy of its
side, one run at a time.

Pair i (1 to PAIRS) runs ``perfbench/run.py --workload W --seed <200 + i>
--seconds S --trace 0`` on both sides, for every workload of
``BENCHMARK.json``, with S its ``run_seconds``: odd pairs run the parent
first, even pairs the change first.  Each workload's summary gives, per
end-to-end metric of ``BENCHMARK.json``, both sides' median and quartiles
(inclusive method), the pairs each side won (ties count for neither), the
change's median relative to the parent's, and whether the metric is
``unresolved`` (see ``summarize``), once its pairs are done.  Each
``--other W`` then pairs a workload that ``BENCHMARK.json`` does not list
the same way, into ``other_runs``.
The Tier-1 command of ROADMAP.md then runs TIER1_RUNS times on each side,
alternating the same way.  The file is rewritten after every pair, so an
interrupted run keeps the pairs it finished.  Needs Python 3.10.12 or
3.11.4 and later, whose ``tarfile`` has extraction filters.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# pair i runs at seed SEED_BASE + i, on both sides
SEED_BASE = 200
# ten pairs: a speed claim needs the change to win nine of them
PAIRS = 10
TIER1_RUNS = 2
TIER1 = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
         "python -m pytest -q --continue-on-collection-errors")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout


def export_commit(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev], check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(dest: Path) -> None:
    dest.mkdir(parents=True)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = REPO / name
        if name and src.is_file():  # a file deleted but still in the index is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def fresh_copy(tree: Path, work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(tree, work)
    return work


def prefixed(lines: list[str], prefix: str) -> dict:
    return next(json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix))


def bench_run(tree: Path, work: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One perfbench run in a fresh copy of ``tree``: (the run's record, its machine line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=fresh_copy(tree, work), capture_output=True, text=True)
    shutil.rmtree(work)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree.name} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = prefixed(lines, "report ")["end_to_end"]
    record = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {k: v["value"] for k, v in result["metrics"].items()},
              "report": {k: v["value"] for k, v in report.items()}}
    return record, prefixed(lines, "machine ")


def tier1_env() -> dict:
    """This process's environment with ``src`` put before any inherited
    ``PYTHONPATH``, as TIER1 spells it."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"src:{inherited}" if inherited else "src"}


def tier1_run(tree: Path, work: Path) -> dict:
    env = tier1_env()
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=fresh_copy(tree, work), env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    shutil.rmtree(work)
    last = [line for line in proc.stdout.splitlines() if line.strip()][-1]
    return {"wall_s": round(wall, 2), "result": last.strip("= ")}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, pairs won, relative median
    change, and whether the comparison is unresolved: the parent's IQR exceeds
    the metric's ``bound`` times the parent's median, so a regression within
    the bound cannot be told from noise, unless every run of the change reads
    better than every run of the parent."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [p["parent"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        better = sum((c < b) if lower else (c > b) for b, c in zip(base, new))
        worse = sum((c > b) if lower else (c < b) for b, c in zip(base, new))
        stats = {"parent": quartiles(base), "change": quartiles(new)}
        b, c = stats["parent"]["median"], stats["change"]["median"]
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        separated = max(new) < min(base) if lower else min(new) > max(base)
        out[name] = {"better": spec["better"], **stats,
                     "pairs_won_by_change": better, "pairs_won_by_parent": worse,
                     "median_change_rel": (c - b) / b if b else (0.0 if c == b else None),
                     "unresolved": spread > spec["bound"] * abs(b) and not separated}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--note", required=True, help="one line on what the change does")
    ap.add_argument("--other", action="append", default=[], metavar="W",
                    help="also pair this workload, which BENCHMARK.json does not list")
    args = ap.parse_args(argv)
    parent = git("rev-parse", "HEAD").strip()
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    out_path = REPO / f"BENCH_{args.tag}.json"
    bench = {"tag": args.tag, "change": args.note, "parent_commit": parent,
             "command": f"python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {seconds} --trace 0",
             "pairing": f"pair i uses seed {SEED_BASE}+i; odd pairs run the parent "
                        "first, even pairs the change first; every run in a fresh copy "
                        "of its side's tree, one at a time",
             "workloads": {}, "machine": [], "tier1": None, "other_runs": []}

    def write() -> None:
        out_path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_commit(parent, trees["parent"])
        copy_worktree(trees["change"])
        work = Path(tmp) / "run"
        for name in workloads + args.other:
            pairs = []
            if name in workloads:
                entry = bench["workloads"][name] = {"pairs": pairs, "summary": {}}
            else:
                entry = {"workload": name, "pairs": pairs, "summary": {}}
                bench["other_runs"].append(entry)
            for i in range(1, PAIRS + 1):
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {"pair": i, "seed": SEED_BASE + i, "first": order[0]}
                for side in order:
                    pair[side], machine = bench_run(trees[side], work, name, pair["seed"],
                                                    seconds)
                    if machine not in bench["machine"]:
                        bench["machine"].append(machine)
                pairs.append({k: pair[k] for k in ("pair", "seed", "first", *SIDES)})
                write()
                print(f"{name} pair {i}: " + " ".join(
                    f"{side} {pair[side]['metrics']['item_us']:.6g}" for side in SIDES),
                    flush=True)
            entry["summary"] = summarize(pairs, declared["end_to_end"])
            write()
        runs = []
        bench["tier1"] = {"command": TIER1, "runs": runs}
        for i in range(1, TIER1_RUNS + 1):
            for side in SIDES if i % 2 else SIDES[::-1]:
                runs.append({"run": i, "side": side, **tier1_run(trees[side], work)})
                write()
                print(f"tier1 run {i} {side}: {runs[-1]}", flush=True)
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
