"""Same-host A/B of the repository benchmark against another revision.

``python -m repro perf --against REV`` checks ``REV`` out into a
temporary ``git worktree``, then runs each tree's own
``perfbench/run.py`` on one workload and seed in interleaved pairs,
alternating which tree goes first so that a drift of the host's speed
falls on both sides alike.  It always runs :data:`PAIRS` pairs::

    python -m repro perf --against HEAD~1 --workload soak_per_char
    python -m repro perf --against HEAD      # A-vs-A: the noise floor

Both trees must carry the same benchmark (``perfbench/`` and
``BENCHMARK.json``), or the comparison would time two different
measurements: the driver refuses with exit 2.  Both trees are
byte-compiled first, so set-up probes do not pay a compile that only one
tree has paid already.  For every end-to-end metric it reports each
side's median and quartiles, the ratio of the medians, the mean per-pair
ratio with its 95% CI, how many pairs the change won, and a verdict:
``better`` or ``worse`` only when one side won at least nine tenths of
the pairs and the medians differ by more than the base's quartile
spread.  Every universe digest of every run must equal the first base run's, matched
by ``workload/seed/universe``: a speedup must not change what is
simulated.  Exit 0 when every run is correct and every digest matches,
1 otherwise.

The driver only reads perfbench's output (the ``perfbench-record`` line
and the final JSON line); nothing under ``perfbench/`` is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from repro.metrics.stats import aggregate, percentile

#: The checkout this module runs from: the "change" side of the A/B.
ROOT = Path(__file__).resolve().parents[3]

#: What must be identical in both trees for their figures to compare.
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")

BASE, CHANGE = "base", "change"

#: Pairs per A/B: a claimed gain needs at least nine wins in ten pairs.
PAIRS = 10


@dataclass(frozen=True)
class Run:
    """What one ``perfbench/run.py`` invocation reported."""

    correct: bool
    metrics: Dict[str, float]
    #: Universe digests keyed ``workload/seed/u<index>``.
    digests: Dict[str, str]


@dataclass(frozen=True)
class MetricRow:
    """One end-to-end metric over all pairs."""

    name: str
    base_median: float
    base_quartiles: Tuple[float, float]
    change_median: float
    change_quartiles: Tuple[float, float]
    wins: int
    losses: int
    pairs: int
    ratio_mean: float
    ratio_ci95: float

    @property
    def median_ratio(self) -> float:
        return self.change_median / self.base_median if self.base_median else 1.0

    @property
    def verdict(self) -> str:
        """``better``/``worse`` when one side won at least nine tenths of
        the pairs and the medians differ by more than the base's own
        quartile spread; ``same`` when the medians are equal; else
        ``noise``, as always on fewer than :data:`PAIRS` pairs."""
        delta = self.change_median - self.base_median
        if delta == 0:
            return "same"
        if self.pairs >= PAIRS and abs(delta) > self.base_quartiles[1] - self.base_quartiles[0]:
            if self.wins >= 0.9 * self.pairs:
                return "better"
            if self.losses >= 0.9 * self.pairs:
                return "worse"
        return "noise"


def parse_run(stdout: str) -> Run:
    """Read the record line and the final JSON line of one perfbench run."""
    lines = stdout.strip().splitlines()
    record: dict = {}
    for line in lines:
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Run(correct=False, metrics={}, digests={})
    digests = {universe_key(key): value
               for key, value in record.get("digests", {}).items()}
    return Run(correct=bool(result.get("correct")),
               metrics={name: float(entry["value"]) for name, entry
                        in result.get("metrics", {}).items()},
               digests=digests)


def universe_key(store_key: str) -> str:
    """``workload/seed/u<index>`` of perfbench's digest-store key.

    The store key also carries hashes of the workload definition and of
    the source; the source hash differs between the two trees by design.
    """
    return "/".join(store_key.split("/")[:3])


def pair_order(index: int) -> Tuple[str, str]:
    """Which side runs first in pair ``index``: base first on even pairs."""
    return (BASE, CHANGE) if index % 2 == 0 else (CHANGE, BASE)


def digest_problems(runs: Sequence[Tuple[str, int, Run]]) -> List[str]:
    """Every run's universe digests against the first base run's."""
    problems = []
    reference = next((run.digests for side, _i, run in runs if side == BASE), {})
    for side, index, run in runs:
        where = f"{side} run of pair {index}"
        if not run.correct:
            problems.append(f"{where}: perfbench reported correct: false")
        if not run.digests:
            problems.append(f"{where}: no universe digests")
        for key, value in sorted(run.digests.items()):
            expected = reference.get(key)
            if expected is None:
                problems.append(f"{where}: {key} has no base digest")
            elif value != expected:
                problems.append(f"{where}: {key} digest {value[:12]} "
                                f"!= base {expected[:12]}")
    return problems


def metric_rows(base: Sequence[Run], change: Sequence[Run],
                directions: Dict[str, str]) -> List[MetricRow]:
    """Medians, quartiles, per-pair ratios and wins of every metric."""
    rows = []
    for name, better in directions.items():
        pairs = [(b.metrics[name], c.metrics[name])
                 for b, c in zip(base, change)
                 if name in b.metrics and name in c.metrics]
        if not pairs:
            continue
        base_sorted = sorted(b for b, _c in pairs)
        change_sorted = sorted(c for _b, c in pairs)
        higher = better == "higher"
        wins = sum(1 for b, c in pairs if b != c and (c > b) == higher)
        losses = sum(1 for b, c in pairs if b != c and (c > b) != higher)
        ratios = aggregate([c / b if b else 1.0 for b, c in pairs])
        rows.append(MetricRow(
            name=name,
            base_median=percentile(base_sorted, 0.5),
            base_quartiles=(percentile(base_sorted, 0.25),
                            percentile(base_sorted, 0.75)),
            change_median=percentile(change_sorted, 0.5),
            change_quartiles=(percentile(change_sorted, 0.25),
                              percentile(change_sorted, 0.75)),
            wins=wins, losses=losses, pairs=len(pairs),
            ratio_mean=ratios.mean, ratio_ci95=ratios.ci95))
    return rows


def render_rows(rows: Sequence[MetricRow]) -> List[str]:
    lines = [f"{'metric':26s} {'base median [q1, q3]':>32s} "
             f"{'change median [q1, q3]':>32s} {'ratio':>7s} "
             f"{'pair ratio':>15s} {'wins':>6s} verdict"]
    for row in rows:
        lines.append(
            f"{row.name:26s} "
            f"{_spread(row.base_median, row.base_quartiles):>32s} "
            f"{_spread(row.change_median, row.change_quartiles):>32s} "
            f"{row.median_ratio:7.3f} "
            f"{row.ratio_mean:7.3f}±{row.ratio_ci95:<7.3f} "
            f"{row.wins:>3d}/{row.pairs:<2d} {row.verdict}")
    return lines


def _spread(median: float, quartiles: Tuple[float, float]) -> str:
    return f"{median:.6g} [{quartiles[0]:.6g}, {quartiles[1]:.6g}]"


# ----------------------------------------------------------------------
# the two trees
# ----------------------------------------------------------------------

def benchmark_fingerprint(root: Path) -> str:
    """Digest of the benchmark's files in one tree (bytecode excluded)."""
    digest = hashlib.sha256()
    for name in BENCHMARK_FILES:
        path = root / name
        files = sorted(p for p in path.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts) \
            if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(root)).encode())
            digest.update(file.read_bytes() if file.is_file() else b"\0missing")
    return digest.hexdigest()


def child_env() -> Dict[str, str]:
    """The environment of a perfbench run: each tree finds its own source."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def compile_tree(root: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=root, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)


def perfbench_runner(workload: str, seed: int) -> Callable[[Path], str]:
    """A function running one tree's perfbench; returns its stdout.

    The run length is perfbench's own default, the same for both trees.
    """
    command = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]

    def run(root: Path) -> str:
        done = subprocess.run([sys.executable, *command], cwd=root,
                              env=child_env(), capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        return done.stdout

    return run


def run_pairs(trees: Dict[str, Path], pairs: int, runner: Callable[[Path], str],
              progress: Callable[[str], None] = lambda line: None,
              ) -> List[Tuple[str, int, Run]]:
    """``pairs`` interleaved runs of both trees, in :func:`pair_order`."""
    runs = []
    for index in range(pairs):
        for side in pair_order(index):
            run = parse_run(runner(trees[side]))
            runs.append((side, index, run))
            rate = run.metrics.get("station_sim_s_per_wall_s", float("nan"))
            progress(f"pair {index + 1}/{pairs} {side:6s} "
                     f"station_sim_s_per_wall_s={rate:.1f} "
                     f"correct={run.correct}")
    return runs


def report(runs: Sequence[Tuple[str, int, Run]],
           directions: Dict[str, str]) -> Tuple[List[str], List[str]]:
    """(table lines, problems) of a finished A/B."""
    base = [run for side, _i, run in runs if side == BASE]
    change = [run for side, _i, run in runs if side == CHANGE]
    return render_rows(metric_rows(base, change, directions)), \
        digest_problems(runs)


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def directions_of(spec: dict) -> Dict[str, str]:
    """End-to-end metric name -> ``higher``/``lower``."""
    return {entry["name"]: entry["better"] for entry in spec["end_to_end"]}


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="A/B the repository benchmark against another revision")
    parser.add_argument("--against", required=True, metavar="REV",
                        help="base revision (any git revision name)")
    parser.add_argument("--workload", default="soak_per_char")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = [entry["name"] for entry in benchmark_spec(ROOT)["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads)}")
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as scratch:
        base_root = Path(scratch) / "base"
        added = git("worktree", "add", "--detach", str(base_root), args.against)
        if added.returncode != 0:
            print(f"perf: cannot check out {args.against!r}: "
                  f"{added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            return _compare({BASE: base_root, CHANGE: ROOT}, args)
        finally:
            git("worktree", "remove", "--force", str(base_root))


def _compare(trees: Dict[str, Path], args: argparse.Namespace) -> int:
    if benchmark_fingerprint(trees[BASE]) != benchmark_fingerprint(trees[CHANGE]):
        print(f"perf: {' or '.join(BENCHMARK_FILES)} differ between "
              f"{args.against} and this tree; the A/B would compare two "
              "benchmarks", file=sys.stderr)
        return 2
    for root in trees.values():
        compile_tree(root)
    print(f"perf: {args.workload} seed {args.seed}, {PAIRS} pairs: "
          f"base {args.against} vs this tree", flush=True)
    runs = run_pairs(trees, PAIRS,
                     perfbench_runner(args.workload, args.seed),
                     progress=lambda line: print(line, flush=True))
    table, problems = report(runs, directions_of(benchmark_spec(trees[CHANGE])))
    print("\n".join(table))
    for problem in problems:
        print(f"FAILED: {problem}")
    print("perf: every run correct, every universe digest identical"
          if not problems else f"perf: {len(problems)} problem(s)")
    return 1 if problems else 0
