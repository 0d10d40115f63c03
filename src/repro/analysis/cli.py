"""``python -m repro lint``: the CI gate front-end.

Exit codes: 0 clean (no findings outside baseline/suppressions),
1 new findings, parse errors or a failed ``--deep --bench`` check,
2 usage error.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.baseline import (
    BaselineError,
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import LintEngine, list_rules
from repro.harness import gate


@gate.entry
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Run the reprolint static-analysis passes "
                    "(determinism, sim-safety, protocol invariants).",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE_NAME} "
                             "when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline "
                             "and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's rationale, a live example "
                             "finding with its provenance chain, and the "
                             "sanctioned fix, then exit")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program passes "
                             "(call graph + dataflow: DETFLOW, RACE001, "
                             "CONS001, FSM001)")
    parser.add_argument("--bench", action="store_true",
                        help="with --deep: time the deep passes, run the "
                             "dynamic SimSanitizer, and write the "
                             "static/dynamic agreement matrix to "
                             "BENCH_lint.json")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="seeds for the --bench sanitizer runs "
                             "(default 1)")
    parser.add_argument("--stations", type=int, default=10, metavar="N",
                        help="station count for the --bench sanitizer "
                             "runs (default 10)")
    parser.add_argument("--duration", type=float, default=60.0,
                        metavar="SECONDS",
                        help="simulated duration of each --bench "
                             "sanitizer run (default 60)")
    args = parser.parse_args(argv)

    if args.bench and not args.deep:
        raise gate.UsageError("--bench requires --deep")
    seeds = gate.seed_list(args.seeds, base=0) if args.bench else ()

    if args.list_rules:
        print(list_rules())
        return 0

    if args.explain is not None:
        from repro.analysis.explain import explain_rule
        text = explain_rule(args.explain)
        if text is None:
            raise gate.UsageError(
                f"unknown rule {args.explain!r}; see --list-rules")
        print(text)
        return 0

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise gate.UsageError(f"no such path(s): {', '.join(missing)}")

    baseline_path = Path(args.baseline) if args.baseline \
        else Path(DEFAULT_BASELINE_NAME)
    try:
        baseline = load_baseline(baseline_path)
    except BaselineError as exc:
        raise gate.UsageError(str(exc)) from exc

    engine = LintEngine(baseline=baseline, deep=args.deep)
    report = engine.lint_paths(paths, display_root=Path.cwd())

    if args.write_baseline:
        recorded = report.new_findings + report.baselined
        write_baseline(baseline_path, recorded)
        print(f"wrote {len(recorded)} finding(s) to {baseline_path}")
        return 0

    print(report.render_json() if args.format == "json"
          else report.render_text())

    if args.bench:
        return _run_bench(report, seeds=seeds, stations=args.stations,
                          duration=args.duration)
    return report.exit_code


#: Deep rules whose dynamic counterpart is the ordering shuffle.
_ORDERING_RULES = ("DETFLOW001", "DETFLOW002", "RACE001")
#: Deep rules whose dynamic counterpart is live span conservation.
_CONSERVATION_RULES = ("CONS001",)
#: Shard-isolation rules; dynamic twin: 1-proc vs 2-proc digest equality.
_ISOLATION_RULES = ("SHARD001", "SHARD002")
#: Units/fidelity rules; dynamic twin: per_char vs frame digest equality.
_FIDELITY_RULES = ("UNIT001", "UNIT002", "FID001")


def check_agreement(agreement: Dict[str, Dict[str, object]]) -> List[str]:
    """Every static/dynamic agreement row must agree."""
    return [f"{name}: static and dynamic analyses disagree ({row})"
            for name, row in sorted(agreement.items()) if not row["agree"]]


def _run_bench(report, seeds: Sequence[int], stations: int,
               duration: float) -> int:
    """The --deep --bench tail: dynamic runs + agreement matrix.

    The matrix pairs each static family with its runtime check: the
    analyses *agree* when both sides are clean or both sides fire.  A
    dynamic failure with a clean static side is the interesting row --
    a bug class the passes cannot yet see.  The lint gate fails on new
    static findings, on a shard-parity mismatch and on any row that
    disagrees.
    """
    import time
    from dataclasses import replace

    from repro.harness.experiments import run_sanitize
    from repro.harness.results import metrics_digest
    from repro.scale.fidelity import fidelity_comparable
    from repro.scale.regions import ScaleLayout
    from repro.scale.shard import run_sharded

    lint = gate.Gate("lint")
    if report.exit_code:
        lint.failures.append(
            f"static analysis: {len(report.new_findings)} new finding(s), "
            f"{len(report.parse_errors)} unparseable file(s)")
    runs = [{
        "params": {"case": "deep_static"},
        "seed": 0,
        "metrics": {
            **{f"pass_{name}_seconds": round(seconds, 4)
               for name, seconds in sorted(report.deep_timings.items())},
            "deep_total_seconds": round(sum(report.deep_timings.values()), 4),
            "new_findings": float(len(report.new_findings)),
        },
    }]
    dynamic_disagreements = 0
    dynamic_conservation_failures = 0
    for seed in seeds:
        metrics = run_sanitize(seed=seed, stations=stations,
                               duration_seconds=duration)
        if metrics["sanitize_ordering_agree"] != 1.0:
            dynamic_disagreements += 1
        if metrics["sanitize_conservation_ok"] != 1.0:
            dynamic_conservation_failures += 1
        runs.append({
            "params": {"case": "sanitize", "stations": stations,
                       "duration_seconds": duration},
            "seed": seed,
            "metrics": {key: metrics[key] for key in (
                "sanitize_ordering_agree", "sanitize_conservation_ok",
                "sanitizer_checks", "sanitizer_stale_spans",
                "obs_born_total")},
        })

    # Dynamic twins of the isolation and fidelity rows: 1-proc vs 2-proc
    # and per_char vs frame digests of one layout, small enough (2
    # regions x 1 station, 10 simulated seconds) to take under a second.
    layout = ScaleLayout(regions=2, stations_per_region=1,
                         flow_stations=0, duration_seconds=10.0,
                         fidelity="per_char", seed=0)
    started = time.perf_counter()
    shard_runs, shard_digests = lint.shard_parity(
        layout, seeds=(0,), procs=(1, 2), label="shard ")
    single = shard_runs[0][1]
    isolation_failures = int(not shard_digests["identical"])
    frame = run_sharded(replace(layout, fidelity="frame"), procs=1)
    fidelity_failures = int(
        metrics_digest(fidelity_comparable(single))
        != metrics_digest(fidelity_comparable(frame)))
    runs.append({
        "params": {"case": "shard_digests", "regions": 2,
                   "stations_per_region": 1, "duration_seconds": 10.0},
        "seed": 0,
        "metrics": {
            "shard_digest_equal": float(1 - isolation_failures),
            "fidelity_digest_equal": float(1 - fidelity_failures),
            "events_saved_by_frame": float(
                single.get("total/events_executed", 0.0)
                - frame.get("total/events_executed", 0.0)),
            "shard_bench_wall_seconds": round(
                time.perf_counter() - started, 3),
        },
    })

    def agreement_row(rules: Tuple[str, ...], dynamic: int,
                      dynamic_key: str = "dynamic_failures") -> Dict[str, object]:
        static = sum(1 for f in report.new_findings if f.rule in rules)
        return {"static_findings": static, dynamic_key: dynamic,
                "agree": (static == 0) == (dynamic == 0)}

    agreement = {
        "ordering": agreement_row(_ORDERING_RULES, dynamic_disagreements,
                                  "dynamic_disagreements"),
        "conservation": agreement_row(_CONSERVATION_RULES,
                                      dynamic_conservation_failures),
        "isolation": agreement_row(_ISOLATION_RULES, isolation_failures),
        "fidelity": agreement_row(_FIDELITY_RULES, fidelity_failures),
    }
    print(" ".join(f"{name} agree={row['agree']}"
                   for name, row in sorted(agreement.items())))
    lint.failures += check_agreement(agreement)
    return lint.finish(
        {"spec": {"source": "python -m repro lint --deep --bench",
                  "seeds": len(seeds), "stations": stations,
                  "duration_seconds": duration},
         "runs": runs,
         "agreement": agreement},
        "static and dynamic analyses agree on every row")
