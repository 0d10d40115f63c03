"""What every CI gate shares: options, layout parity and the verdict.

Each gate keeps only its own options, progress lines and checks (functions
from a run's record or metrics to failure strings).  A bad option raises
:class:`UsageError`: one stderr line, exit 2, before any run starts.  A
layout run that raises fails the gate with the crash as its failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

from repro.harness.results import (
    bench_json_path,
    metrics_digest,
    sweep_digests,
    sweep_to_dict,
    write_bench_json,
)
from repro.harness.runner import (
    RunRecord,
    SweepResult,
    SweepSpec,
    run_sweep,
    seeds_from_count,
)
from repro.scale.regions import ScaleLayout
from repro.scale.shard import run_sharded

Metrics = Dict[str, float]


class UsageError(Exception):
    """A bad command-line option: one stderr line and exit code 2."""


class _Crashed(Exception):
    """A layout run raised; :func:`entry` finishes the gate it carries."""

    def __init__(self, gate: Gate) -> None:
        super().__init__(gate.failures[-1])
        self.gate = gate


def entry(main: Callable[[List[str]], int]) -> Callable[[List[str]], int]:
    """Wrap a command's ``main(argv)``: usage errors exit 2, crashes 1."""

    @functools.wraps(main)
    def wrapper(argv: List[str]) -> int:
        try:
            return main(argv)
        except UsageError as exc:
            print(exc, file=sys.stderr)
            return 2
        except _Crashed as crash:
            return crash.gate.finish({}, "")

    return wrapper


def parser(command: str, description: str, bench: Optional[str] = None,
           seeds: Optional[int] = 3) -> argparse.ArgumentParser:
    """``python -m repro <command>``'s parser with ``--seeds``/``--seed-base``
    (unless ``seeds`` is None) and ``--out`` (``./BENCH_<bench>.json``)."""
    options = argparse.ArgumentParser(prog=f"python -m repro {command}",
                                      description=description)
    if seeds is not None:
        options.add_argument("--seeds", type=int, default=seeds, metavar="N",
                             help=f"number of seeds (default: {seeds})")
        options.add_argument("--seed-base", type=int, default=1,
                             help="first seed value (default: 1)")
    options.add_argument("--out", default=None, help="results path "
                         f"(default: ./BENCH_{bench or command}.json)")
    return options


def seed_list(count: int, base: int = 1) -> Tuple[int, ...]:
    """The seeds for ``--seeds count``, or a :class:`UsageError`."""
    if count < 1:
        raise UsageError("--seeds must be >= 1")
    return seeds_from_count(count, base=base)


class Gate:
    """One gate run: its name, its results path and the failures so far."""

    def __init__(self, name: str, out: Optional[str] = None) -> None:
        self.name = name
        self.out = out or bench_json_path(name)
        self.failures: List[str] = []

    def _crashed(self, procs: int, exc: Exception) -> NoReturn:
        self.failures.append(f"run crashed under procs={procs}: {exc!r}")
        raise _Crashed(self) from exc

    def sweep_parity(
        self, seeds: Sequence[int], procs: int, banner: str,
        grid: Tuple[Dict[str, object], ...] = (),
        progress: Optional[Callable[[RunRecord], None]] = None,
        check: Optional[Callable[[RunRecord], List[str]]] = None,
    ) -> Tuple[SweepResult, Dict[str, object]]:
        """Sweep experiment ``<name>`` at procs=1 and ``procs`` (``grid=()``:
        its default grid); cell digests must match, then ``check`` runs on
        each procs=1 record.  Returns the procs=1 result and the BENCH
        document (the other sweep + both digest sets)."""
        results: Dict[int, SweepResult] = {}
        for layout_procs in (1, procs):
            print(f"{banner}, procs={layout_procs}")
            try:
                results[layout_procs] = run_sweep(
                    SweepSpec(bench=self.name, seeds=tuple(seeds), grid=grid,
                              procs=layout_procs), progress=progress)
            except Exception as exc:  # a crashed cell fails the whole gate
                self._crashed(layout_procs, exc)
        inline = sweep_digests(results[1])
        parallel = sweep_digests(results[procs])
        for key, digest in sorted(inline.items()):
            if parallel.get(key) != digest:
                self.failures.append(
                    f"digest mismatch at {key}: procs=1 {digest[:12]} "
                    f"!= procs={procs} "
                    f"{(parallel.get(key) or 'missing')[:12]}")
        if check is not None:
            for record in results[1].records:
                self.failures += check(record)
        document = sweep_to_dict(results[procs])
        document["digests"] = {"procs1": inline, f"procs{procs}": parallel,
                               "identical": inline == parallel}
        return results[1], document

    def shard_parity(
        self, template: ScaleLayout, seeds: Sequence[int],
        procs: Sequence[int], label: str = "",
        progress: Optional[Callable[[int, int, Metrics, str, float],
                                    None]] = None,
        check: Optional[Callable[[int, Metrics], List[str]]] = None,
    ) -> Tuple[Dict[int, Dict[int, Metrics]], Dict[str, object]]:
        """Run ``template`` per seed at each of ``procs``; merged digests
        must match.  ``progress(seed, procs, metrics, digest, wall_s)`` sees
        every run, ``check(seed, metrics)`` the ``procs[0]`` run.  Returns
        ``metrics[seed][procs]`` and the digest block."""
        runs: Dict[int, Dict[int, Metrics]] = {}
        digests: Dict[str, Dict[str, str]] = {f"procs{p}": {} for p in procs}
        for seed in seeds:
            runs[seed] = {}
            for layout_procs in procs:
                started = time.perf_counter()
                try:
                    metrics = run_sharded(replace(template, seed=seed),
                                          procs=layout_procs)
                except Exception as exc:  # a crashed shard fails the gate
                    self._crashed(layout_procs, exc)
                wall = time.perf_counter() - started
                digest = metrics_digest(metrics)
                runs[seed][layout_procs] = metrics
                digests[f"procs{layout_procs}"][f"seed={seed}"] = digest
                if progress is not None:
                    progress(seed, layout_procs, metrics, digest, wall)
                if check is not None and layout_procs == procs[0]:
                    self.failures += check(seed, metrics)
            per_procs = {p: digests[f"procs{p}"][f"seed={seed}"]
                         for p in procs}
            if len(set(per_procs.values())) != 1:
                self.failures.append(
                    f"{label}seed={seed}: merged digests differ across "
                    "process counts "
                    + " ".join(f"procs={p}:{d[:12]}"
                               for p, d in sorted(per_procs.items())))
        identical = all(digests[f"procs{p}"] == digests[f"procs{procs[0]}"]
                        for p in procs)
        return runs, {**digests, "identical": identical}

    def finish(self, document: Dict[str, object], passed: str) -> int:
        """Write the BENCH file with ``failures``; print and return the verdict.

        ``passed`` completes ``<name> gate passed: <passed>; wrote <path>``.
        """
        path = write_bench_json(
            self.out, {**document, "failures": self.failures},
            bench=self.name)
        if self.failures:
            print(f"\n{self.name} gate FAILED:")
            for failure in self.failures:
                print(f"  - {failure}")
            print(f"wrote {path}")
            return 1
        print(f"\n{self.name} gate passed: {passed}; wrote {path}")
        return 0
