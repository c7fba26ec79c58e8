#!/usr/bin/env python3
"""The repository's benchmark: cold planning and warm serving.

Run one workload::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 50 --trace 0

or every workload, untraced and then traced, with the tracing overhead::

    python3 perfbench/run.py

Workloads (why each was chosen is in ``BENCHMARK.json``; sizes, query
sets and rates are in ``perfbench/workloads.json``):

``cold_plan``
    Serial, in process: fresh ``Database`` over XMark scale 1 per pass,
    memos emptied, the fig13 queries whose search ends on its own.
``serve_read``
    HTTP against a ``QueryService`` process over XMark scale 50 with the
    read set's plans cached before the load; open-loop segments, cold
    passes in the server and closed-loop segments alternate, with logged
    write pairs before and after.

End-to-end figures (``--trace 0``), printed by name with their unit on
every workload.  Only those listed under ``end_to_end`` in
``BENCHMARK.json`` go into the result line; the others are unbounded,
because across ten seeds their spread reached or passed 0.25 whenever the
host's speed shifted:

``setup_s`` (result line)
    median set-up: document, summary, views, ``Database`` (serve_read: with
    a change log attached and the server started)
``peak_rss_mb`` (result line)
    peak RSS of the process holding the database
``cold_pass_s``
    median time to answer the query set cold (serve_read: the read set,
    planned in a fresh session in the server once in every load cycle)
``read_p50_ms``
    the mean over the found queries of each one's median warm read latency:
    HTTP from the scheduled send time (serve_read), an in-process call
    (cold_plan)
``write_p50_ms``
    the mean of the insert and the delete median latency (serve_read:
    logged writes over HTTP, half before the load and half after it;
    cold_plan: writes after each pass, without a change log)

Also printed, unbounded: ``read_tail_ms`` (the highest of p50, p75, p90,
p95, p99 and p99.9 with 50 read latencies beyond it, with its percentile
and sample count), the slowest cold query (median over passes) and the
closed-loop read throughput (2 clients over HTTP on serve_read, 1
in-process caller on cold_plan).

Failed operations are ``failed`` out of ``attempted`` in the result line
(``error_rate`` in the printed summary): wrong rows, an unexpected HTTP
status (the proven-none queries must get 422), a search outcome other than
the recorded one, or a write whose Dewey ID differs from the mirror's.  Any
failure makes the exit status 1.

``--trace 1`` wraps each layer's public entry points (see ``spans.py``)
and reports the per-layer metrics listed in ``BENCHMARK.json`` instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workload import ROOT, WORK_DIR, bootstrap, with_units

WORKLOADS = ("cold_plan", "serve_read")


def git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if workload == "cold_plan":
        import cold_plan

        recorder = None
        if trace:
            from spans import Recorder, install_layers

            recorder = Recorder()
            install_layers(recorder)
        report = cold_plan.run(seed, seconds, recorder)
    else:
        import serve

        report = serve.run(seed, seconds, trace)

    failures = report["failures"]
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for line in report["lines"]:
        print(line)
    for failure in failures[:50]:
        print(f"FAIL {failure}")
    print(f"error_rate = {len(failures) / report['attempted']:.6f} "
          f"({len(failures)} / {report['attempted']})")
    figures = report["figures"]
    end_to_end = with_units({name: value for name, (value, _) in figures.items()},
                            "end_to_end")
    for name, (value, unit) in figures.items():
        note = "" if name in end_to_end else "  (unbounded: not in the result line)"
        print(f"  {name} = {value:.6g} {unit}{note}")
    metrics = report["per_layer"] if trace else end_to_end
    if trace:
        for name, value in metrics.items():
            print(f"  {name} = {value['value']:.6g} {value['unit']}")
    for name, (numerator, denominator) in report.get("ratio_bases", {}).items():
        print(f"  {name}: {numerator:g} / {denominator:g}")
    record = dict(report["record"], workload=workload, seed=seed,
                  figures={name: value for name, (value, _) in figures.items()},
                  seconds=seconds, trace=int(trace), nproc=os.cpu_count(),
                  git_sha=git_sha())
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    failed_runs = 0
    summary, records = {}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            failed_runs += done.returncode != 0
            lines = done.stdout.strip().splitlines()
            if not lines:
                continue
            summary[(workload, trace)] = json.loads(lines[-1])["metrics"]
            records[(workload, trace)] = next(
                json.loads(line[len("record "):]) for line in lines
                if line.startswith("record "))
        untraced = records.get((workload, 0), {}).get("figures", {})
        traced = summary.get((workload, 1), {})
        for name in ("cold_pass_s", "read_p50_ms"):
            if name in untraced and f"trace.{name}" in traced:
                before = untraced[name]
                after = traced[f"trace.{name}"]["value"]
                if after:
                    print(f"tracing overhead on {workload} {name}: "
                          f"{after - before:+.6g} {traced[f'trace.{name}']['unit']} "
                          f"({after:.6g} traced - {before:.6g} untraced)")
    print(json.dumps({
        "correct": failed_runs == 0,
        "attempted": 2 * len(WORKLOADS),
        "failed": failed_runs,
        "metrics": {
            f"{workload}.{name}": value
            for (workload, trace), metrics in summary.items() if not trace
            for name, value in metrics.items()
        },
    }))
    return 0 if failed_runs == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    bootstrap()
    WORK_DIR.mkdir(exist_ok=True)
    if options.workload == "all":
        return run_all(options.seed, options.seconds)
    return run_one(options.workload, options.seed, options.seconds,
                   bool(options.trace))


if __name__ == "__main__":
    raise SystemExit(main())
