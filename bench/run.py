"""Certified bits per second of cosprod, on one closed-loop workload.

    python3 bench/run.py --workload desk-session --seed 1 --seconds 30 --trace 0

One client sends a request, waits for it, checks it against the benchmark's
own brackets (outside the timed region) and sends the next, in whole rounds
of three inputs, until ``--seconds`` have passed.  Inputs come from
``--seed`` alone.  Workloads: desk-session, high-precision, cold-tables (see
README.md beside this file).

Times in the end-to-end metrics are scaled to a reference speed: each is
multiplied by speed.REFERENCE_S over the time of a fixed reference unit of
work run just before and after it (see speed.py), so that the drift of a
shared host's processor speed cancels out.  The measured times go into the
run record.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
every other round runs traced and the per-layer metrics of the traced
requests are reported (measured, not scaled), with the traced rounds'
scaled latency against the untraced rounds' as the tracing overhead.  A summary goes to standard output, a
record of the run (seed, Python, nproc, commit, every request) and the spans
go to bench/out/, and the last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from oracles import Oracles
from speed import scaled
from tracing import LAYER_METRICS, Tracer
from workloads import (BENCH_DIR, WORKLOADS, CheckFailed, RequestFailed,
                       expect, make)

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = (("latency_mean_s", "s"), ("certified_bits_per_s", "bits/s"),
              ("certified_bits_min", "bits"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cosprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def latency_tail(latencies: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it (40+ samples)."""
    n = len(latencies)
    if n < 40:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return {"percentile": pct,
            "value_s": sorted(latencies)[math.ceil(pct * n / 100) - 1],
            "samples": n}


def measure(args, workload, oracles: Oracles, tracer: Tracer | None):
    """The closed loop; returns (requests, attempted, failed, problems, rounds)."""
    rng = random.Random(args.seed)
    requests, problems = [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or rounds < 1 + args.trace:
        traced = tracer is not None and rounds % 2 == 1
        if traced and workload.in_process:
            tracer.install()
        try:
            for value in workload.draw_round(rng):
                attempted += 1
                if traced and workload.in_process:
                    tracer.begin(attempted)
                try:
                    outcome = workload.request(value, traced)
                except RequestFailed as exc:
                    failed += 1
                    problems.append(f"failed {value}: {exc}")
                    continue
                if traced and workload.in_process:
                    outcome.layers = tracer.layer_metrics()
                elif traced:
                    tracer.adopt(attempted, outcome.spans)
                try:
                    bits = min(workload.check(value, outcome, oracles))
                    expect(0 < bits < math.inf, f"certified bits {bits}")
                except (CheckFailed, KeyError, IndexError, ValueError) as exc:
                    # the last three: output too malformed to read
                    problems.append(f"wrong {value}: {exc!r}")
                    bits = None
                setup = None
                if outcome.setup is not None:
                    setup = scaled(outcome.setup, outcome.setup_reference)
                requests.append({"input": str(value), "traced": traced,
                                 "latency_s": outcome.latency,
                                 "reference_s": outcome.reference,
                                 "scaled_latency_s": scaled(outcome.latency,
                                                            outcome.reference),
                                 "cpu_s": outcome.cpu, "bits": bits,
                                 "measured_setup_s": outcome.setup,
                                 "setup_s": setup,
                                 "rss_kb": outcome.rss_kb,
                                 "layers": outcome.layers})
        finally:
            if traced and workload.in_process:
                tracer.uninstall()
        rounds += 1
    return requests, attempted, failed, problems, rounds


def end_to_end(workload, requests, setup_samples) -> dict[str, float]:
    """The end-to-end metrics, times scaled to the reference speed.

    Latency and throughput are means over whole rounds, not medians: the
    request times of neighbouring strata overlap, so the median request
    moved with the seed's draws, by 6 to 7% on two of the workloads.
    """
    latencies = [r["scaled_latency_s"] for r in requests]
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_samples = [scaled(s, ref) for s, ref in setup_samples]
    else:
        rss_kb = statistics.median(r["rss_kb"] for r in requests)
        setup_samples = [r["setup_s"] for r in requests]
    return {
        "latency_mean_s": statistics.fmean(latencies),
        "certified_bits_per_s": sum(r["bits"] for r in requests) / sum(latencies),
        "certified_bits_min": min(r["bits"] for r in requests),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(requests) -> dict[str, float]:
    """Median over traced requests; bits are the fewest seen, 0 if none."""
    traced = [r["layers"] for r in requests if r["traced"]]
    figures = {}
    for name, unit in LAYER_METRICS:
        values = [layers[name] for layers in traced]
        if unit == "bits":
            seen = [v for v in values if v is not None]
            figures[name] = min(seen) if seen else 0
        else:
            figures[name] = statistics.median(values)
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cosprod" / "__init__.py").is_file():
        print(f"bench: no cosprod sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = make(args.workload, SRC)
    oracles = Oracles()
    setup_samples = None if args.trace else workload.setup_samples()
    workload.warm_up()
    tracer = Tracer() if args.trace else None
    requests, attempted, failed, problems, rounds = measure(
        args, workload, oracles, tracer)
    checked = [r for r in requests if r["bits"] is not None]
    correct = len(checked) == len(requests) and bool(checked)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "source_sha256": source_digest(),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "correct": correct, "problems": problems,
        # [measured seconds, reference-unit seconds] per set-up probe
        "setup_samples": setup_samples,
    }
    metrics: dict[str, float] = {}
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    if correct and not args.trace:
        metrics = end_to_end(workload, checked, setup_samples)
        record["latency_tail"] = latency_tail([r["scaled_latency_s"] for r in checked])
        record["measured_latency_mean_s"] = statistics.fmean(
            r["latency_s"] for r in checked)
    elif correct:
        metrics = per_layer(checked)
        plain = statistics.fmean(r["scaled_latency_s"] for r in checked
                                 if not r["traced"])
        traced = statistics.fmean(r["scaled_latency_s"] for r in checked
                                  if r["traced"])
        record["tracing_overhead"] = {"untraced_mean_s": plain,
                                      "traced_mean_s": traced,
                                      "overhead": traced / plain - 1}
    cpu = [r["cpu_s"] / r["latency_s"] for r in checked if r["cpu_s"] is not None]
    if cpu:
        record["cpu_over_wall_p50"] = statistics.median(cpu)
    record["metrics"] = metrics
    record["requests"] = requests

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for i, (request, name, start, end, parent, _) in enumerate(tracer.spans):
                handle.write(json.dumps({"id": i, "request": request, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")

    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={record['python']} nproc={record['nproc']} "
          f"commit={record['commit']} source={record['source_sha256'][:12]}")
    print(f"  {attempted} requests in {rounds} rounds, {failed} failed, "
          f"correct={correct}")
    for problem in problems[:10]:
        print(f"  {problem}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if "measured_latency_mean_s" in record:
        print(f"  measured (unscaled) mean latency "
              f"{record['measured_latency_mean_s']:.6g} s")
    if "tracing_overhead" in record:
        over = record["tracing_overhead"]
        print(f"  tracing overhead {over['overhead']:+.1%} "
              f"(mean {over['traced_mean_s']:.4g} s traced, "
              f"{over['untraced_mean_s']:.4g} s untraced, scaled)")
    print(f"  record: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
