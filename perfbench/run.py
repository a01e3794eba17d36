"""The repository benchmark: federated SPARQL queries end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fanout-hot --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``fanout-hot``, ``decompose-disk-rw`` and
``http-cold`` (defined in ``perfbench/WORKLOADS.json``).  The seed draws
the persons each query is about; the same seed gives the same operations.

``--trace 0`` measures untraced and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs the first two thirds of the same
operation stream with every layer wrapped (see ``layers.py``) and the
rest untraced, and reports the per-layer metrics, including the tracing
overhead between the two parts.

Every answer is checked against an oracle computed after the timed loop
by a different code path.  Human-readable lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when the run
finished and every wrapper the workload needs fired.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
MAX_LISTED_FAILURES = 5
#: Share of a --trace 1 run that is traced; the rest is the untraced baseline.
TRACED_SHARE = 2 / 3


def _units() -> dict[str, tuple[str, str]]:
    """``{metric: (unit, "end_to_end"|"per_layer")}`` from BENCHMARK.json."""
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        entry["name"]: (entry["unit"], group)
        for group in ("end_to_end", "per_layer")
        for entry in spec[group]
    }


def _print_phase(label: str, phase, clients: int) -> None:
    from workloads import percentile

    queries = len(phase.query_ms)
    print(f"  {label}: {queries} queries + {len(phase.write_ms)} writes in "
          f"{phase.elapsed:.2f} s, {clients} closed-loop client(s), "
          f"{len(phase.failures)} failed")
    if queries:
        line = (f"    query p50 {percentile(phase.query_ms, 50):.3f} ms, "
                f"p90 {percentile(phase.query_ms, 90):.3f} ms (n={queries})")
        if queries >= 1000:
            line += f", query_p99_ms {percentile(phase.query_ms, 99):.3f} ms"
        else:
            line += ", query_p99_ms not reported (<10 samples beyond p99)"
        print(line)
    if phase.write_ms:
        print(f"    write_p50_ms {percentile(phase.write_ms, 50):.3f} ms "
              f"(n={len(phase.write_ms)})")
    print("    by kind: " + ", ".join(
        f"{kind} n={len(values)} median {statistics.median(values):.3f} ms"
        for kind, values in sorted(phase.by_kind.items())))


def _print_shapes(shape_stats: dict) -> None:
    if not shape_stats:
        return
    print("  wasted work per query shape (traced phase; totals / queries):")
    print(f"    {'shape':7} {'queries':>7} {'requests':>9} {'ask':>6} {'shipped':>9} "
          f"{'records':>11} {'returned':>8} {'shipped/ret':>11} {'records/ret':>11}")
    for shape in sorted(shape_stats):
        entry = shape_stats[shape]
        n = entry["queries"]
        returned = entry["rows_returned"]

        def per(key: str, entry=entry, n=n) -> float:
            return entry[key] / n

        shipped_ratio = entry["rows_shipped"] / returned if returned else 0.0
        records_ratio = entry["records_read"] / returned if returned else 0.0
        print(f"    {shape:7} {n:7d} {per('requests'):9.1f} {per('ask_probes'):6.1f} "
              f"{per('rows_shipped'):9.1f} {per('records_read'):11.1f} "
              f"{per('rows_returned'):8.1f} {shipped_ratio:11.2f} {records_ratio:11.1f}")


def _print_bases(extra: dict, reading: dict) -> None:
    """The counts behind the per-layer ratios, for the traced phase."""
    import layers

    spans, counters = reading["spans"], reading["counters"]
    served = spans.get(layers.SPAN_SERVER, {}).get("calls", 0)
    written = spans.get(layers.SPAN_WRITE, {}).get("calls", 0)
    print("  bases of the ratios (traced phase):")
    print(f"    core.mediator.cache_hit_ratio: {extra['rewrite_hits']} hits of "
          f"{extra['rewrite_hits'] + extra['rewrite_misses']} rewrite-cache lookups")
    print(f"    *_per_row_returned: {extra['rows_returned']} rows returned by "
          f"{extra['queries']} queries; "
          f"{counters.get(layers.COUNT_DECOMPOSE_SHIPPED, 0):.0f} rows shipped by decompose, "
          f"{extra['records_read']} store records read")
    print(f"    rdf.store.bytes_written_per_triple: {extra['bytes_written']} bytes for "
          f"{extra['triples_written']} triples written")
    print(f"    server.http.response_cache_hit_ratio: {extra['response_hits']} hits of "
          f"{extra['response_hits'] + extra['response_misses']} lookups, "
          f"{served:.0f} requests served")
    print(f"    sparql.formats.bytes_per_response: "
          f"{counters.get(layers.COUNT_RESPONSE_BYTES, 0):.0f} bytes in {written:.0f} responses")


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](workdir)
    try:
        return _run(workload, seed, seconds, trace)
    finally:
        workload.teardown()


def _run(workload, seed: int, seconds: float, trace: bool) -> int:
    import layers
    from tracing import Tracer
    from workloads import (
        DEFINITIONS, REQUIRED_WRAPPERS, closed_loop, cycle_length, percentile,
        tracing_overhead,
    )

    units = _units()
    workload_name = workload.name
    workload.seed = seed
    clients = workload.definition["clients"]
    cycle = cycle_length(workload.definition)
    workload.prepare()

    setup_times: list[float] = []

    def timed_setup() -> None:
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)

    # setup_s is reported by --trace 0 runs only.  Half its repetitions
    # run before the timed loop and half after the checks, so that the
    # median spans the whole run: a shared machine's speed drifts over
    # seconds.
    repetitions = 1 if trace else DEFINITIONS["setup_repetitions"]
    ahead = (repetitions + 1) // 2
    for repetition in range(ahead):
        if repetition:
            workload.teardown()
        timed_setup()
    workload.warm()

    print(f"workload {workload_name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    phases = []
    if not trace:
        phases.append(closed_loop(workload.run_op, workload.stream(seed, "timed"),
                                  seconds, clients, cycle))
        _print_phase("timed", phases[0], clients)
    else:
        # The traced part runs the same operations a --trace 0 run starts
        # with (so Figure 6 and the write path are in it); the untraced
        # rest of the stream is the baseline for the tracing overhead.
        stream = workload.stream(seed, "timed")
        tracer = Tracer()
        layers.install(tracer)
        workload.tracer = tracer
        before = workload.counters()
        tracer.recording = True
        workload.set_recording(True)
        traced = closed_loop(workload.run_op, stream, seconds * TRACED_SHARE, clients, cycle)
        tracer.recording = False
        workload.set_recording(False)
        after = workload.counters()
        tracer.uninstall()
        untraced = closed_loop(workload.run_op, stream, seconds * (1 - TRACED_SHARE), clients,
                               cycle)
        phases = [traced, untraced]
        _print_phase("traced part", traced, clients)
        _print_phase("untraced rest", untraced, clients)
        _print_shapes(workload.shape_stats)

    readings = workload.end_of_timing()
    mismatches = workload.check(phases)
    for _ in range(repetitions - ahead):
        workload.teardown()
        timed_setup()
    print(f"  setup_s median of {len(setup_times)}: "
          + ", ".join(f"{value:.3f}" for value in setup_times))
    failures = [failure for phase in phases for failure in phase.failures] + mismatches
    attempted = sum(phase.attempted for phase in phases)
    for failure in failures[:MAX_LISTED_FAILURES]:
        print(f"  FAILED {failure}")
    print(f"  error_rate {len(failures) / max(1, attempted):.6f} "
          f"({len(failures)} of {attempted} operations; {len(mismatches)} wrong answers)")

    ok = True
    if not trace:
        phase = phases[0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "qps": len(phase.query_ms) / phase.elapsed,
            "query_p50_ms": percentile(phase.query_ms, 50),
            "query_p90_ms": percentile(phase.query_ms, 90),
            "peak_rss_mb": readings["peak_rss_mb"],
        }
        if "disk_bytes_per_triple" in readings:
            print(f"  disk_bytes_per_triple {readings['disk_bytes_per_triple']:.2f} B/triple "
                  f"(every store file, terms.jsonl included)")
    else:
        traced, untraced = phases
        reading = {"spans": tracer.summary(layers.SPAN_HTTP_CALL),
                   "counters": dict(tracer.counters), "fired": sorted(tracer.fired)}
        client_call_s = reading["spans"].get(layers.SPAN_HTTP_CALL, {}).get("active_s", 0.0)
        caches = {key: after.get(key, 0) - before.get(key, 0)
                  for key in ("rewrite_hits", "rewrite_misses", "records_read")}
        if workload.remote_reading is not None:
            reading = layers.merge_readings(reading, workload.remote_reading)
            caches.update(workload.remote_reading["caches"])
        extra = {
            "queries": len(traced.query_ms),
            "rows_returned": sum(len(answer) for _, answer in traced.answers),
            "rewrite_hits": caches["rewrite_hits"],
            "rewrite_misses": caches["rewrite_misses"],
            "response_hits": caches.get("response_hits", 0),
            "response_misses": caches.get("response_misses", 0),
            "records_read": caches["records_read"],
            "bytes_written": workload.bytes_written,
            "triples_written": workload.triples_written,
            "write_p50_ms": percentile(untraced.write_ms, 50) if untraced.write_ms else 0.0,
            "disk_bytes_per_triple": readings.get("disk_bytes_per_triple", 0.0),
            "client_call_s": client_call_s,
        }
        metrics = layers.layer_metrics(reading, extra)
        overhead, basis = tracing_overhead(traced, untraced)
        metrics["trace.overhead_frac"] = overhead
        print(f"  trace.overhead_frac over {basis} traced operations of kinds "
              f"also run untraced: {overhead:.4f}")
        _print_bases(extra, reading)
        missing = sorted(REQUIRED_WRAPPERS[workload_name] - set(reading["fired"]))
        if missing:
            print(f"  FAILED wrappers that never fired: {', '.join(missing)}")
            ok = False

    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name][0]}")
    expected = {name for name, (_, group) in units.items()
                if group == ("per_layer" if trace else "end_to_end")}
    if set(metrics) != expected:
        print(f"  FAILED metric set differs from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ expected)}")
        return 1
    print(json.dumps({
        "correct": not failures and ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    source = CHECKOUT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {source}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    workdir = CHECKOUT / ".perfbench_work" / f"{arguments.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(arguments.workload, arguments.seed, arguments.seconds,
                   bool(arguments.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
