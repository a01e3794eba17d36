"""Where each layer is wrapped, and how its spans become per-layer metrics.

:func:`install` wraps the public entry point of every layer the benchmark
reports on.  :func:`layer_metrics` turns one traced phase (span summary,
counters, cache readings) into the per-query metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import threading

from tracing import SUMMARY_KEYS, Tracer

#: Span or counter name -> the layer it proves was reached.
SPAN_PARSE = "sparql.parser.parse_query"
SPAN_ANALYZE = "sparql.analysis.analyze_query"
SPAN_COMPILE = "sparql.exec.compile"
SPAN_EXEC = "sparql.exec.ExecPlan.execute"
SPAN_TRANSLATE = "core.mediator.Mediator.translate"
SPAN_FEDERATE = "federation.federator.execute"
SPAN_CALL = "federation.federator.call_endpoint"
SPAN_DECOMPOSE = "federation.decompose.execute_decomposed"
SPAN_LOCAL = "federation.endpoint.LocalSparqlEndpoint"
SPAN_HTTP_CALL = "federation.http_endpoint.HttpSparqlEndpoint"
SPAN_FLUSH = "rdf.store.SegmentStore.flush"
SPAN_COMPACT = "rdf.store.SegmentStore.compact"
SPAN_WRITE = "sparql.formats.write_results"
SPAN_PARSE_RESULTS = "sparql.formats.parse_results"
SPAN_SERVER = "server.http.answer_query"
COUNT_SAMEAS = "coreference.service.SameAsService"
COUNT_MEMORY_SCAN = "rdf.store.MemoryStore.triples_ids"
COUNT_SEGMENT_SCAN = "rdf.store.SegmentStore.triples_ids"
COUNT_ASK = "federation.ask_probes"
COUNT_ATTEMPT = "federation.federator._attempt"
COUNT_TIMEOUT = "federation.policy.timeouts"
COUNT_THREAD = "federation.federator.attempt_threads"
COUNT_RETRY = "federation.policy.ExecutionPolicy.retry_delay"
COUNT_RESPONSE_BYTES = "sparql.formats.bytes"
COUNT_DECOMPOSE_REQUESTS = "federation.decompose.requests"
COUNT_DECOMPOSE_SHIPPED = "federation.decompose.rows_shipped"

#: Wrappers every in-process query path fires.
IN_PROCESS = frozenset({
    SPAN_PARSE, SPAN_ANALYZE, SPAN_COMPILE, SPAN_EXEC, SPAN_TRANSLATE,
    SPAN_FEDERATE, SPAN_CALL, SPAN_LOCAL, COUNT_SAMEAS, COUNT_ATTEMPT,
})


def install(tracer: Tracer) -> None:
    """Wrap every measured layer entry point; ``tracer.uninstall()`` undoes it."""
    from repro.coreference import SameAsService
    from repro.core.mediator import Mediator
    from repro.federation import decompose, federator
    from repro.federation.endpoint import EndpointTimeout, LocalSparqlEndpoint
    from repro.federation.http_endpoint import HttpSparqlEndpoint
    from repro.federation.policy import ExecutionPolicy
    from repro.rdf.store import MemoryStore, SegmentStore
    from repro.server.http import _SparqlRequestHandler
    from repro.sparql import analysis, exec as sparql_exec, formats, parser

    tracer.patch_everywhere(parser.parse_query, tracer.timed(SPAN_PARSE)(parser.parse_query))
    tracer.patch_everywhere(
        analysis.analyze_query, tracer.timed(SPAN_ANALYZE)(analysis.analyze_query)
    )
    for name in ("compile_planner_query", "compile_naive_query"):
        function = getattr(sparql_exec, name)
        tracer.patch_everywhere(function, tracer.timed(SPAN_COMPILE)(function))
    tracer.patch_method(sparql_exec.ExecPlan, "execute", tracer.timed_generator(SPAN_EXEC))
    tracer.patch_method(Mediator, "translate", tracer.timed(SPAN_TRANSLATE))
    tracer.patch_method(federator.FederatedQueryEngine, "execute", tracer.timed(SPAN_FEDERATE))

    def after_decompose(result, args, kwargs) -> None:
        tracer.count(COUNT_DECOMPOSE_REQUESTS, result.total_requests)
        tracer.count(COUNT_DECOMPOSE_SHIPPED, result.total_rows)

    tracer.patch_everywhere(
        decompose.execute_decomposed,
        tracer.timed(SPAN_DECOMPOSE, after=after_decompose)(decompose.execute_decomposed),
    )

    def call_endpoint_factory(function):
        timed = tracer.timed(SPAN_CALL)(function)

        def wrapper(self, target, executable, kind="select", timeout=None):
            if kind == "ask":
                tracer.count(COUNT_ASK)
            return timed(self, target, executable, kind, timeout)

        return wrapper

    tracer.patch_method(federator.FederatedQueryEngine, "call_endpoint", call_endpoint_factory)

    def attempt_factory(function):
        def wrapper(*args, **kwargs):
            tracer.count(COUNT_ATTEMPT)
            try:
                return function(*args, **kwargs)
            except EndpointTimeout:
                tracer.count(COUNT_TIMEOUT)
                raise

        return wrapper

    tracer.patch_method(federator.FederatedQueryEngine, "_attempt", attempt_factory)

    def thread_start_factory(function):
        def wrapper(self):
            if self.name.startswith("attempt-"):
                tracer.count(COUNT_THREAD)
            return function(self)

        return wrapper

    tracer.patch_method(threading.Thread, "start", thread_start_factory)
    tracer.patch_method(ExecutionPolicy, "retry_delay", tracer.counted(COUNT_RETRY))
    for method in ("select", "ask"):
        tracer.patch_method(LocalSparqlEndpoint, method, tracer.timed(SPAN_LOCAL))
        tracer.patch_method(HttpSparqlEndpoint, method, tracer.timed(SPAN_HTTP_CALL))
    for method in ("lookup", "equivalence_class"):
        tracer.patch_method(SameAsService, method, tracer.counted(COUNT_SAMEAS))
    tracer.patch_method(MemoryStore, "triples_ids", tracer.counted(COUNT_MEMORY_SCAN))
    tracer.patch_method(SegmentStore, "triples_ids", tracer.counted(COUNT_SEGMENT_SCAN))
    tracer.patch_method(SegmentStore, "flush", tracer.timed(SPAN_FLUSH))
    tracer.patch_method(SegmentStore, "compact", tracer.timed(SPAN_COMPACT))

    def after_write(result, args, kwargs) -> None:
        tracer.count(COUNT_RESPONSE_BYTES, len(result.encode("utf-8")))

    tracer.patch_everywhere(
        formats.write_results,
        tracer.timed(SPAN_WRITE, after=after_write)(formats.write_results),
    )
    tracer.patch_everywhere(
        formats.parse_results, tracer.timed(SPAN_PARSE_RESULTS)(formats.parse_results)
    )
    tracer.patch_method(_SparqlRequestHandler, "_answer_query", tracer.timed(SPAN_SERVER))


def merge_readings(*readings: dict) -> dict:
    """Sum several ``{"spans": ..., "counters": ..., "fired": ...}`` readings.

    The http workload traces two processes: the client side in the
    benchmark and the servers in the child; their sums are the totals.
    """
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    fired: set[str] = set()
    for reading in readings:
        for name, entry in reading["spans"].items():
            total = spans.setdefault(name, dict.fromkeys(SUMMARY_KEYS, 0.0))
            for key in total:
                total[key] += entry[key]
        for name, value in reading["counters"].items():
            counters[name] = counters.get(name, 0) + value
        fired.update(reading["fired"])
    return {"spans": spans, "counters": counters, "fired": sorted(fired)}


def layer_metrics(reading: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics (per query unless the name says otherwise).

    Layer times are CPU self times (see :mod:`tracing`), except the HTTP
    round trip, server and wait times, which are wall times.

    ``extra`` carries what the workload read off its own objects during
    the traced phase: ``queries``, ``rows_returned``, ``records_read``,
    rewrite- and response-cache counters, the write-path readings and
    ``client_call_s``, the wall time of the benchmark client's own HTTP
    calls (http-cold).
    """
    spans = reading["spans"]
    counters = reading["counters"]
    queries = max(1, extra["queries"])

    def cpu_ms(name: str) -> float:
        return spans.get(name, {}).get("cpu_self_s", 0.0) * 1000.0 / queries

    def per_query(name: str) -> float:
        return counters.get(name, 0) / queries

    def per_call_ms(name: str) -> float:
        entry = spans.get(name)
        if not entry or not entry["calls"]:
            return 0.0
        return entry["active_s"] * 1000.0 / entry["calls"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    rows = extra["rows_returned"]
    lookups = extra["rewrite_hits"] + extra["rewrite_misses"]
    responses = extra["response_hits"] + extra["response_misses"]
    served = spans.get(SPAN_SERVER, {})
    server_s = served.get("active_s", 0.0)
    calls_s = spans.get(SPAN_HTTP_CALL, {}).get("active_s", 0.0)
    writes = spans.get(SPAN_WRITE, {}).get("calls", 0)
    return {
        "sparql.parser.parse_ms": cpu_ms(SPAN_PARSE),
        "sparql.analysis.analyze_ms": cpu_ms(SPAN_ANALYZE),
        "core.mediator.translate_ms": cpu_ms(SPAN_TRANSLATE),
        "core.mediator.cache_hit_ratio": ratio(extra["rewrite_hits"], lookups),
        "federation.federator.self_ms": cpu_ms(SPAN_FEDERATE),
        "coreference.service.lookups": per_query(COUNT_SAMEAS),
        "sparql.plan.compile_ms": cpu_ms(SPAN_COMPILE),
        "sparql.exec.exec_ms": cpu_ms(SPAN_EXEC),
        "federation.decompose.self_ms": cpu_ms(SPAN_DECOMPOSE),
        "federation.decompose.requests": per_query(COUNT_DECOMPOSE_REQUESTS),
        "federation.decompose.ask_probes": per_query(COUNT_ASK),
        "federation.decompose.rows_shipped_per_row_returned": ratio(
            counters.get(COUNT_DECOMPOSE_SHIPPED, 0), rows
        ),
        "rdf.store.records_read": extra["records_read"] / queries,
        "rdf.store.records_read_per_row_returned": ratio(extra["records_read"], rows),
        "rdf.store.scans": per_query(COUNT_MEMORY_SCAN) + per_query(COUNT_SEGMENT_SCAN),
        "rdf.store.flush_ms": per_call_ms(SPAN_FLUSH),
        "rdf.store.compact_ms": per_call_ms(SPAN_COMPACT),
        "rdf.store.bytes_written_per_triple": ratio(
            extra["bytes_written"], extra["triples_written"]
        ),
        "write_p50_ms": extra["write_p50_ms"],
        "disk_bytes_per_triple": extra["disk_bytes_per_triple"],
        "sparql.formats.write_ms": cpu_ms(SPAN_WRITE),
        "sparql.formats.parse_ms": cpu_ms(SPAN_PARSE_RESULTS),
        "sparql.formats.bytes_per_response": ratio(
            counters.get(COUNT_RESPONSE_BYTES, 0), writes
        ),
        # The front server's span contains its calls to the dataset
        # servers; only its own part counts, so each server millisecond
        # is counted once.
        "server.http.server_ms": (server_s - served.get("outbound_s", 0.0)) * 1000.0 / queries,
        # Every result document is parsed inside an HttpSparqlEndpoint call
        # and every call is answered by one _answer_query (whose whole time
        # the call contains): what remains of the round trips is time on
        # the wire and in the server's queues.
        "server.http.wait_ms": max(
            0.0,
            (calls_s - spans.get(SPAN_PARSE_RESULTS, {}).get("active_s", 0.0) - server_s)
            * 1000.0 / queries,
        ),
        "server.http.response_cache_hit_ratio": ratio(extra["response_hits"], responses),
        # The calls the federation layer makes; the benchmark client's own
        # call to the front server contains them and is the query latency.
        "federation.http_endpoint.call_ms": (calls_s - extra["client_call_s"]) * 1000.0 / queries,
        "federation.federator.attempts": per_query(COUNT_ATTEMPT),
        "federation.federator.attempt_threads": per_query(COUNT_THREAD),
        "federation.policy.retries": per_query(COUNT_RETRY),
        "federation.policy.timeouts": per_query(COUNT_TIMEOUT),
    }
