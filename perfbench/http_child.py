"""The server side of the http-cold workload, run as a child process.

Builds the scenario, serves each dataset from its own ``EndpointBackend``
server and puts a ``FederationBackend`` front server over them, reaching
the datasets through ``HttpSparqlEndpoint`` under an ``ExecutionPolicy``
with a per-attempt timeout.  Prints ``{"url": <front query URL>}`` once
ready, then obeys one command per stdin line:

* ``record`` — wrap the layers and start recording spans,
* ``pause`` — stop recording and unwrap the layers,
* ``stop`` (or end of input) — shut down; if anything was recorded,
  write the span summary, counters and cache readings to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--persons", type=int, required=True)
    parser.add_argument("--papers", type=int, required=True)
    parser.add_argument("--rkb-coverage", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--timeout", type=float, required=True)
    parser.add_argument("--spans", required=True)
    arguments = parser.parse_args(argv)

    from repro.datasets import build_resist_scenario
    from repro.federation import DatasetRegistry, MediatorService
    from repro.federation.http_endpoint import HttpSparqlEndpoint
    from repro.federation.policy import ExecutionPolicy
    from repro.server import EndpointBackend, FederationBackend, SparqlHttpServer

    scenario = build_resist_scenario(
        n_persons=arguments.persons, n_papers=arguments.papers,
        rkb_coverage=arguments.rkb_coverage, seed=arguments.seed,
    )
    servers = []
    registry = DatasetRegistry()
    registry.default_policy = ExecutionPolicy(timeout=arguments.timeout)
    for dataset in scenario.registry:
        server = SparqlHttpServer(EndpointBackend(dataset.endpoint)).start()
        servers.append(server)
        registry.register_endpoint(
            dataset.description,
            HttpSparqlEndpoint(dataset.endpoint.uri, url=server.query_url,
                               name=str(dataset.endpoint.name)),
        )
    service = MediatorService(scenario.alignment_store, registry, scenario.sameas_service)
    front = SparqlHttpServer(FederationBackend(
        service,
        source_ontology=scenario.source_ontology,
        source_dataset=scenario.rkb_dataset,
        mode="filter-aware",
        strategy="fanout",
    )).start()
    servers.append(front)
    print(json.dumps({"url": front.query_url}), flush=True)

    tracer = None
    before: dict = {}
    after: dict = {}

    def cache_readings() -> dict:
        rewrite = service.mediator.cache_info()
        responses = [server.cache.info() for server in servers]
        return {
            "rewrite_hits": rewrite["hits"],
            "rewrite_misses": rewrite["misses"],
            "response_hits": sum(info["hits"] for info in responses),
            "response_misses": sum(info["misses"] for info in responses),
        }

    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "record":
                if tracer is None:
                    import layers
                    from tracing import Tracer

                    tracer = Tracer()
                    layers.install(tracer)
                    before = cache_readings()
                tracer.recording = True
            elif command == "pause" and tracer is not None:
                tracer.recording = False
                after = cache_readings()
                tracer.uninstall()
            elif command == "stop":
                break
    finally:
        for server in servers:
            server.stop()
    if tracer is not None:
        if tracer.recording:
            tracer.recording = False
            after = cache_readings()
            tracer.uninstall()
        reading = {
            "spans": tracer.summary(layers.SPAN_HTTP_CALL),
            "counters": dict(tracer.counters),
            "fired": sorted(tracer.fired),
            "caches": {key: after[key] - before[key] for key in after},
        }
        with open(arguments.spans, "w", encoding="utf-8") as sink:
            json.dump(reading, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
