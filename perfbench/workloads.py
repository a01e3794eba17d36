"""The three benchmark workloads: set-up, operation streams, timed loops, oracles.

Definitions (data scale, shape shares, person distribution, write policy,
execution policy) live in ``WORKLOADS.json`` beside this file and are read
from there, so the recorded definition and the code cannot drift apart.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from tracing import Tracer, bytes_written, directory_bytes

HERE = Path(__file__).resolve().parent
DEFINITIONS = json.loads((HERE / "WORKLOADS.json").read_text(encoding="utf-8"))
PREFIX = "PREFIX akt:<http://www.aktors.org/ontology/portal#>\n"


def query_text(shape: str, person: str, tag: str = "") -> str:
    """One query of ``shape`` about ``person``; ``tag`` renames a variable.

    Renaming changes the text (and the rewritten sub-queries) without
    changing the answer, which is how http-cold keeps every request a
    cache miss.
    """
    if shape == "fig1":
        return (PREFIX + f"SELECT DISTINCT ?a WHERE {{ ?paper{tag} akt:has-author <{person}> . "
                f"?paper{tag} akt:has-author ?a . FILTER (!(?a = <{person}>)) }}")
    if shape == "fig6":
        return (PREFIX + f"SELECT DISTINCT ?a WHERE {{ ?paper{tag} akt:has-author ?n . "
                f"?paper{tag} akt:has-author ?a . FILTER (!(?a = <{person}>) && (?n = <{person}>)) }}")
    if shape == "titles":
        return (PREFIX + f"SELECT ?p{tag} ?t WHERE {{ ?p{tag} akt:has-author <{person}> . "
                f"?p{tag} akt:has-title ?t }}")
    raise ValueError(f"unknown query shape {shape!r}")


def query_cycle(weights: dict[str, int]) -> list[str]:
    """The rarest shape first, the rest by smooth weighted round-robin."""
    rarest = min(weights, key=lambda shape: (weights[shape], shape))
    rest = {shape: weight for shape, weight in weights.items() if shape != rarest}
    order = [rarest] * weights[rarest]
    current = dict.fromkeys(rest, 0)
    total = sum(rest.values())
    for _ in range(total):
        for shape, weight in rest.items():
            current[shape] += weight
        chosen = max(current, key=lambda shape: (current[shape], shape))
        current[chosen] -= total
        order.append(chosen)
    return order


@dataclass
class Op:
    index: int
    kind: str          # a query shape, or "write"
    person: int = -1


def op_stream(definition: dict, persons: list[int], rng: random.Random):
    """Endless operations: the fixed cycle of kinds, persons drawn from ``rng``."""
    kinds = itertools.cycle(query_cycle(definition["cycle"]))
    write_every = definition.get("write_every")
    person_dist = definition["persons"]
    weights = None
    if person_dist["distribution"] == "zipf":
        exponent = person_dist["exponent"]
        weights = list(itertools.accumulate(1.0 / rank ** exponent
                                            for rank in range(1, len(persons) + 1)))
    deck: list[int] = []
    for index in itertools.count():
        if write_every and (index + 1) % write_every == 0:
            yield Op(index, "write")
            continue
        if weights is not None:
            person = rng.choices(persons, cum_weights=weights)[0]
        else:
            # Uniform without replacement: every run covers the pool as
            # evenly as its length allows.
            if not deck:
                deck = list(persons)
                rng.shuffle(deck)
            person = deck.pop()
        yield Op(index, next(kinds), person)


def canonical_rows(result) -> list[tuple]:
    """A result set as a sorted bag of N3 tuples in projection order."""
    variables = list(result.variables)
    return sorted(
        tuple(term.n3() if term is not None else None
              for term in (binding.get_term(v) for v in variables))
        for binding in result
    )


@dataclass
class Phase:
    """What one timed loop observed."""

    elapsed: float = 0.0
    query_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    answers: list[tuple[Op, list]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.query_ms) + len(self.write_ms) + len(self.failures)


def tracing_overhead(traced: Phase, untraced: Phase) -> tuple[float, int]:
    """Traced over untraced throughput, minus one, at the traced phase's mix.

    The two phases run different operations, so each operation kind found
    in both is weighted by its count in the traced phase.  Returns the
    fraction and how many traced operations it rests on.
    """
    traced_s = untraced_s = 0.0
    count = 0
    for kind, latencies in traced.by_kind.items():
        baseline = untraced.by_kind.get(kind)
        if not baseline:
            continue
        traced_s += sum(latencies)
        untraced_s += len(latencies) * statistics.fmean(baseline)
        count += len(latencies)
    if not traced_s:
        return 0.0, 0
    return untraced_s / traced_s - 1.0, count


def cycle_length(definition: dict) -> int:
    """Operations in one full cycle of the workload's mix (writes included)."""
    queries = sum(definition["cycle"].values())
    write_every = definition.get("write_every")
    if not write_every:
        return queries
    if queries % (write_every - 1):
        raise ValueError("the query cycle must fill whole write periods")
    return queries // (write_every - 1) * write_every


def closed_loop(run_op, ops, seconds: float, clients: int, cycle: int) -> Phase:
    """Closed loop: each client issues its next operation when the last ends.

    ``run_op(op)`` returns ``("query"|"write", answer)``; an exception is
    a failed operation.  Issuing stops at the first cycle boundary after
    ``seconds``, so every run executes whole cycles of the mix: a rare,
    slow shape (Figure 6 under decompose takes seconds) then weighs the
    same in every run and throughput scales with the machine's speed
    instead of jumping with where the deadline falls.
    """
    phase = Phase()
    lock = threading.Lock()
    ops = iter(ops)
    issued = 0
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        nonlocal issued
        while True:
            with lock:
                if issued % cycle == 0 and time.perf_counter() >= deadline:
                    return
                op = next(ops)
                issued += 1
            began = time.perf_counter()
            try:
                kind, answer = run_op(op)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                with lock:
                    phase.failures.append(
                        f"op {op.index} ({op.kind}): {type(exc).__name__}: {exc}")
                continue
            took = (time.perf_counter() - began) * 1000.0
            with lock:
                phase.by_kind.setdefault(op.kind, []).append(took)
                if kind == "write":
                    phase.write_ms.append(took)
                else:
                    phase.query_ms.append(took)
                    phase.answers.append((op, answer))

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{n}") for n in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.elapsed = time.perf_counter() - started
    return phase


def _child_env() -> dict[str, str]:
    """The environment for a child process: this checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def build_scenario(definition: dict):
    """The in-memory three-endpoint scenario at the workload's data scale."""
    from repro.datasets import build_resist_scenario

    data = definition["data"]
    return build_resist_scenario(
        n_persons=data["n_persons"], n_papers=data["n_papers"],
        rkb_coverage=data["rkb_coverage"], seed=data["scenario_seed"],
    )


def federate(engine, scenario, text: str, strategy: str):
    """Run one source query through ``engine`` the way every workload does."""
    return engine.execute(
        text,
        source_ontology=scenario.source_ontology,
        source_dataset=scenario.rkb_dataset,
        mode=DEFINITIONS["mediation"]["mode"],
        strategy=strategy,
    )


def person_pool(world) -> list[int]:
    return [person.key for person in world.persons if world.papers_of(person.key)]


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
class Workload:
    """Set-up, run and check one workload; subclasses fill in the layers."""

    name = ""

    def __init__(self, workdir: Path) -> None:
        self.definition = DEFINITIONS["workloads"][self.name]
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.shape_stats: dict[str, dict[str, float]] = {}
        #: Store write readings taken during the traced part.
        self.bytes_written = 0
        self.triples_written = 0
        #: Spans and caches recorded by another process (http-cold's servers).
        self.remote_reading: dict | None = None

    # subclass hooks
    def prepare(self) -> None:
        """Untimed work before the first set-up (inputs the benchmark needs)."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` made (before a repeat, and at the end)."""

    def warm(self) -> None:
        """Untimed operations after set-up, before the timed loop."""

    def set_recording(self, on: bool) -> None:
        """Start or stop tracing in processes other than this one."""

    def run_op(self, op: Op):
        raise NotImplementedError

    def expected(self, op: Op) -> list:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cache and store readings the traced phase diffs."""
        return {}

    def end_of_timing(self) -> dict[str, float]:
        """Readings taken right after the timed loops, before the oracle."""
        return {"peak_rss_mb": peak_rss_mb()}

    # shared by every workload
    def stream(self, seed: int, phase: str):
        rng = random.Random(f"{seed}-{self.name}-{phase}")
        return op_stream(self.definition, self.persons, rng)

    def check(self, phases: list[Phase]) -> list[str]:
        """Compare every answer with the oracle; return the mismatches."""
        mismatches = []
        for phase in phases:
            for op, answer in phase.answers:
                want = self.expected(op)
                if answer != want:
                    mismatches.append(
                        f"op {op.index} ({op.kind}, person {op.person}): "
                        f"{len(answer)} rows, oracle {len(want)}"
                    )
        return mismatches


class _InProcess(Workload):
    """Shared by the two workloads that call FederatedQueryEngine directly."""

    strategy = "fanout"

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self.stores: list = []

    def records_read(self) -> int:
        return sum(graph.store.io.records_read for graph in self.stores)

    def run_op(self, op: Op):
        tracer = self.tracer
        tracing = tracer is not None and tracer.recording
        if tracing:
            asks = tracer.counters.get(layers.COUNT_ASK, 0)
            records = self.records_read()
        uri = str(self.scenario.akt_person_uri(op.person))
        result = federate(self.engine, self.scenario, query_text(op.kind, uri), self.strategy)
        failed = result.failed_datasets()
        if failed:
            raise RuntimeError(f"datasets failed: {', '.join(map(str, failed))}")
        rows = canonical_rows(result.merged())
        if tracing:
            entry = self.shape_stats.setdefault(op.kind, dict.fromkeys(
                ("queries", "requests", "ask_probes", "rows_shipped", "records_read",
                 "rows_returned"), 0))
            entry["queries"] += 1
            entry["requests"] += result.total_requests or result.total_attempts
            entry["ask_probes"] += tracer.counters.get(layers.COUNT_ASK, 0) - asks
            entry["rows_shipped"] += result.total_rows
            entry["records_read"] += self.records_read() - records
            entry["rows_returned"] += len(rows)
        return "query", rows

    def counters(self) -> dict[str, float]:
        info = self.engine.mediator.cache_info()
        return {
            "rewrite_hits": info["hits"],
            "rewrite_misses": info["misses"],
            "records_read": self.records_read(),
        }


class FanoutHot(_InProcess):
    name = "fanout-hot"

    def setup(self) -> None:
        self.scenario = build_scenario(self.definition)
        self.engine = self.scenario.service.federation
        # The Zipf ranks are fixed by the data, not the workload seed, so
        # every run has the same hot set and the seed only draws from it.
        self.persons = person_pool(self.scenario.world)
        ranks = random.Random(f"zipf-ranks-{self.definition['data']['scenario_seed']}")
        ranks.shuffle(self.persons)
        self._oracle: dict[tuple[str, int], list] = {}

    def teardown(self) -> None:
        self.scenario = self.engine = None

    def warm(self) -> None:
        for op in itertools.islice(self.stream(self.seed, "warmup"),
                                   self.definition["warmup_ops"]):
            self.run_op(op)

    @staticmethod
    def oracle_key(op: Op) -> tuple[str, int]:
        # Figure 6 asks the Figure 1 question; its decompose answer is the
        # oracle for both (decomposing Figure 6 itself takes ~27 s here).
        return ("titles" if op.kind == "titles" else "fig1", op.person)

    def expected(self, op: Op) -> list:
        key = self.oracle_key(op)
        if key not in self._oracle:
            shape, person = key
            uri = str(self.scenario.akt_person_uri(person))
            result = federate(self.engine, self.scenario, query_text(shape, uri), "decompose")
            self._oracle[key] = canonical_rows(result.merged())
        return self._oracle[key]


class DecomposeDiskRW(_InProcess):
    name = "decompose-disk-rw"
    strategy = "decompose"

    def setup(self) -> None:
        from repro import open_graph
        from repro.federation import DatasetRegistry, LocalSparqlEndpoint, MediatorService

        self.scenario = build_scenario(self.definition)
        self.persons = person_pool(self.scenario.world)
        self.store_root = self.workdir / "stores"
        shutil.rmtree(self.store_root, ignore_errors=True)
        registry = DatasetRegistry()
        self.stores = []
        self.store_dirs = []
        for number, dataset in enumerate(self.scenario.registry):
            directory = self.store_root / str(number)
            # Bulk load into one segment, then reopen cold with the
            # benchmark's flush policy.
            loader = open_graph(directory, buffer_limit=len(dataset.endpoint.graph) + 1)
            loader.add_all(dataset.endpoint.graph.triples())
            loader.close()
            graph = open_graph(directory, buffer_limit=self.definition["buffer_limit"])
            self.stores.append(graph)
            self.store_dirs.append(directory)
            registry.register_endpoint(
                dataset.description,
                LocalSparqlEndpoint(dataset.endpoint.uri, graph, name=dataset.endpoint.name),
            )
        registry.refresh_statistics()
        service = MediatorService(
            self.scenario.alignment_store, registry, self.scenario.sameas_service,
            strategy="decompose",
        )
        self.engine = service.federation
        self.oracle_engine = self.scenario.service.federation
        self.writes = 0
        self._oracle: dict[tuple[str, int], list] = {}
        self._write_vocabulary()

    def _write_vocabulary(self) -> None:
        from repro.datasets.ontologies import AKT_TERMS, DBPEDIA_TERMS, KISTI_TERMS

        scenario = self.scenario
        by_builder = {
            scenario.akt_builder.endpoint_uri: (
                scenario.akt_builder, AKT_TERMS["Publication-Reference"], AKT_TERMS["has-title"]),
            scenario.kisti_builder.endpoint_uri: (
                scenario.kisti_builder, KISTI_TERMS["Publication"], KISTI_TERMS["title"]),
            scenario.dbpedia_builder.endpoint_uri: (
                scenario.dbpedia_builder, DBPEDIA_TERMS["WrittenWork"], DBPEDIA_TERMS["title"]),
        }
        self.vocabulary = [by_builder[dataset.endpoint.uri] for dataset in scenario.registry]

    def teardown(self) -> None:
        for graph in self.stores:
            graph.close()
        self.stores = []
        self.scenario = self.engine = self.oracle_engine = None

    def run_op(self, op: Op):
        if op.kind != "write":
            return super().run_op(op)
        from repro.rdf import RDF, Literal, Triple

        number = self.writes % len(self.stores)
        self.writes += 1
        graph = self.stores[number]
        builder, paper_class, title = self.vocabulary[number]
        tracing = self.tracer is not None and self.tracer.recording
        if tracing:
            before = directory_bytes(self.store_dirs[number])
        size = len(graph)
        segments = len(graph.store.segment_names)
        batch = self.definition["write_batch"]["papers"]
        for offset in range(batch):
            key = 1_000_000 + self.writes * batch + offset
            paper = builder.paper_uri(key)
            graph.add(Triple(paper, RDF.type, paper_class))
            graph.add(Triple(paper, title, Literal(f"benchmark paper {key}")))
        if len(graph.store.segment_names) == segments:
            raise RuntimeError(f"store {number}: a full write buffer did not flush")
        if self.writes % self.definition["compact_every_writes"] == 0:
            graph.store.compact()
        if len(graph) != size + 2 * batch:
            raise RuntimeError(f"store {number}: {len(graph) - size} triples added, "
                               f"expected {2 * batch}")
        if tracing:
            self.bytes_written += bytes_written(before, directory_bytes(self.store_dirs[number]))
            self.triples_written += 2 * batch
        return "write", None

    def expected(self, op: Op) -> list:
        key = (op.kind, op.person)
        if key not in self._oracle:
            uri = str(self.scenario.akt_person_uri(op.person))
            result = federate(self.oracle_engine, self.scenario, query_text(op.kind, uri),
                              "fanout")
            self._oracle[key] = canonical_rows(result.merged())
        return self._oracle[key]

    def disk_bytes_per_triple(self) -> float:
        on_disk = sum(entry.stat().st_size for directory in self.store_dirs
                      for entry in os.scandir(directory) if entry.is_file())
        return on_disk / sum(len(graph) for graph in self.stores)

    def end_of_timing(self) -> dict[str, float]:
        readings = super().end_of_timing()
        readings["disk_bytes_per_triple"] = self.disk_bytes_per_triple()
        return readings


class HttpCold(Workload):
    name = "http-cold"

    def setup(self) -> None:
        data = self.definition["data"]
        self.child_out = self.workdir / "child-spans.json"
        command = [
            sys.executable, str(HERE / "http_child.py"),
            "--persons", str(data["n_persons"]), "--papers", str(data["n_papers"]),
            "--rkb-coverage", str(data["rkb_coverage"]), "--seed", str(data["scenario_seed"]),
            "--timeout", str(self.definition["policy"]["timeout"]),
            "--spans", str(self.child_out),
        ]
        self.child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(),
        )
        ready, _, _ = select.select([self.child.stdout], [], [], 120)
        line = self.child.stdout.readline() if ready else ""
        if not line:
            self.stop_child()
            raise RuntimeError("http child process did not start")
        self.url = json.loads(line)["url"]
        self.next_tag = 0
        self.tag_lock = threading.Lock()
        self._oracle: dict[tuple[str, int], list] = {}
        self.recorded = False

    def stop_child(self) -> None:
        child = getattr(self, "child", None)
        if child is None:
            return
        try:
            child.stdin.write("stop\n")
            child.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait(timeout=10)
        child.stdout.close()
        self.child = None

    def teardown(self) -> None:
        self.stop_child()

    def prepare(self) -> None:
        from repro.datasets.akt import AktDatasetBuilder
        from repro.datasets.world import WorldModel
        from repro.federation.http_endpoint import HttpSparqlEndpoint

        data = self.definition["data"]
        world = WorldModel(n_persons=data["n_persons"], n_papers=data["n_papers"],
                           seed=data["scenario_seed"])
        self.persons = person_pool(world)
        self.akt_person_uri = AktDatasetBuilder.person_uri
        self.client = threading.local()
        self.client_class = HttpSparqlEndpoint
        self.oracle_scenario = None

    def set_recording(self, on: bool) -> None:
        self.recorded = self.recorded or on
        self.child.stdin.write("record\n" if on else "pause\n")
        self.child.stdin.flush()

    def run_op(self, op: Op):
        client = getattr(self.client, "endpoint", None)
        if client is None:
            client = self.client.endpoint = self.client_class(self.url, name="front")
        with self.tag_lock:
            self.next_tag += 1
            tag = f"_{self.next_tag}"
        text = query_text(op.kind, str(self.akt_person_uri(op.person)), tag)
        return "query", canonical_rows(client.select(text))

    def end_of_timing(self) -> dict[str, float]:
        self.stop_child()
        if self.recorded:
            if not self.child_out.exists():
                raise RuntimeError("the http child process wrote no spans")
            self.remote_reading = json.loads(self.child_out.read_text(encoding="utf-8"))
        return {"peak_rss_mb": peak_rss_mb(include_children=True)}

    def expected(self, op: Op) -> list:
        key = (op.kind, op.person)
        if key not in self._oracle:
            if self.oracle_scenario is None:
                self.oracle_scenario = build_scenario(self.definition)
            scenario = self.oracle_scenario
            uri = str(scenario.akt_person_uri(op.person))
            result = federate(scenario.service.federation, scenario,
                              query_text(op.kind, uri), "fanout")
            self._oracle[key] = canonical_rows(result.merged())
        return self._oracle[key]


WORKLOADS = {cls.name: cls for cls in (FanoutHot, DecomposeDiskRW, HttpCold)}

#: Wrappers that must fire in the traced phase of each workload.
REQUIRED_WRAPPERS = {
    "fanout-hot": layers.IN_PROCESS | {layers.COUNT_MEMORY_SCAN},
    "decompose-disk-rw": layers.IN_PROCESS | {
        layers.SPAN_DECOMPOSE, layers.COUNT_SEGMENT_SCAN,
        layers.SPAN_FLUSH, layers.SPAN_COMPACT,
    },
    "http-cold": layers.IN_PROCESS | {
        layers.COUNT_MEMORY_SCAN, layers.SPAN_HTTP_CALL, layers.SPAN_SERVER,
        layers.SPAN_WRITE, layers.SPAN_PARSE_RESULTS, layers.COUNT_THREAD,
    },
}


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by :func:`statistics.quantiles`."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
