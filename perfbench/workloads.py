"""The three benchmark workloads.

Each workload drives the program only through its public entry points.
A run makes one workload object for its seed and uses it in three kinds
of process:

- :meth:`Workload.build` alone runs in fresh interpreters (set-up time);
- :meth:`Workload.probe` runs in processes forked, one per request, from
  a process that was itself forked right after the benchmark process
  built the inputs and runs nothing else: the first assembled SSSP
  answer with no cache warmed, handed back for checking;
- :meth:`Workload.prepare` and :meth:`Workload.run` run in the benchmark
  process: they build the references once, then repeat whole rounds of
  the workload's operations until the measuring time is spent, checking
  every answer outside the timed span.

With a :class:`~measure.Tracer` (``--trace 1``) the same code wraps the
per-layer entry points and passes an ``obs.Observer`` to the runtimes;
without one it wraps nothing and passes no observer.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import checks
from measure import Tracer, collect, median, tail

import repro.runtime.multiprocess as mp_module
import repro.runtime.threaded as threaded_module
import repro.serve.service as service_module
from repro import api
from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.pagerank import PageRankProgram, PageRankQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.bench import workloads as stand_ins
from repro.graph import analysis, generators
from repro.obs import (DS_DECISION, EPOCH_APPLY, ROUND_END, TERMINATE_PROBE,
                       Observer)
from repro.partition.edge_cut import HashPartitioner
from repro.serve import GraphService
from repro.serve.loadgen import LoadGenerator

#: power-law graph size (the Friendster stand-in at 20x its default)
POWERLAW_NODES = 40_000
POWERLAW_M = 3
#: PageRank query: damping and total unpropagated mass allowed
PR_DAMPING = 0.85
PR_EPSILON = 1.0


class Tally:
    """Operations attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: reasons of answers that disagreed with their reference
        self.wrong: List[str] = []
        #: reasons of operations that raised or were refused
        self.errors: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, wrong: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        (self.wrong if wrong else self.errors).append(reason)

    def judge(self, reason: Optional[str]) -> None:
        if reason is None:
            self.ok()
        else:
            self.fail(reason)

    def retract(self, reason: str) -> None:
        """Mark the last operation counted as passed as failed after
        all: a later check of the state it left disagreed."""
        self.failed += 1
        self.wrong.append(reason)


@contextlib.contextmanager
def maybe_span(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield


def mirror_nodes(pg: Any) -> int:
    return sum(len(frag.mirrors) for frag in pg)


def powerlaw_graph(seed: int) -> Any:
    return generators.powerlaw(POWERLAW_NODES, m=POWERLAW_M, weighted=True,
                               seed=seed)


def baseline_line(name: str, graph: Any, edges: checks.EdgeIndex,
                  source: Any) -> str:
    """Single-process baselines on the workload's graph (not gated)."""
    checks.sssp_reference(edges, source)  # scipy's first call imports
    collect()
    t0 = time.perf_counter()
    checks.sssp_reference(edges, source)
    t1 = time.perf_counter()
    checks.cc_reference(edges)
    t2 = time.perf_counter()
    analysis.dijkstra(graph, source)
    t3 = time.perf_counter()
    return (f"baseline {name}: scipy sssp {t1 - t0:.4f} s, scipy cc "
            f"{t2 - t1:.4f} s, sequential python dijkstra {t3 - t2:.4f} s")


def run_rounds(seconds: float, min_rounds: int, trace: bool,
               one_round: Callable[[bool], float],
               sides: List[Callable[[], None]]
               ) -> Tuple[List[float], List[float]]:
    """Repeat whole rounds until ``seconds`` have passed, and run each of
    ``sides`` once between two rounds when its time has come: side ``k``
    of ``n`` at ``(k + 0.5) / n`` of the window.

    In a traced run rounds alternate untraced/traced (at least
    ``min_rounds`` of each), so the tracing overhead is measured within
    one run; an untraced run never traces.  Returns the untraced and the
    traced round times.
    """
    plain: List[float] = []
    traced: List[float] = []
    pending = list(sides)
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds or pending
           or len(plain) < min_rounds
           or (trace and len(traced) < min_rounds)):
        with_trace = trace and k % 2 == 1
        (traced if with_trace else plain).append(one_round(with_trace))
        k += 1
        while pending and (time.perf_counter() - start >= seconds * (
                len(sides) - len(pending) + 0.5) / len(sides)):
            pending.pop(0)()
    return plain, traced


class Workload:
    """What the benchmark process, its cold probes and its set-up
    children share."""

    name = ""
    #: first answers per run, each in its own forked process
    cold_probes = 4
    #: fresh processes per run that only build the inputs
    setup_starts = 2
    min_rounds = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.edges: Optional[checks.EdgeIndex] = None

    def build(self, tracer: Optional[Tracer] = None) -> Any:
        """Make the inputs from the seed (the timed set-up)."""
        raise NotImplementedError

    def graph_of(self, inputs: Any) -> Any:
        return inputs[0]

    def cold_source(self, index: int) -> Any:
        raise NotImplementedError

    def cold_wraps(self) -> List[Tuple[Any, str, str]]:
        """``(owner, attribute, span)`` entry points timed in a traced
        first answer."""
        raise NotImplementedError

    def first_answer(self, inputs: Any, source: Any) -> Dict[Any, float]:
        """The first assembled SSSP answer from freshly built inputs."""
        raise NotImplementedError

    def probe(self, inputs: Any, index: int,
              tracer: Optional[Tracer]) -> Dict[str, Any]:
        """One cold first answer; runs in a process that holds the
        inputs as they were just built, with nothing else run."""
        source = self.cold_source(index)
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for owner, attr, name in self.cold_wraps():
                    stack.enter_context(tracer.wrap(owner, attr, name))
            start = time.perf_counter()
            answer = self.first_answer(inputs, source)
            took = time.perf_counter() - start
        return {"source": source, "first_answer_s": took,
                "values": [answer.get(v)
                           for v in self.graph_of(inputs).nodes]}

    def check_cold(self, out: Dict[str, Any]) -> Optional[str]:
        answer = dict(zip(self.edges.nodes, out["values"]))
        return checks.check_sssp(
            answer, self.edges,
            checks.sssp_reference(self.edges, out["source"]))


# ----------------------------------------------------------------------
# batch workloads: powerlaw-mp and traffic-sim
# ----------------------------------------------------------------------
class BatchWorkload(Workload):
    """Rounds of independent batch queries over one partitioned graph."""

    algorithms: Tuple[str, ...] = ()
    #: untimed rounds first, so each algorithm's memoized routes exist
    warmup_rounds = 0
    #: module whose ``Engine`` name builds the cold engine in this process
    engine_owner: Any = None
    #: per-layer prefix of the untraced query wall times
    layer = ""

    def execute(self, pg: Any, alg: str, source: Any,
                observer: Optional[Observer]) -> Any:
        raise NotImplementedError

    def round_ops(self, rng: random.Random) -> List[Tuple[str, Any]]:
        raise NotImplementedError

    def note_layers(self, row: Dict[str, float], alg: str, wall: float,
                    result: Any, observer: Observer) -> None:
        raise NotImplementedError

    def finish_row(self, row: Dict[str, float]) -> None:
        """Turn one traced round's sums into the reported figures."""

    def query(self, alg: str, source: Any) -> Tuple[Any, Any]:
        if alg == "sssp":
            return SSSPProgram(), SSSPQuery(source=source)
        if alg == "cc":
            return CCProgram(), CCQuery()
        return PageRankProgram(), PageRankQuery(
            damping=PR_DAMPING, epsilon=PR_EPSILON,
            num_nodes=POWERLAW_NODES)

    def cold_wraps(self):
        return [(self.engine_owner, "Engine", "engine.build")]

    def first_answer(self, inputs, source):
        return self.execute(inputs[1], "sssp", source, None).answer

    def prepare(self, inputs: Any, notes: List[str]) -> None:
        self.graph, self.pg = inputs
        self.edges = checks.EdgeIndex(self.graph)
        self.refs: Dict[str, Any] = {}
        notes.append(baseline_line(self.name, self.graph, self.edges,
                                   self.cold_source(0)))

    def check(self, alg: str, answer: Any, source: Any) -> Optional[str]:
        if alg == "sssp":
            return checks.check_sssp(
                answer, self.edges,
                checks.sssp_reference(self.edges, source))
        if alg not in self.refs:  # CC and PageRank take no source
            self.refs[alg] = (checks.cc_reference(self.edges)
                              if alg == "cc" else
                              checks.pagerank_reference(self.edges,
                                                        PR_DAMPING))
        if alg == "cc":
            return checks.check_cc(answer, self.edges, self.refs[alg])
        return checks.check_pagerank(answer, self.edges, self.refs[alg],
                                     PR_EPSILON, PR_DAMPING,
                                     mirror_nodes(self.pg))

    def run(self, seconds: float, trace: bool, tally: Tally,
            notes: List[str], sides: List[Callable[[], None]]
            ) -> Dict[str, float]:
        rng = random.Random(f"{self.seed}:warm")
        walls: Dict[str, List[float]] = {a: [] for a in self.algorithms}
        rows: List[Dict[str, float]] = []

        def one_round(traced: bool, record: bool = True) -> float:
            total = 0.0
            row: Dict[str, float] = {}
            collect()
            for alg, source in self.round_ops(rng):
                observer = Observer() if traced else None
                collect(full=False)
                start = time.perf_counter()
                try:
                    result = self.execute(self.pg, alg, source, observer)
                except Exception as exc:  # counted; the run goes on
                    tally.fail(f"{alg}: {exc!r}", wrong=False)
                    continue
                wall = time.perf_counter() - start
                total += wall
                tally.judge(self.check(alg, result.answer, source))
                if traced:
                    self.note_layers(row, alg, wall, result, observer)
                elif record:
                    walls[alg].append(wall)
            if traced:
                self.finish_row(row)
                rows.append(row)
            return total

        for _ in range(self.warmup_rounds):
            one_round(False, record=False)
        plain, traced = run_rounds(seconds, self.min_rounds, trace,
                                   one_round, sides)
        out = {"sssp_s": median(walls["sssp"]), "round_s": median(plain)}
        notes.append(f"{self.name}: " + ", ".join(
            f"{alg} {median(walls[alg]):.4f} s" for alg in self.algorithms)
            + f" (medians over {len(plain)} untraced rounds; round_s "
            f"{out['round_s']:.4f} s)")
        if trace:
            for name in rows[0]:
                out[name] = median([r[name] for r in rows])
            for alg in self.algorithms:
                out[f"{self.layer}.query_s.{alg}"] = median(walls[alg])
            out["partition.mirror_nodes"] = mirror_nodes(self.pg)
            out["tracing.overhead_s"] = median(traced) - median(plain)
        return out


class PowerlawMP(BatchWorkload):
    """SSSP, CC and PageRank on a 40k-node power-law graph, 2 fragments,
    vectorized AAP on the multiprocess runtime over the slab rings."""

    name = "powerlaw-mp"
    fragments = 2
    # the first run of each algorithm in a process builds its routes in
    # the master (about 1.2 s of a 1.4 s first SSSP)
    warmup_rounds = 1
    algorithms = ("sssp", "cc", "pagerank")
    engine_owner = mp_module  # the master's Engine in Assemble
    layer = "multiprocess"

    def cold_source(self, index: int) -> Any:
        return random.Random(f"{self.seed}:cold:{index}").randrange(
            POWERLAW_NODES)

    def build(self, tracer=None):
        with maybe_span(tracer, "graph.build"):
            graph = powerlaw_graph(self.seed)
        with maybe_span(tracer, "partition.build"):
            pg = HashPartitioner().partition(graph, self.fragments)
        return graph, pg

    def execute(self, pg, alg, source, observer):
        program, query = self.query(alg, source)
        return mp_module.MultiprocessRuntime(
            program, pg, query, mode="AAP", vectorized=True,
            observer=observer).run()

    def round_ops(self, rng):
        # two cheap queries of each kind per PageRank, so a round holds
        # as many SSSP samples as its length allows
        return [("sssp", rng.randrange(POWERLAW_NODES)), ("cc", None),
                ("sssp", rng.randrange(POWERLAW_NODES)), ("cc", None),
                ("pagerank", None)]

    def note_layers(self, row, alg, wall, result, observer):
        busy: Dict[int, float] = {}
        peval: Dict[int, float] = {}
        for e in observer.log.filter(type=ROUND_END):
            busy[e.wid] = busy.get(e.wid, 0.0) + e.payload["duration"]
            if e.payload["kind"] == "peval":
                peval[e.wid] = e.payload["duration"]
        slowest = max(busy.values())
        transport = result.extras["transport"]
        row.update({
            f"multiprocess.busy_s.{alg}": slowest,
            f"multiprocess.peval_s.{alg}": max(peval.values()),
            f"multiprocess.overhead_s.{alg}": wall - slowest,
            f"multiprocess.rounds.{alg}": max(result.rounds),
            f"multiprocess.probes.{alg}": len(
                observer.log.filter(type=TERMINATE_PROBE)),
            f"slab.bytes.{alg}": transport["shm_bytes"],
            f"slab.batches.{alg}": transport["shm_batches"],
            f"slab.queue_fallbacks.{alg}": transport["queue_fallbacks"],
        })


class TrafficSim(BatchWorkload):
    """SSSP and CC on the 72x72 traffic grid, 8 virtual workers in the
    deterministic simulator, generic PIE path, AAP, worker 0 a 4x
    straggler under the default cost model."""

    name = "traffic-sim"
    fragments = 8
    straggler = 0
    algorithms = ("sssp", "cc")
    engine_owner = api
    layer = "simulator"
    #: the grid's scale over the stand-in's 36x36 default: 72x72
    scale = 4.0
    #: a fixed source, the centre; README says why it is not drawn from
    #: the seed
    source = 36 * 72 + 36

    def cold_source(self, index: int) -> Any:
        return self.source

    def build(self, tracer=None):
        with maybe_span(tracer, "graph.build"):
            graph = stand_ins.traffic(scale=self.scale)
        with maybe_span(tracer, "partition.build"):
            pg = HashPartitioner().partition(graph, self.fragments)
        return graph, pg

    def execute(self, pg, alg, source, observer):
        program, query = self.query(alg, source)
        return api.run(program, pg, query, mode="AAP",
                       cost_model=stand_ins.default_cost(
                           straggler=self.straggler),
                       record_trace=False, observer=observer)

    def round_ops(self, rng):
        # a fixed order, so that every run times the same sequence
        # whatever its seed (a seeded order changes which query follows
        # the round's full collection)
        return [("sssp", self.source), ("cc", None)]

    def note_layers(self, row, alg, wall, result, observer):
        """Sum the round's simulator figures per algorithm."""
        m = result.metrics
        decisions = observer.log.filter(type=DS_DECISION)
        delayed = sum(1 for e in decisions
                      if e.payload["action"] in ("suspend",
                                                 "wake_scheduled"))
        for name, value in (
                ("simulator.makespan", m.makespan),
                ("simulator.bytes", m.total_bytes),
                (f"simulator.rounds.{alg}", m.total_rounds),
                (f"simulator.messages.{alg}", m.total_messages),
                (f"simulator.work.{alg}", m.total_work),
                (f"simulator.wall_s.{alg}", wall),
                (f"simulator.busy.{alg}", m.total_busy),
                (f"simulator.idle.{alg}", m.total_idle),
                (f"delay.decisions.{alg}", len(decisions)),
                (f"delay.delayed.{alg}", delayed)):
            row[name] = row.get(name, 0) + value

    def finish_row(self, row):
        for alg in self.algorithms:
            wall = row.pop(f"simulator.wall_s.{alg}")
            row[f"simulator.round_us.{alg}"] = \
                wall / row[f"simulator.rounds.{alg}"] * 1e6
            busy = row.pop(f"simulator.busy.{alg}")
            idle = row.pop(f"simulator.idle.{alg}")
            row[f"simulator.idle_ratio.{alg}"] = idle / (busy + idle)
            delayed = row.pop(f"delay.delayed.{alg}")
            row[f"delay.delayed_share.{alg}"] = \
                delayed / row[f"delay.decisions.{alg}"]


# ----------------------------------------------------------------------
# serve-mixed: a closed-loop client against the resident service
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    """One closed-loop client: skewed point reads with staleness bounds
    of 0, 1, 2 and 4 epochs mixed with 8-edge insertion batches, against
    a GraphService running SSSP on the 40k-node power-law graph (threaded
    runtime, 2 fragments, AAP)."""

    name = "serve-mixed"
    fragments = 2
    # a first answer builds the whole service (about 5 s)
    cold_probes = 3
    batch_edges = 8
    batches_per_block = 8
    reads_per_batch = 3
    bounds = (0, 1, 2, 4)
    skew = 2.0
    #: share of blocks after which the drained answer is checked in full
    check_share = 0.25
    #: bound-0 reads checked against scipy after the final flush
    final_reads = 8

    def cold_source(self, index: int) -> Any:
        return random.Random(f"{self.seed}:source").randrange(
            POWERLAW_NODES)

    def build(self, tracer=None):
        with maybe_span(tracer, "graph.build"):
            return powerlaw_graph(self.seed)

    def graph_of(self, inputs):
        return inputs

    def service(self, graph: Any) -> GraphService:
        query = SSSPQuery(source=self.cold_source(0))
        return GraphService(SSSPProgram(), graph, query,
                            num_fragments=self.fragments, mode="AAP",
                            runtime="threaded")

    def cold_wraps(self):
        # the service partitions, builds its engine and runs its one
        # PEval inside its constructor
        return [(service_module, "build_edge_cut", "partition.build"),
                (service_module, "Engine", "engine.build"),
                (threaded_module.ThreadedRuntime, "run", "serve.peval")]

    def first_answer(self, inputs, source):
        svc = self.service(inputs)
        svc.query(source, staleness_bound=0)
        return svc.answer

    def prepare(self, inputs: Any, notes: List[str]) -> None:
        self.edges = checks.EdgeIndex(inputs)
        notes.append(baseline_line(self.name, inputs, self.edges,
                                   self.cold_source(0)))
        self.svc = self.service(inputs)

    def run(self, seconds: float, trace: bool, tally: Tally,
            notes: List[str], sides: List[Callable[[], None]]
            ) -> Dict[str, float]:
        svc = self.svc
        client = Client(svc, f"{self.seed}:client", self)
        tracer = Tracer() if trace else None
        mirrors = mirror_nodes(svc.pg)

        def one_round(traced: bool) -> float:
            collect()
            if not traced:
                return client.block(tally, False)
            with self.wrapped(tracer):
                return client.block(tally, True)

        plain, traced_rounds = run_rounds(seconds, self.min_rounds, trace,
                                          one_round, sides)
        try:
            svc.flush()
        except Exception as exc:  # counted; the run goes on
            tally.fail(f"flush: {exc!r}", wrong=False)
        else:
            client.final_check(tally)
        fresh = client.fresh[False]
        out = {"sssp_s": median(client.one_epoch), "round_s": median(plain)}
        notes.append(
            f"{self.name}: {len(fresh)} fresh reads, {len(client.one_epoch)}"
            f" of them one epoch behind, median {out['sssp_s'] * 1e3:.2f} "
            f"ms; tail of all {tail(fresh) * 1e3:.2f} "
            f"ms; round_s {out['round_s']:.4f} s; "
            f"{client.edges_ingested} edges over {svc.epoch} epochs")
        if trace:
            out.update(self.layers(tracer, client))
            out["partition.mirror_nodes"] = mirrors
            out["tracing.overhead_s"] = \
                median(traced_rounds) - median(plain)
        return out

    @contextlib.contextmanager
    def wrapped(self, tracer: Tracer) -> Iterator[None]:
        def note_rounds(result: Any, span: Any) -> None:
            span.info["rounds"] = max(result.rounds)

        def note_size(answer: Any, span: Any) -> None:
            span.info["keys"] = len(answer)

        engine = self.svc.engine
        with contextlib.ExitStack() as stack:
            for owner, attr, name, note in (
                    (service_module, "grow_edge_cut", "partition.grow",
                     None),
                    (engine, "refresh_routes", "engine.refresh_routes",
                     None),
                    (threaded_module.ThreadedRuntime, "run",
                     "threaded.continuation", note_rounds),
                    (engine, "assemble", "engine.assemble", note_size)):
                stack.enter_context(tracer.wrap(owner, attr, name, note))
            yield

    def layers(self, tracer: Tracer, client: "Client") -> Dict[str, float]:
        """Per-epoch breakdown of the traced blocks' epoch applies."""
        parts = ("partition.grow", "engine.refresh_routes",
                 "threaded.continuation", "engine.assemble")
        spans = [s for s in tracer.spans if s.name in parts]
        per_part: Dict[str, List[float]] = {p: [] for p in parts}
        applies, others, shares, rounds = [], [], [], []
        epochs = self.svc.obs.log.filter(type=EPOCH_APPLY)
        for e in epochs:
            end = e.t
            begin = end - e.payload["duration"]
            inside = [s for s in spans if begin <= s.start <= end]
            if not inside:
                continue  # an untraced block's epoch
            applies.append(e.payload["duration"])
            for s in inside:
                per_part[s.name].append(s.duration)
                if s.name == "engine.assemble":
                    shares.append(e.payload["changed"] / s.info["keys"])
                elif s.name == "threaded.continuation":
                    rounds.append(s.info["rounds"])
            others.append(e.payload["duration"]
                          - sum(s.duration for s in inside))
        busy = client.ingest_s + sum(e.payload["duration"] for e in epochs)
        fresh = client.fresh[False] + client.fresh[True]
        return {
            "serve.ingest_us": median(client.ingest_lat) * 1e6,
            "serve.apply_ms": median(applies) * 1e3,
            "partition.grow_ms": median(per_part["partition.grow"]) * 1e3,
            "engine.refresh_routes_ms":
                median(per_part["engine.refresh_routes"]) * 1e3,
            "threaded.continuation_ms":
                median(per_part["threaded.continuation"]) * 1e3,
            "threaded.rounds_per_epoch": median(rounds),
            "engine.assemble_ms":
                median(per_part["engine.assemble"]) * 1e3,
            "serve.other_ms": median(others) * 1e3,
            "serve.changed_share": median(shares),
            "serve.fresh_reads": len(fresh),
            "serve.update_edges_per_s": client.edges_ingested / busy,
            "serve.fresh_read_tail_ms": tail(client.fresh[False]) * 1e3,
        }


class Client:
    """The closed-loop client of ``serve-mixed``.

    Keys and batches come from the program's own seeded
    :class:`~repro.serve.loadgen.LoadGenerator` (skewed keys, fresh
    edges, weights); the client adds the block structure.  A block is
    ``batches_per_block`` rounds of one insertion batch and
    ``reads_per_batch`` point reads, then one bound-0 read that drains
    the service, so every block applies the same number of epochs.  Half
    of a block's batches grow new nodes, the other half join existing
    ones.
    """

    def __init__(self, svc: GraphService, seed: str, spec: ServeMixed):
        self.svc = svc
        self.spec = spec
        self.gen = LoadGenerator(svc, seed=seed,
                                 batch_size=spec.batch_edges,
                                 skew=spec.skew,
                                 staleness_bounds=spec.bounds)
        #: batches the service accepted, counted here and not taken from
        #: the service, so a read's staleness is checked from outside
        self.accepted = 0
        #: fresh-read latencies (s), split by whether the block was traced
        self.fresh: Dict[bool, List[float]] = {False: [], True: []}
        #: untraced fresh reads that applied exactly one batch: a fresh
        #: read's latency is a multiple of the epochs it applies, and the
        #: mix of multiples depends on the seed
        self.one_epoch: List[float] = []
        self.ingest_lat: List[float] = []
        self.ingest_s = 0.0
        self.edges_ingested = 0

    def read(self, tally: Tally, bound: int, traced: bool,
             checked: bool) -> Tuple[float, Any, Any]:
        """One point read; returns its latency, key and value.

        In a checked block a bound-0 read's value is compared with the
        service's whole applied answer, which does not go through the
        read cache.
        """
        key = self.gen._pick_key()
        lag = self.accepted - self.svc.epoch
        start = time.perf_counter()
        try:
            result = self.svc.query(key, staleness_bound=bound)
        except Exception as exc:  # counted; the run goes on
            tally.fail(f"read: {exc!r}", wrong=False)
            return time.perf_counter() - start, key, None
        took = time.perf_counter() - start
        if lag > bound:
            self.fresh[traced].append(took)
            if lag - bound == 1 and not traced:
                self.one_epoch.append(took)
        reason = checks.check_staleness(self.accepted - result.epoch, bound,
                                        result.served)
        if reason is None and checked and bound == 0:
            reason = checks.check_value(key, result.value,
                                        self.svc.answer.get(key))
        tally.judge(reason)
        return took, key, result.value

    def ingest(self, tally: Tally, grow: bool) -> float:
        self.gen.grow_fraction = 1.0 if grow else 0.0
        batch = self.gen.next_batch()
        start = time.perf_counter()
        try:
            receipt = self.svc.ingest(batch)
        except Exception as exc:  # counted; the run goes on
            tally.fail(f"ingest: {exc!r}", wrong=False)
            return time.perf_counter() - start
        took = time.perf_counter() - start
        if not receipt.accepted:
            tally.fail(f"ingest shed: {receipt.reason}", wrong=False)
            return took
        tally.ok()
        self.accepted += 1
        self.ingest_lat.append(took)
        self.ingest_s += took
        self.edges_ingested += len(batch)
        return took

    def block(self, tally: Tally, traced: bool) -> float:
        rng = self.gen.rng
        checked = rng.random() < self.spec.check_share
        grows = [True, False] * (self.spec.batches_per_block // 2)
        rng.shuffle(grows)
        total = 0.0
        for grow in grows:
            total += self.ingest(tally, grow)
            for _ in range(self.spec.reads_per_batch):
                took, _, _ = self.read(
                    tally, rng.choice(self.spec.bounds), traced, checked)
                total += took
        took, key, value = self.read(tally, 0, traced, checked)
        total += took
        if checked:
            # the drain read left the service at staleness 0; a wrong
            # whole answer, or a wrong value read, fails that read
            reason = self.full_check({key: value})
            if reason is not None:
                tally.retract(reason)
        return total

    def full_check(self, reads: Dict[Any, Any]) -> Optional[str]:
        """The drained service's whole answer, and the values ``reads``
        returned at staleness 0, against scipy on the graph as it is now
        (outside any timed span)."""
        edges = checks.EdgeIndex(self.svc.graph)
        ref = checks.sssp_reference(edges, self.svc.pie_query.source)
        for key, value in reads.items():
            reason = checks.check_value(key, value, ref[edges.index[key]])
            if reason is not None:
                return reason
        return checks.check_sssp(self.svc.answer, edges, ref)

    def final_check(self, tally: Tally) -> None:
        """After the flush: ``final_reads`` bound-0 reads and the whole
        answer against scipy."""
        reads = {}
        for _ in range(self.spec.final_reads):
            key = self.gen._pick_key()
            try:
                reads[key] = self.svc.query(key, staleness_bound=0).value
            except Exception as exc:  # counted; the run goes on
                tally.fail(f"read: {exc!r}", wrong=False)
                return
        tally.judge(self.full_check(reads))


WORKLOADS = {w.name: w for w in (PowerlawMP, TrafficSim, ServeMixed)}
