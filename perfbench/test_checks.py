"""The benchmark's own tests: every answer check rejects a corrupted
answer, and the benchmark refuses to run without the program.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import measure  # noqa: E402

from repro import api  # noqa: E402
from repro.algorithms.cc import CCProgram, CCQuery  # noqa: E402
from repro.algorithms.pagerank import (PageRankProgram,  # noqa: E402
                                       PageRankQuery)
from repro.algorithms.sssp import SSSPProgram, SSSPQuery  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.serve import GraphService  # noqa: E402
from repro.serve.cache import QueryCache  # noqa: E402
from repro.streaming.updates import UpdateBatch  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    g = generators.powerlaw(300, m=3, weighted=True, seed=5)
    # a second component, so CC has a partition to get wrong
    g.add_edge(1000, 1001, 2.0)
    g.add_edge(1001, 1002, 3.0)
    return g


@pytest.fixture(scope="module")
def edges(graph):
    return checks.EdgeIndex(graph)


def test_sssp_accepts_the_program_and_rejects_one_distance_off(graph,
                                                               edges):
    answer = api.run(SSSPProgram(), graph, SSSPQuery(source=0),
                     num_fragments=3).answer
    ref = checks.sssp_reference(edges, 0)
    assert checks.check_sssp(answer, edges, ref) is None
    bad = dict(answer)
    bad[17] += 1.0
    assert "node 17" in checks.check_sssp(bad, edges, ref)
    unreachable = dict(answer)
    unreachable[17] = float("inf")
    assert checks.check_sssp(unreachable, edges, ref) is not None
    missing = dict(answer)
    del missing[17]
    assert checks.check_sssp(missing, edges, ref) is not None


def test_cc_accepts_the_program_and_rejects_a_split_component(graph,
                                                              edges):
    answer = api.run(CCProgram(), graph, CCQuery(), num_fragments=3).answer
    ref = checks.cc_reference(edges)
    assert checks.check_cc(answer, edges, ref) is None
    split = dict(answer)
    split[42] = -1  # node 42 alone in a component of its own
    assert checks.check_cc(split, edges, ref) is not None
    merged = dict(answer)
    merged[1000] = merged[0]
    merged[1001] = merged[0]
    merged[1002] = merged[0]
    assert checks.check_cc(merged, edges, ref) is not None


def test_pagerank_accepts_the_program_and_rejects_a_rank_too_high(graph,
                                                                  edges):
    pg = api.partition_graph(graph, 3)
    mirrors = sum(len(frag.mirrors) for frag in pg)
    query = PageRankQuery(damping=0.85, epsilon=1e-3,
                          num_nodes=graph.num_nodes)
    answer = api.run(PageRankProgram(), pg, query).answer
    ref = checks.pagerank_reference(edges, 0.85)

    def check(candidate):
        return checks.check_pagerank(candidate, edges, ref, 1e-3, 0.85,
                                     mirrors)

    assert check(answer) is None
    high = dict(answer)
    high[7] = ref[edges.index[7]] + 1e-6
    assert "above the reference" in check(high)
    low = {v: 0.5 * r for v, r in answer.items()}
    assert "L1 gap" in check(low)


def test_staleness_rejects_a_read_staler_than_its_bound(graph):
    svc = GraphService(SSSPProgram(), graph, SSSPQuery(source=0),
                       num_fragments=2, runtime="simulated")
    svc.ingest(UpdateBatch.of((0, 5000, 1.0)))
    svc.ingest(UpdateBatch.of((1, 5001, 1.0)))
    stale = svc.query(5, staleness_bound=2)
    assert stale.staleness == 2
    assert checks.check_staleness(stale.staleness, 2) is None
    assert checks.check_staleness(stale.staleness, 1) is not None
    assert checks.check_staleness(0, 0, served=False) is not None


def test_read_check_rejects_a_value_the_cache_kept_past_its_epoch(
        graph, monkeypatch):
    svc = GraphService(SSSPProgram(), graph, SSSPQuery(source=0),
                       num_fragments=2, runtime="simulated")
    before = svc.query(1000, staleness_bound=0)  # cached: unreachable
    assert checks.check_value(1000, before.value, svc.answer[1000]) is None
    # a lost invalidation
    monkeypatch.setattr(QueryCache, "invalidate", lambda self, keys: 0)
    svc.ingest(UpdateBatch.of((0, 1000, 1.0)))
    after = svc.query(1000, staleness_bound=0)
    assert after.value == float("inf")  # the stale cached distance
    assert svc.answer[1000] == 1.0
    assert checks.check_value(1000, after.value,
                              svc.answer[1000]) is not None
    edges = checks.EdgeIndex(svc.graph)
    ref = checks.sssp_reference(edges, 0)
    assert checks.check_value(1000, after.value,
                              ref[edges.index[1000]]) is not None
    assert checks.check_value(1000, 1.0, ref[edges.index[1000]]) is None
    assert checks.check_value(1000, None, 1.0) is not None


def test_tail_keeps_ten_samples_beyond_it():
    assert measure.tail(list(range(100))) == 89  # p90 of 0..99
    assert measure.tail(list(range(1000))) == 989  # p99
    assert measure.tail([3.0, 1.0, 2.0]) == 2.0  # too few: the median


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traffic-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
