"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload powerlaw-mp --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric, with the names and units ``BENCHMARK.json`` at the
root of the checkout lists (see README.md).  Lines
before the last one are human-readable notes, among them the
single-process baselines.  The program is imported from ``src/`` of the
checkout; without it the benchmark exits with code 2.

A run has three phases:

1. build the inputs from the seed, and fork a process that holds them
   and runs nothing else: it forks each cold first answer later on, so
   each starts with the inputs built and no cache warmed, as a fresh
   process would after its set-up;
2. build the references the answers are checked against;
3. for ``--seconds``, repeat whole rounds of the workload's operations,
   and between two rounds, at times spread evenly over the window, run
   the cold first answers and start the fresh interpreters that only
   build the inputs (set-up time).  Every metric's samples thus span the
   whole window, so a slow minute of a shared machine moves a median
   less than if each kind of sample had its own shorter stretch.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from measure import (Tracer, median, peak_rss_mb,  # noqa: E402
                     stop_resource_tracker)

#: one cold first answer or one set-up may not take longer than this (s)
COLD_TIMEOUT = 120.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def span_layers(tracer: Any) -> Dict[str, float]:
    """First span of each name, as ``<name>_s``."""
    layers: Dict[str, float] = {}
    if tracer is not None:
        for span in tracer.spans:
            layers.setdefault(f"{span.name}_s", span.duration)
    return layers


def setup_child(workload: Any, traced: bool) -> int:
    """A fresh interpreter that only builds the inputs."""
    tracer = Tracer() if traced else None
    workload.build(tracer)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "rss_mb": peak_rss_mb(),
                      "layers": span_layers(tracer)}))
    return 0


def probe_main(workload: Any, inputs: Any, index: int, traced: bool,
               conn: Any) -> None:
    # its own process group, so that a probe that hangs is killed with
    # every process it started
    os.setpgrp()
    try:
        tracer = Tracer() if traced else None
        out = workload.probe(inputs, index, tracer)
        out["rss_mb"] = peak_rss_mb()
        out["layers"] = span_layers(tracer)
        conn.send(out)
        conn.close()
    finally:
        stop_resource_tracker()


def forker_main(workload: Any, inputs: Any, traced: bool, requests: Any,
                results: Any) -> None:
    """Fork one cold probe per index received, until ``None`` (or the
    benchmark process has gone); send back ``(answer or None, exit
    code)`` for each."""
    ctx = multiprocessing.get_context("fork")
    while True:
        try:
            index = requests.recv()
        except EOFError:
            return
        if index is None:
            return
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=probe_main,
                           args=(workload, inputs, index, traced, send))
        proc.start()
        send.close()
        out = None
        try:
            if recv.poll(COLD_TIMEOUT):
                out = recv.recv()
        except EOFError:
            pass
        finally:
            recv.close()
            proc.join(timeout=10.0)
            if proc.is_alive():
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.join()
        results.send((out, proc.exitcode))


class ProbeForker:
    """A process forked right after the inputs are built, which forks
    each cold probe on request.

    ``fork`` (not ``spawn``) is the point: a probe inherits the inputs
    just built and nothing else, however much the benchmark process has
    run since, because the forker itself runs nothing.  Nor has it
    imported scipy or built a reference, so a probe's peak resident set
    is the program's own.
    """

    def __init__(self, workload: Any, inputs: Any, traced: bool):
        ctx = multiprocessing.get_context("fork")
        requests, self._requests = ctx.Pipe(duplex=False)
        self._results, results = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=forker_main,
            args=(workload, inputs, traced, requests, results))
        self._proc.start()
        requests.close()
        results.close()

    def probe(self, index: int) -> Tuple[Optional[Dict[str, Any]], Any]:
        """One cold first answer: ``(answer or None, exit code)``."""
        self._requests.send(index)
        try:
            if self._results.poll(COLD_TIMEOUT + 30.0):
                return self._results.recv()
        except EOFError:
            pass
        return None, "no reply from the forker"

    def close(self) -> None:
        try:
            self._requests.send(None)
        except OSError:
            pass
        self._proc.join(timeout=COLD_TIMEOUT + 30.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._requests.close()
        self._results.close()


def setup_start(args: argparse.Namespace, index: int,
                tally: Any) -> Optional[Dict[str, Any]]:
    """Start one fresh interpreter; its set-up time runs from launch to
    inputs ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=COLD_TIMEOUT)
    except subprocess.TimeoutExpired:
        tally.fail(f"set-up {index} timed out", wrong=False)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        tally.fail(f"set-up {index} exited {proc.returncode}", wrong=False)
        return None
    tally.ok()
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("ready") - launched
    return out


def interleave(first: List[Callable[[], None]],
           second: List[Callable[[], None]]) -> List[Callable[[], None]]:
    """Merge two task lists so that each is spread evenly over the
    result (4 and 2 give a b a a b a)."""
    placed = [((i + 0.5) / len(first), 0, t) for i, t in enumerate(first)]
    placed += [((i + 0.5) / len(second), 1, t)
               for i, t in enumerate(second)]
    return [t for _, _, t in sorted(placed, key=lambda p: p[:2])]


def main(argv: List[str]) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_resource_tracker()


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return setup_child(workload, bool(args.trace))

    tally = Tally()
    notes: List[str] = []
    traced = bool(args.trace)
    probes: List[Dict[str, Any]] = []
    setups: List[Dict[str, Any]] = []
    inputs = workload.build()
    forker = ProbeForker(workload, inputs, traced)
    try:
        workload.prepare(inputs, notes)
        del inputs

        def cold(index: int) -> None:
            out, exitcode = forker.probe(index)
            if out is None:
                tally.fail(f"cold probe {index} gave no answer (exit "
                           f"{exitcode})", wrong=False)
            else:
                probes.append(out)

        def setup(index: int) -> None:
            out = setup_start(args, index, tally)
            if out is not None:
                setups.append(out)

        sides = interleave(
            [functools.partial(cold, i) for i in range(workload.cold_probes)],
            [functools.partial(setup, i)
             for i in range(workload.setup_starts)])
        measured = workload.run(args.seconds, traced, tally, notes, sides)
    finally:
        forker.close()
    for out in probes:
        tally.judge(workload.check_cold(out))

    measured["setup_s"] = median([o["setup_s"] for o in setups])
    measured["first_answer_s"] = median(
        [o["first_answer_s"] for o in probes])
    # only processes that hold the program and its inputs, never the
    # checker's references
    measured["peak_rss_mb"] = max(
        (o["rss_mb"] for o in probes + setups), default=0.0)
    layer_samples: Dict[str, List[float]] = {}
    for out in probes + setups:
        for name, value in out["layers"].items():
            layer_samples.setdefault(name, []).append(value)
    measured.update({k: median(v) for k, v in layer_samples.items()})
    notes.append(f"{args.workload}: setup_s {measured['setup_s']:.4f} s "
                 f"over {len(setups)} fresh processes, first_answer_s "
                 f"{measured['first_answer_s']:.4f} s over {len(probes)} "
                 f"cold probes")

    if args.trace:
        # a layer this workload bypasses did no work here
        metrics = {m["name"]: {"value": measured.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": measured[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for line in notes + tally.wrong + tally.errors:
        print(line)
    print(json.dumps({"correct": not tally.wrong,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
