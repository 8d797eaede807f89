"""The process that does the measured work; run.py starts one per round.

    python3 bench/worker.py round < job.json    one round, results as JSON
    python3 bench/worker.py setup < job.json    import glcs, parse the inputs
    python3 bench/worker.py cli FILE ARGS...    glcs.cli.main(ARGS), traced

A job is {"workload": ..., "texts": [...], "trace": bool}.  The round mode
imports glcs from the checkout's src/, times each operation with
time.perf_counter and prints one JSON object: per-operation times, results
and output sizes, the loop's wall time without the gauge samples taken
between operations (gauge.py), the samples, its own peak RSS and, when
traced, its spans.  The setup mode prints when it finished and three gauge
samples taken after that.  The cli mode is one traced verify_cli operation:
it leaves stdout to glcs and writes its spans to FILE.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gauge  # noqa: E402

ORACLE_DEGREE = 4
# the sweep measures the oracle itself, so the size gates are lifted
ORACLE_CAPS = {"max_dim": 10**9, "max_entries": 10**12}
CHROMATIC_ARGS = ["chromatic", "--format", "json"]
STRUCTURE_ARGS = (["classify"], ["compute", "--degree", "60"], ["decompose"])


def run_cli(glcs, args, text: str) -> tuple[int, str]:
    """glcs.cli.main(args) with text on stdin; returns exit code and stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = glcs.cli.main(args)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def top_level(text: str) -> str:
    """The unindented lines of glcs text output: the tree's root and summary."""
    return "\n".join(line for line in text.splitlines() if not line.startswith(" "))


# Each operation returns (result, bytes written to stdout).

def oracle_op(glcs, graph):
    return list(glcs.phi_bruteforce(graph, ORACLE_DEGREE, **ORACLE_CAPS)), 0


def chromatic_op(glcs, text):
    code, out = run_cli(glcs, CHROMATIC_ARGS, text)
    return [code, out], len(out.encode())


def structure_op(glcs, text):
    codes, texts, size = [], [], 0
    for args in STRUCTURE_ARGS:
        code, out = run_cli(glcs, args, text)
        codes.append(code)
        texts.append(out)
        size += len(out.encode())
    # only the summary lines are checked; the deeper tree lines stay here
    return [codes, [top_level(t) for t in texts]], size


OPS = {"oracle_sweep": oracle_op, "chromatic": chromatic_op,
       "sparse_structure": structure_op}


def round_main(job) -> dict:
    import glcs
    import glcs.cli

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    op = OPS[job["workload"]]
    if op is oracle_op:
        args = [glcs.parse_graph(t) for t in job["texts"]]
    else:
        args = job["texts"]
    times, results, sizes = [], [], []
    sampler = gauge.Sampler()
    start = time.perf_counter()
    for i, arg in enumerate(args):
        sampler.maybe()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result, size = op(glcs, arg)
                times.append(time.perf_counter() - t0)
            else:
                with tracer.op(i) as span:
                    result, size = op(glcs, arg)
                times.append(span[2] - span[1])
            results.append({"ok": result})
            sizes.append(size)
        except Exception as exc:  # counted as a failed operation by run.py
            times.append(None)
            results.append({"error": f"{type(exc).__name__}: {exc}"})
            sizes.append(0)
    loop_s = time.perf_counter() - start - sampler.paused
    out = {
        "times": times,
        "loop_s": loop_s,
        "gauges": sampler.finish(),
        "results": results,
        "sizes": sizes,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def setup_main(job) -> dict:
    import glcs

    for text in job["texts"]:
        glcs.parse_graph(text)
    # run.py times the start from spawn to here; perf_counter is one
    # monotonic clock for all processes.  The gauge comes after.
    done = time.perf_counter()
    return {"done": done, "gauges": [gauge.run() for _ in range(3)]}


def cli_main(spans_file: str, args: list[str]) -> int:
    import glcs.cli
    from spans import Tracer

    built = time.perf_counter()
    tracer = Tracer()
    # run.py subtracts the tracer's set-up from the start-up it reports
    tracer.count("trace.build", time.perf_counter() - built)
    with tracer.op(0):
        code = glcs.cli.main(args)
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return cli_main(sys.argv[2], sys.argv[3:])
    job = json.load(sys.stdin)
    if mode == "setup":
        json.dump(setup_main(job), sys.stdout)
    elif mode == "round":
        json.dump(round_main(job), sys.stdout)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
