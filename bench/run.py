"""Benchmark for glcs: one workload, timed, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; glcs is imported from src/ with no
install.  Workloads (see README.md in this directory):

    oracle_sweep      phi_bruteforce(g, 4) over the 112 connected 6-vertex classes
    verify_cli        one `python -m glcs.cli verify` process per graph, cold
    chromatic         glcs.cli.main(["chromatic", ...]) in process
    sparse_structure  classify, compute --degree 60 and decompose in process

Inputs come from the seed alone.  A round is one pass over them; rounds
repeat, each in a fresh process, for as many whole rounds as come closest
to --seconds.
Every answer is checked against answers.py, which shares no code with glcs.
Every time is scaled by the gauge (gauge.py) sampled in the same round, so
that the host's drift in speed does not show as a change of glcs.
The last line of stdout is one JSON object with correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  A traced run alternates untraced and traced rounds, takes
the layer metrics from the traced ones and reports the tracing overhead.
Spans, per-operation wall times and gauge samples are written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import answers  # noqa: E402
import gauge  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

# percentile behind latency_tail_s: the highest that leaves at least ten
# operations above it in the smallest run (one round; see README.md)
TAIL_PERCENT = {"oracle_sweep": 90, "verify_cli": 75, "chromatic": 97,
                "sparse_structure": 75}
# fresh starts timed for setup_s: this many before every round, and after
# the last round as many as bring the total to SETUP_MIN
SETUP_EACH = 3
SETUP_MIN = 12
VERIFY_ARGS = ["verify", "--oracle-degree", "4", "--format", "json"]
WORKER_TIMEOUT_S = 150

LAYER_METRICS = [
    # (metric, unit, key in spans.totals or a counter)
    ("holonomy.phi_bruteforce_s", "s", "holonomy.phi_bruteforce"),
    ("holonomy.degree2_s", "s", "holonomy.degree2"),
    ("holonomy.degree3_s", "s", "holonomy.degree3"),
    ("holonomy.degree4_s", "s", "holonomy.degree4"),
    ("holonomy.free_dim", "count", "holonomy.free_dim"),
    ("holonomy.ideal_rank", "count", "holonomy.ideal_rank"),
    ("holonomy.verify_mayer_vietoris_s", "s", "holonomy.verify_mayer_vietoris"),
    ("holonomy.presentation_s", "s", "holonomy.presentation"),
    ("formula.chromatic_polynomial_s", "s", "formula.chromatic_polynomial"),
    ("formula.chromatic_polynomial_calls", "count",
     "formula.chromatic_polynomial.calls"),
    ("formula.poincare_polynomial_s", "s", "formula.poincare_polynomial.self"),
    ("formula.glue_series_s", "s", "formula.glue_series"),
    ("formula.braid_series_s", "s", "formula.braid_series"),
    ("graphs.is_chordal_s", "s", "graphs.is_chordal"),
    ("graphs.decompose_s", "s", "graphs.decompose"),
    ("graphs.decompose_nodes", "count", "graphs.decompose.calls"),
    ("graphs.clique_vector_s", "s", "graphs.clique_vector"),
    ("graphs.parse_graph_s", "s", "graphs.parse_graph"),
    ("series.expand_product_s", "s", "series.expand_product"),
    ("series.phi_from_exponents_s", "s", "series.phi_from_exponents"),
    ("series.expand_lcs_product_s", "s", "series.expand_lcs_product"),
    ("cli.self_s", "s", "cli.main.self"),
    ("cli.output_bytes", "bytes", "cli.output_bytes"),
    ("cli.startup_s", "s", "cli.startup"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GLCS_MAX_DIM", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def job_bytes(workload: str, items: list[dict], trace: bool) -> bytes:
    return json.dumps({"workload": workload, "trace": trace,
                       "texts": [it["text"] for it in items]}).encode()


def setup_times(workload: str, items: list[dict], starts: int) -> list[dict]:
    """Fresh interpreters that import glcs and parse the inputs.

    Each start is timed from spawn until the child has parsed the inputs;
    the child then takes gauge samples, by which the time is scaled.
    """
    job = job_bytes(workload, items, False)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup"]
    out = []
    for _ in range(starts):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        proc = subprocess.run(cmd, input=job, check=True, cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE)
        data = json.loads(proc.stdout)
        wall = data["done"] - t0
        out.append({"wall_s": wall, "gauges": data["gauges"],
                    "scaled_s": wall * scale(data["gauges"])})
    return out


def scale(gauges: list[float]) -> float:
    """Factor that takes wall times to the gauge's reference speed."""
    return gauge.REF_S / statistics.fmean(gauges)


class Round:
    """What one pass over the inputs measured."""

    def __init__(self):
        self.times: list[float | None] = []
        self.results: list[dict] = []
        self.sizes: list[int] = []
        self.loop_s = 0.0
        self.gauges: list[float] = []
        self.rss_kb = 0
        self.traces: list[dict] = []  # one spans export per traced process

    @property
    def scale(self) -> float:
        return scale(self.gauges)


def in_process_round(workload: str, items: list[dict], trace: bool) -> Round:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "round"],
        input=job_bytes(workload, items, trace), capture_output=True,
        cwd=ROOT, env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"worker exited with {proc.returncode}")
    data = json.loads(proc.stdout)
    r = Round()
    r.times, r.results, r.sizes = data["times"], data["results"], data["sizes"]
    r.loop_s, r.gauges, r.rss_kb = data["loop_s"], data["gauges"], data["rss_kb"]
    if trace:
        r.traces.append(data["trace"])
    return r


def cli_round(items: list[dict], trace: bool) -> Round:
    """One cold `glcs verify` process per graph, one process at a time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli",
               spans_file, *VERIFY_ARGS]
    else:
        cmd = [sys.executable, "-m", "glcs.cli", *VERIFY_ARGS]
    env = child_env()
    r = Round()
    # the gauge runs here between the children, one process at a time
    sampler = gauge.Sampler()
    start = time.perf_counter()
    for it in items:
        sampler.maybe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, cwd=ROOT, env=env)
        try:
            proc.stdin.write(it["text"].encode())
            proc.stdin.close()
            out = proc.stdout.read()
        finally:
            # wait4 gives this child's own peak RSS; Popen.wait would not
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        wall = time.perf_counter() - t0
        r.times.append(wall)
        r.results.append({"ok": [proc.returncode, out.decode()]})
        r.sizes.append(len(out))
        r.rss_kb = max(r.rss_kb, usage.ru_maxrss)
        if trace:
            with open(spans_file, encoding="utf-8") as fh:
                export = json.load(fh)
            os.remove(spans_file)
            # perf_counter is one monotonic clock for all processes, so
            # start-up is spawn to the start of cli.main, less the tracer's
            # own set-up; writing the spans out and exiting are left out
            main_start = min(rec[1] for rec in export["spans"]
                             if export["names"][rec[0]] == "cli.main")
            export["counts"]["cli.startup"] = (
                main_start - t0 - export["counts"].pop("trace.build"))
            r.traces.append(export)
    r.loop_s = time.perf_counter() - start - sampler.paused
    r.gauges = sampler.finish()
    return r


def check(workload: str, item: dict, result: dict) -> tuple[bool, list[str]]:
    """(failed, problems): problems lists wrong answers, failed covers errors too."""
    if "error" in result:
        return True, []
    value = result["ok"]
    if workload == "oracle_sweep":
        problems = answers.check_oracle(item, value)
    elif workload == "sparse_structure":
        problems = answers.check_structure(item, *value)
    else:
        code, out = value
        if code != 0:
            return True, []
        try:
            payload = json.loads(out)
        except ValueError:
            return True, [f"stdout is not JSON: {out[:100]!r}"]
        if workload == "verify_cli":
            problems = answers.check_verify(item, code, payload)
        else:
            problems = answers.check_chromatic(item, code, payload)
    return bool(problems), problems


def tally(workload: str, items: list[dict], results: list[dict]) -> tuple[int, int]:
    """(failed, wrong) over one round; every wrong answer also counts as failed."""
    failed = wrong = 0
    for index, (item, result) in enumerate(zip(items, results, strict=True)):
        op_failed, problems = check(workload, item, result)
        failed += op_failed
        if problems:
            wrong += 1
            print(f"wrong answer to input {index}: {str(problems)[:300]}",
                  file=sys.stderr)
        elif op_failed:
            print(f"input {index} failed: {str(result)[:300]}", file=sys.stderr)
    return failed, wrong


def percentile(sorted_values: list[float], pct: int) -> float | None:
    """Nearest-rank percentile, or None where failed operations reach it.

    A failed operation enters as an infinite time, so the sample keeps one
    value per attempted operation and a failure counts as missing every
    latency limit.  TAIL_PERCENT leaves ten values above the rank in one
    round, so the rank always exists.
    """
    value = sorted_values[math.ceil(pct / 100 * len(sorted_values)) - 1]
    return None if math.isinf(value) else value


def end_to_end(workload: str, rounds: list[Round], setup: list[dict]) -> dict:
    """Times are scaled by each round's gauge (gauge.py); RSS is as measured."""
    times = sorted(math.inf if t is None else t * r.scale
                   for r in rounds for t in r.times)
    done = sum(t is not None for r in rounds for t in r.times)
    return {
        "ops_per_s": (done / sum(r.loop_s * r.scale for r in rounds), "op/s"),
        "latency_p50_s": (percentile(times, 50), "s"),
        "latency_tail_s": (percentile(times, TAIL_PERCENT[workload]), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in rounds) / 1024, "MB"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setup), "s"),
    }


def per_layer(plain: list[Round], traced: list[Round]) -> dict:
    """Per-operation totals over the traced rounds; times scaled by the gauge."""
    ops = sum(len(r.times) for r in traced)
    total: dict[str, float] = {}
    units = {key: unit for _, unit, key in LAYER_METRICS}
    for r in traced:
        for export in r.traces:
            for key, value in spans.totals(export).items():
                if units.get(key) == "s":
                    value *= r.scale
                total[key] = total.get(key, 0.0) + value
        total["cli.output_bytes"] = total.get("cli.output_bytes", 0) + sum(r.sizes)
    out = {name: (total.get(key, 0) / ops, unit)
           for name, unit, key in LAYER_METRICS}
    plain_rate = (sum(len(r.times) for r in plain)
                  / sum(r.loop_s * r.scale for r in plain))
    traced_rate = ops / sum(r.loop_s * r.scale for r in traced)
    out["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
    return out


def write_trace(path: str, workload: str, seed: int, traced: list[Round]):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for index, r in enumerate(traced):
            for process, export in enumerate(r.traces):
                names = export["names"]
                for nid, start, end, parent, op in export["spans"]:
                    fh.write(json.dumps({
                        "workload": workload, "seed": seed, "round": index,
                        "process": process, "name": names[nid], "start": start,
                        "end": end, "parent": parent, "op": op}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "glcs", "__init__.py")):
        print(f"error: no glcs sources under {ROOT}/src", file=sys.stderr)
        return 2

    items = inputs.make_inputs(args.workload, args.seed)
    # set-up is timed in untraced runs only, a few starts before every round
    # and some after the last, so that the samples span the whole run
    setup_each = 0 if args.trace else SETUP_EACH
    setup: list[dict] = []

    plain: list[Round] = []
    traced: list[Round] = []
    spent = 0.0
    attempted = failed = 0
    correct = True
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        setup += setup_times(args.workload, items, setup_each)
        if args.workload == "verify_cli":
            r = cli_round(items, trace)
        else:
            r = in_process_round(args.workload, items, trace)
        (traced if trace else plain).append(r)
        spent += r.loop_s
        n_failed, n_wrong = tally(args.workload, items, r.results)
        attempted += len(items)
        failed += n_failed
        correct = correct and n_wrong == 0
        rounds = len(plain) + len(traced)
        if args.trace and not traced:
            continue
        # stop where the run ends closest to --seconds in whole rounds
        if spent + spent / rounds / 2 >= args.seconds:
            break

    if not args.trace:
        setup += setup_times(args.workload, items,
                             max(SETUP_EACH, SETUP_MIN - len(setup)))
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(args.workload, plain, setup))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if traced:
        write_trace(stem + ".spans.jsonl.gz", args.workload, args.seed, traced)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "rounds": [
            {"traced": r in traced, "loop_s": r.loop_s, "rss_kb": r.rss_kb,
             "gauges": r.gauges, "times": r.times}
            for r in plain + traced]}, fh)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
