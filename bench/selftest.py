"""Show that the benchmark's checks count a wrong answer as a failed operation.

    python3 bench/selftest.py

Run from the repository root.  For each workload it has glcs answer a few
seeded inputs through the same round functions run.py uses, confirms that
the genuine answers pass, then corrupts each answer in the ways listed in
CORRUPTIONS and passes it to run.tally, the function that counts failures in
a run.  Exits 1 unless every genuine answer passes and every corrupted one
is counted as failed and wrong.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import run  # noqa: E402

SAMPLE = 3  # inputs per workload


def _bump_json(field: str, index: int):
    def corrupt(value):
        code, out = value
        payload = json.loads(out)
        payload[field][index] = str(int(payload[field][index]) + 1)
        return [code, json.dumps(payload)]
    return corrupt


def _set_json(field: str, new):
    def corrupt(value):
        code, out = value
        payload = json.loads(out)
        payload[field] = new(payload[field])
        return [code, json.dumps(payload)]
    return corrupt


def _fail_first_check(value):
    code, out = value
    payload = json.loads(out)
    payload["checks"][0]["pass"] = False
    return [code, json.dumps(payload)]


def _edit_line(command: int, key: str, new):
    """Rewrite the value of one 'key: value' line of a structure output."""
    def corrupt(value):
        codes, texts = value
        lines = texts[command].splitlines()
        for i, line in enumerate(lines):
            if line.startswith(key + ": "):
                lines[i] = f"{key}: {new(line[len(key) + 2:])}"
        texts = list(texts)
        texts[command] = "\n".join(lines)
        return [codes, texts]
    return corrupt


def _bump_last(text: str) -> str:
    *head, last = text.split()
    return " ".join(head + [str(int(last) + 1)])


def _drop_second(text: str) -> str:
    """The first and third vertices of an induced cycle become neighbours."""
    tokens = text.split()
    return " ".join(tokens[:1] + tokens[2:])


CORRUPTIONS = {
    "oracle_sweep": {
        "phi_4 off by one": lambda phi: phi[:3] + [phi[3] + 1],
        "phi_2 off by one": lambda phi: [phi[0], phi[1] - 1] + phi[2:],
    },
    "verify_cli": {
        "phi_oracle_3 off by one": _bump_json("phi_oracle", 2),
        "U_5 off by one": _bump_json("U", 5),
        "kappa_1 off by one": _bump_json("kappa", 1),
        "a failed check": _fail_first_check,
    },
    "chromatic": {
        "leading coefficient": _bump_json("chromatic", -1),
        "t^(n-2) coefficient": _bump_json("chromatic", -3),
        "middle coefficient": _bump_json("chromatic", 5),
        "chordal flag flipped": _set_json("chordal", lambda c: not c),
        "poincare coefficient": _bump_json("poincare", 2),
    },
    "sparse_structure": {
        "witness missing a vertex": _edit_line(0, "witness (chordless-cycle)",
                                               _drop_second),
        "chordal flag flipped": _edit_line(0, "chordal (supersolvable)",
                                           lambda v: "yes"),
        "last phi off by one": _edit_line(1, "phi", _bump_last),
        "glued U off by one": _edit_line(2, "U", _bump_last),
    },
}


def genuine_results(workload: str, items: list[dict]) -> list[dict]:
    if workload == "verify_cli":
        return run.cli_round(items, False).results
    return run.in_process_round(workload, items, False).results


def main() -> int:
    bad = 0
    for workload, corruptions in CORRUPTIONS.items():
        items = inputs.make_inputs(workload, 1)
        if workload == "chromatic":  # some of each kind
            items = items[:SAMPLE - 1] + items[-1:]
        else:
            items = items[-SAMPLE:]
        results = genuine_results(workload, items)
        failed, wrong = run.tally(workload, items, results)
        status = "ok" if failed == wrong == 0 else "FAIL"
        bad += status != "ok"
        print(f"{workload}: genuine answers, {failed} of {len(items)} failed: {status}")
        for what, corrupt in corruptions.items():
            broken = [{"ok": corrupt(copy.deepcopy(r["ok"]))} for r in results]
            with contextlib.redirect_stderr(io.StringIO()):
                failed, wrong = run.tally(workload, items, broken)
            status = "ok" if failed == wrong == len(items) else "FAIL"
            bad += status != "ok"
            print(f"{workload}: {what}, {failed} of {len(items)} failed: {status}")
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
