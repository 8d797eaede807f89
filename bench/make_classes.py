"""Write one edge list per isomorphism class of connected graphs on 6 vertices.

Run from the repository root to make bench/data/connected6.txt anew:

    python3 bench/make_classes.py > bench/data/connected6.txt

Every labelled graph on 6 vertices is visited once; a graph is kept when it
is connected and its canonical form (see inputs.canonical_form) is new.  The
output lists the classes by edge count, then by canonical form, one class a
line as space-separated two-digit vertex pairs.  It should hold 112 lines
(OEIS A001349).
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import CLASS_VERTICES, canonical_form, is_connected  # noqa: E402


def main() -> int:
    n = CLASS_VERTICES
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if not is_connected(n, edges):
            continue
        seen.add(canonical_form(n, edges))
    for canon in sorted(seen, key=lambda c: (len(c), c)):
        print(" ".join(f"{u}{v}" for u, v in canon))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
