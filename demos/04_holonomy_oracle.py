"""
Holonomy Lie algebra from scratch
=================================

The independent check behind everything else: present the holonomy Lie
algebra on edge generators, build the graded pieces of its enveloping
algebra by exact integer elimination, read the Lie ranks off their
dimensions through the Poincare-Birkhoff-Witt theorem, and compare them
with the closed-form clique formula.  Past degree 3, phi_bruteforce
counts normal words instead: K5's relators already form a quadratic
Groebner basis, and a wheel's are completed to one degree by degree, by
adding the rules that resolve their overlaps.  graded_dims, given no
graph, eliminates.

The oracle never sees the clique counts or the exponents; the two routes
share nothing but the graph and truncated series arithmetic.
"""

from glcs import (
    clique_vector,
    complete_graph,
    graded_dims,
    graph_from_edges,
    graphic_exponents,
    phi_bruteforce,
    phi_from_exponents,
    presentation,
    witt_dimension,
)

# one triangle: three generators, two independent relations
g = complete_graph(3)
p = presentation(g)
print(f"K3 presentation: {p.num_generators} generators, {len(p.relators)} relators")
for rel in p.relators:
    terms = " + ".join(f"{c}*[x{a},x{b}]" for (a, b), c in rel)
    print("  relator:", terms)

dims = graded_dims(p, 4)
print("free Lie dims:   ", dims.free_dims)
print("relation ideal:  ", dims.ideal_dims)
print("holonomy (= phi):", dims.quotient_dims)

# the quotient dimensions are exactly the LCS ranks
assert dims.quotient_dims == phi_from_exponents(
    graphic_exponents(clique_vector(g)), 4
)

# scale check: K5 has 10 edge generators; degree 4 of the free Lie
# algebra already has Witt dimension 2475
print()
print("witt_dimension(10, k) for k = 1..4:",
      [witt_dimension(10, k) for k in range(1, 5)])

g5 = complete_graph(5)
phi_oracle = phi_bruteforce(g5, 4)
phi_formula = phi_from_exponents(graphic_exponents(clique_vector(g5)), 4)
print("K5 oracle ranks: ", phi_oracle)
print("K5 formula ranks:", phi_formula)
assert phi_oracle == phi_formula

# a graph where the two relator shapes mix: triangle with a pendant edge
g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
print()
print("triangle + pendant edge:")
print("  oracle: ", phi_bruteforce(g, 4))
print("  formula:", phi_from_exponents(graphic_exponents(clique_vector(g)), 4))

# the wheel on a 5-cycle: its relators are no quadratic Groebner basis in
# the letter order read off its edges, so degree 3 adds the rules that
# resolve their overlaps, and degrees 4 and 5 are counted from them
wheel = graph_from_edges(
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] + [(i, 5) for i in range(5)]
)
phi_oracle = phi_bruteforce(wheel, 5)
phi_formula = phi_from_exponents(graphic_exponents(clique_vector(wheel)), 5)
print()
print("wheel on a 5-cycle, to degree 5:")
print("  oracle: ", phi_oracle)
print("  formula:", phi_formula)
assert phi_oracle == phi_formula
