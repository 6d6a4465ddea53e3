#!/usr/bin/env python3
"""Walkthrough: posets, order queries, interval modules, births and deaths.

Run with  python demos/01_posets_intervals_births.py
"""

from gpmod import (
    FieldSpec,
    PROPERTY_M,
    births,
    build_poset,
    chain,
    deaths,
    grid_poset,
    hat,
    interval_module,
    is_connected,
    lambda_map,
    mub,
    up_set,
)

F = FieldSpec(101)

# A poset is built from "first <= second" pairs; redundant pairs are fine,
# the stored cover relation is the transitive reduction.
diamond = build_poset(["a", "b", "c", "d"],
                      [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                       ("a", "d")],  # redundant, reduced away
                      name="diamond")
print("covers:", diamond.covers)
print("upset of b:", up_set(diamond, ["b"]).ids())

# Minimal upper bounds, and the closure collecting them over all subsets.
print("mub{b,c} =", mub(diamond, ["b", "c"]).ids())
print("hat{b,c} =", hat(diamond, ["b", "c"]).ids())

# Finite posets always satisfy the boundedness hypotheses (property M).
print("property M:", PROPERTY_M)

# An interval module is 1-dimensional on a betweenness-closed subset with
# identity maps inside.  Births sit at its minimal elements.
m = interval_module(diamond, ["b", "c", "d"], F)
print("\ninterval {b,c,d}:")
print("  births:", births(m, diamond.whole()).ids())
print("  deaths:", deaths(m, diamond.whole()).ids())

# The death at d happens because below d the interval splits into the two
# incomparable legs b and c: two classes merge into one dimension.
print("  {b,c} connected?", is_connected(diamond, ["b", "c"]))
lam = lambda_map(m, diamond.whole(), "d")
print("  comparison map into M(d):", lam.tolist(), "(2-dim source, 1-dim target)")

# On a grid, minimal upper bounds are componentwise maxima.
g = grid_poset([3, 3])
print("\n3x3 grid:", len(g), "elements,", len(g.covers), "covers")
print("mub{(1,0),(0,1)} =", mub(g, ["(1,0)", "(0,1)"]).ids())

# Chains: the two-step composite map is the product of the cover maps.
c3 = chain(3)
print("\nchain covers:", c3.covers)
