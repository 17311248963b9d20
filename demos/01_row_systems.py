#!/usr/bin/env python3
"""Row systems: exact matrices, membership tests, bounded cut lists.

Everything runs on exact rationals; there is no floating point anywhere,
so membership answers are decisions, not tolerances.
"""

from kirchgraph import build_row_system, enumerate_bounded_cuts

# The columns are the edge vectors.  s1 and s2 span the lattice; s3 and
# s4 are the diagonals, so the dependency coefficients are half-integers
# and the normalization scales everything by q = 2.
square = build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]])

print("row matrix R:")
for row in square.R:
    print("   ", row)
print("null matrix N (columns span the null space):")
for row in square.N:
    print("   ", row)
print("q =", square.q)

# Vertex cuts of a Kirchhoff graph must lie in Row(R).  Note that
# (1, 1, 1, 0) is a member even though no integer combination of the two
# rows produces it: the coefficients are (1/2, 1/2).
for probe in [(1, 1, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0)]:
    print(f"{probe} in Row(R):", square.contains_in_row_space(probe))

# Cycle vectors must lie in Null(R); closing a walk kills the geometry,
# so this holds automatically for any closed walk on the lattice.
print("(-1, 0, 1, 1) in Null(R):", square.contains_in_null_space((-1, 0, 1, 1)))

# All integer row-space vectors within a sup-norm bound, in one scan of
# the finite coefficient grid.  These are the cut candidates the
# enumerator assigns to vertices.
cuts = enumerate_bounded_cuts(square, 2)
print(f"\n{len(cuts)} cut candidates with entries in [-2, 2]:")
for cut in cuts:
    print("   ", cut)
