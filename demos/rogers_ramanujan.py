"""The counting coincidence that started it all.

Partitions of m with every part congruent to 1 or 4 mod 5 are equinumerous
with partitions of m whose parts are pairwise at least two apart (part
frequencies satisfying f_j + f_{j+1} <= 1).  The second family is exactly
what the rank-1 difference conditions carve out of the single-color
partition monoid, so the gap-two column is counted as the graded series
of the rank-1 level-1 subspace basis.
"""

from cpbasis import BasisKind, graded_series, rr_counts

M = 20

print(f"m <= {M}: partitions with parts = 1,4 mod 5  vs  gap-two partitions")
print(" m   congruence   gap-two")
for m, cong, gap in rr_counts(M):
    marker = "" if cong == gap else "  <-- MISMATCH"
    print(f"{m:2d}   {cong:10d}   {gap:7d}{marker}")

print()
print("graded series of the rank-1 level-1 subspace basis (the gap-two column):")
print("  ", graded_series(BasisKind("fs", 1, 1), M).coeffs)
