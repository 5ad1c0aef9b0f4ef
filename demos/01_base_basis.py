"""Walk through the embedded order-5 basis.

The 61 tours below span everything any tour vector of order 5 can reach.
Each row owns a pivot edge that no later row touches, which is all it
takes to see they are independent: look at the pivot coordinate of each
row in turn, every later row is zero there.
"""

from htpbasis import base_basis_5, find_pivot_sequence, rank, verify_upper_triangular

basis = base_basis_5()
print(f"rows: {len(basis)}   certified: {basis.certified}")
print(f"certificate: rank={basis.certificate.rank} target={basis.certificate.target}")
print()

print("first five rows (tour ; pivot edge):")
for row in basis.rows[:5]:
    i, j, t = row.pivot
    print(f"  {' '.join(map(str, row.htp))}   ; pivot ({i},{j},{t})")
print("  ...")
print()

# The pivots can also be recovered from scratch: for each row take the
# lowest-indexed edge used by it and by no later row.
pivots = find_pivot_sequence(5, basis.perms())
print(f"recomputed pivot sequence: {len(pivots)} edges, all distinct:",
      len(set(pivots)) == 61)

# Independence double-checked the expensive way, by exact elimination.
print("exact rank of the 61 incidence vectors:",
      rank(basis.vectors()))

report = verify_upper_triangular(basis)
print()
print(report.to_text())
