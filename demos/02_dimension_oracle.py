"""Brute-force the span dimension of all tours at small orders.

Every permutation of 1..n is a tour; its incidence vector has n+1 ones.
The oracle walks the tours in lexicographic order and ranks their
vectors by exact elimination.  Tours that share a set of visited cities
and a last city have the same completions, so after the first such
prefix every later one adds at most one new direction, and the oracle
scans one tour for it while still counting all n!.  From order 5 on the
measured value lands exactly on n(n-1)(n-2)+1; order 4 is below that
formula (there are only 24 tours).
"""

from htpbasis import dimension_upper_bound, edge_count, full_dimension

print(f"{'n':>3} {'tours':>6} {'edges':>6} {'dim':>5} {'n(n-1)(n-2)+1':>14} {'time':>8}")
for n in range(4, 10):
    report = full_dimension(n, cap=n)
    formula = dimension_upper_bound(n) if n >= 5 else "-"
    print(f"{n:>3} {report.htp_count:>6} {edge_count(n):>6} "
          f"{report.dimension:>5} {str(formula):>14} {report.elapsed:>7.2f}s")

print()
print("order 4 sits below the formula: 24 tours only reach dimension 23,")
print("which is why the certified construction starts at order 5.")
