"""Build certified bases beyond the embedded order-5 table.

Each order reuses the previous basis: new structured rows park the new
city on day 1, the old rows are lifted by parking it on day n, and the
remaining rank deficit is filled with explicit completion rows that park
it on an interior day between fixed neighbours: (n-2)(2n-3) tours, exactly
the deficit (n-1)(2n-5)+1, with no search and no random tours.  Each order
is reordered so every row again owns a private pivot edge, which proves the
orders below the requested one independent; only the requested order is
also certified by a rank over GF(2), which verify rechecks exactly.

Pass a maximum order as the first argument (default 8, try 9).
"""

import sys
import time

from htpbasis import build, dimension_upper_bound, verify_upper_triangular

max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 8

print(f"{'n':>3} {'rows':>5} {'families':>9} {'lifted':>7} {'added':>6} "
      f"{'rank':>5} {'time':>8}")
for n in range(6, max_n + 1):
    t0 = time.monotonic()
    basis = build(n)
    elapsed = time.monotonic() - t0
    d = basis.certificate.details
    print(f"{n:>3} {len(basis):>5} {d['families']:>9} {d['lifted']:>7} "
          f"{d['added']:>6} {basis.certificate.rank:>5} {elapsed:>7.2f}s")
    assert len(basis) == dimension_upper_bound(n)

print()
basis = build(max_n)
report = verify_upper_triangular(basis)
print(f"independent recheck of the order-{max_n} basis:",
      "PASS" if report.passed else "FAIL")
print("wall time grows roughly with n^5: each level reuses the previous")
print("basis and adds O(n^2) family rows plus O(n^2) completion rows.")
