"""
Running the whole verification suite from Python
================================================

Each registered check sweeps a family of groups or quandles and reports
every violated clause with a witness.  An empty failure list over an
exhaustive family is the verification.  Bounds are turned down here so the
script finishes in a few seconds; drop max_order to raise them.  The
mccarron census refuses a bound above 7, so 7 is the largest max_order that
every suite takes at once; at 7 the census alone takes about 0.2–0.3 s.
"""

import quandles as q

reports = q.run_suite(max_order=6)

width = max(len(r.theorem_id) for r in reports)
for rep in reports:
    status = "pass" if rep.passed else "FAIL"
    print(f"{rep.theorem_id:<{width}}  {status}  "
          f"{rep.instances_tested:>6} instances  {rep.elapsed:6.2f}s")
    for failure in rep.failures:
        print("   ", failure)

total = sum(r.instances_tested for r in reports)
print(f"\n{total} instances across {len(reports)} statements,",
      "all passed" if all(r.passed for r in reports) else "FAILURES above")

# each suite is a plain function that sweeps its family; run_suite adds
# the timing
rep = q.suite_bae_choe(12)
print("\nbae-choe alone at bound 12:", rep.instances_tested, "maps checked")

# and the instance-level checks take the group itself
rep = q.check_thm_takasaki_aut(q.make_abelian([3, 3]))
print("takasaki on (Z/3)^2:", "pass" if rep.passed else rep.failures[0])
print("  annotations:", rep.annotations)
