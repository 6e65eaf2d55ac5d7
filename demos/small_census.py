"""
Census of quandles with at most five elements
=============================================

Exhaustive enumeration by backtracking over table columns, then grouping
into isomorphism classes.  The class counts match the published sequence
1, 1, 3, 7, 22 and the labeled counts 1, 1, 5, 36, 404.  The census in
``check_mccarron_bound`` reaches the same classes without pairwise tests,
through relabeling orbits; this walkthrough uses the plain pairwise form.
"""

from collections import defaultdict

import quandles as q

for order in range(1, 6):
    tables = list(q.enumerate_quandle_tables(order))

    # compare each table with every class found so far; quandle_isomorphic
    # screens most pairs by their column cycle types before any search
    classes = []
    for x in tables:
        for rep in classes:
            if q.quandle_isomorphic(x, rep) is not None:
                break
        else:
            classes.append(x)
    print(f"order {order}: {len(tables):>3} labeled tables, {len(classes):>2} classes")

# how many of the order-3 classes are connected?
tables3 = list(q.enumerate_quandle_tables(3))
flags = defaultdict(int)
for x in tables3:
    flags[q.is_connected(x)] += 1
print("\norder 3 labeled tables by connectivity:", dict(flags))

# the dihedral quandle R_3 is the unique 3-transitive quandle of any order
r3 = q.dihedral(3)
print("R_3 inner group 3-transitive:", q.inner_group(r3).is_k_transitive(3))
rep = q.check_mccarron_bound(1, 5)
print("no 3-transitive quandle of order 4 or 5:", rep.passed)
print("classes found per order:",
      {k: v for k, v in rep.annotations.items() if k.startswith("classes")})
