"""
Building finite quandles from groups
====================================

Every construction in the library starts from a finite group given by its
multiplication table.  This script builds one quandle of each kind, prints
the operation table, and round-trips it through the text file format.
"""

import os
import tempfile

import quandles as q

# the dihedral quandle on 5 points: a * b = 2b - a mod 5
r5 = q.dihedral(5)
print("dihedral quandle R_5")
print(q.quandle_to_text(r5))

# the same table arises from the Takasaki construction on Z/5
z5 = q.make_cyclic(5)
t5 = q.takasaki(z5)
print("takasaki on Z/5 equals R_5:", t5.table.tolist() == r5.table.tolist())

# an Alexander quandle needs an automorphism; scalars act coordinatewise
g9 = q.make_abelian([3, 3])
phi = q.scalar_map(g9, 2)
a9 = q.alexander(g9, phi)
print("\nalexander quandle on (Z/3)^2 with scalar 2, order", a9.order)

# conjugation quandle of a non-abelian group: a * b = b^-1 a b
s3 = q.make_symmetric(3)
c6 = q.conj_quandle(s3, 1)
print("conjugation quandle of S_3")
print(q.quandle_to_text(c6))

# conjugation in an abelian group does nothing, so the quandle is trivial
z6 = q.make_cyclic(6)
print("conj over Z/6 is the trivial quandle:",
      all(q.conj_quandle(z6, 1).op(a, b) == a for a in range(6) for b in range(6)))

# tables written to disk validate on the way back in
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a9.qnd")
    q.save_quandle(a9, path)
    back = q.load_quandle(path)
print("\nfile round trip preserved the table:", back.table.tolist() == a9.table.tolist())

# validate_axioms rejects anything that is not a quandle and names the
# first broken axiom
try:
    q.validate_axioms([[0, 1], [1, 0]])
except q.QuandleAxiomError as err:
    print("rejected a non-quandle:", err)
