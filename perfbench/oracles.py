"""Expected answers, from closed forms and published counts.

Nothing here imports ``quandles``: a mismatch between these values and the
program's output counts as a failed item.

Closed forms used for the analyze-stream families, where the affine quandle
Aff(A, u) on A = (Z/m)^k has a * b = u a + (1 - u) b with u and 1 - u units
(the dihedral and Takasaki quandles are u = -1):

  |Aut Aff((Z/m)^1, u)| = m phi(m)        every x -> v x + c, v a unit
  |Aut Aff((Z/p)^k, u)| = p^k |GL_k(p)|   scalar u commutes with all of GL_k
  |Inn Aff(A, u)|       = |A| ord(u)      x -> u^i x + c; 1 - u is a unit
  |Aut trivial(n)| = n!,  |Inn trivial(n)| = 1
  |Inn Conj(G)|         = |G : Z(G)|

There is no closed form for |Aut Conj(G)|; those values are pinned below and
re-derived by an independent automorphism counter in ``test_oracles.py``.
"""

from math import factorial, gcd, prod

# |Z(G)| of the named groups in inputs.CONJ_GROUPS: D_n has centre {1, r^(n/2)}
# for even n and is centreless for odd n; S_n (n >= 3) is centreless; a
# dicyclic group (Q8 = Dic2 included) has centre {1, a^m}.
_CENTER = {"S3": 1, "S4": 1, "Q8": 2, "Dic3": 2, "Dic4": 2}

# |Aut Conj(G)|, checked against an independent counter in test_oracles.py.
CONJ_AUT = {"S3": 6, "D4": 96, "Q8": 96, "D5": 20, "D6": 48, "Dic3": 48, "D7": 42, "D8": 256, "Dic4": 256,
            "S4": 24}

# Quandles of order 1..6 up to isomorphism (OEIS A181771), and the number of
# labeled quandle tables of each order.
CENSUS_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}
CENSUS_LABELED = {1: 1, 2: 1, 3: 5, 4: 36, 5: 404, 6: 6658}

# The 13 suites at the defaults the program had when this benchmark was
# written, pinned so that a later change to a default does not change the
# workload; with the instance count each one reports (409,469 in total).
# doubly-transitive takes no bound: its five cases are fixed in the program.
SUITES = (
    ("conj-inn-embedding", ["--max-order", "15"], 10),
    ("alexander-embedding", ["--max-order", "12"], 15649),
    ("takasaki-aut", ["--max-order", "27"], 321515),
    ("dihedral-corollary", ["--n", "3,5,7,9,11"], 45),
    ("conj-embedding", ["--max-order", "12"], 2521),
    ("commutativity", ["--max-order", "16"], 21218),
    ("central-lemma", ["--max-order", "16"], 20871),
    ("connected-abelian", ["--max-order", "16"], 61),
    ("bae-choe", ["--max-order", "16"], 20786),
    ("fpf-structure", ["--max-order", "12"], 6647),
    ("aut-transitive", ["--max-order", "16"], 34),
    ("doubly-transitive", [], 5),
    ("mccarron", ["--max-order", "6"], 107),
)

# Inputs known to be out of reach at this commit.  The benchmark does not run
# them; a change that brings one within reach adds it in its own change to
# the benchmark.
OUT_OF_REACH = (
    ("groups.automorphism_group on (Z/2)^5",
     "the generator-image search did not finish in about 590 s"),
    ("census of order 7 (check_mccarron_bound(7, 7))",
     "refused: the census is capped at order 6 (labeled enumeration alone takes about 117 s)"),
    ("analyze_quandle above order 81",
     "refused: the backtracking Aut search is bounded at order 81"),
)


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def mult_order(u, m):
    """Multiplicative order of the unit u modulo m."""
    if gcd(u, m) != 1:
        raise ValueError(f"{u} is not a unit mod {m}")
    k, x = 1, u % m
    while x != 1 % m:
        x = x * u % m
        k += 1
    return k


def gl_order(p, k):
    """|GL_k(p)| = (p^k - 1)(p^k - p)...(p^k - p^(k-1))."""
    return prod(p ** k - p ** i for i in range(k))


def center_order(group):
    if group in _CENTER:
        return _CENTER[group]
    n = int(group[1:])                  # D<n>
    return 2 if n % 2 == 0 else 1


def group_order(group):
    if group.startswith("Dic"):
        return 4 * int(group[3:])
    if group == "Q8":
        return 8
    if group.startswith("S"):
        return factorial(int(group[1:]))
    return 2 * int(group[1:])           # D<n>


def expected_analysis(params):
    """(order, |Inn|, |Aut|, connected) for an analyze-stream item."""
    family = params["family"]
    if family == "affine":
        m, k, u = params["p"], params["k"], params["u"]
        n = m ** k
        aut = m * euler_phi(m) if k == 1 else n * gl_order(m, k)
        return n, n * mult_order(u % m, m), aut, True
    if family == "trivial":
        n = params["n"]
        return n, 1, factorial(n), n == 1
    group = params["group"]
    n = group_order(group)
    return n, n // center_order(group), CONJ_AUT[group], False
