"""Finite quandles as operation tables.

table[a][b] is a*b, so the column at b is the right translation
S_b : y -> y*b.  The three axioms checked everywhere:

  1. a*a = a
  2. every column is a permutation (y -> y*b invertible)
  3. (a*b)*c = (a*c)*(b*c)

Every Quandle satisfies the three axioms, however its table was made: the
constructor checks them, and nothing skips or repeats that check.

Axiom 3 needs checking only for c in a generating set: once the columns
are permutations, S_{a*c} = S_c S_a S_c^-1 whenever S_c is an automorphism,
so the c at which axiom 3 holds are closed under * (and in a quandle the
generator columns generate every column).  Axiom 3 at c depends on c only
through S_c, so generators with equal columns are checked once.  Validation
therefore costs n^2 k for k distinct generator columns, not n^3 (a trivial
quandle has one); the Quandle keeps the generators for the table search,
the map checks and Inn (``generators()``).  The witness of a defect first
found in row a then costs about a n^2 plus one doubling, not a full chunk.

Constructors cover the families built from a group G: conjugation
a*b = b^-m a b^m, Takasaki a*b = 2b - a on abelian groups, Alexander
a*b = t(a) + b - t(b), and the generalized Alexander quandle
a*b = phi(a b^-1) b for an automorphism phi.  Each builds its table once,
and constructed quandles remember where they came from.

The exhaustive enumeration and the census's isomorphism classes run one
column search (``_tables_from``), and only this module reads its column ids.
"""

import bisect
import functools
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .groups import _check_table_order, _first_witness, _partitions, _read_table, _repeating_columns, _row_lookup
from .groups import _smallest, _square_table, _write_table, make_cyclic
from .perms import Permutation, _generators


class QuandleAxiomError(ValueError):
    """Axiom violation, carrying which axiom broke and a witness tuple."""

    def __init__(self, axiom, witness, message):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class Provenance:
    """How a quandle was constructed, enough to recover (G, phi)."""

    kind: str
    group: object = None
    automorphism: tuple = None
    power: int = None
    note: str = ""

    def describe(self):
        bits = [self.kind]
        if self.group is not None:
            bits.append(f"over {self.group.name}")
        if self.power is not None:
            bits.append(f"power {self.power}")
        if self.note:
            bits.append(self.note)
        return " ".join(bits)


class Quandle:
    """Immutable quandle on {0..n-1} given by its full operation table.

    Every Quandle satisfies the three axioms, however its table was made:
    the constructor raises QuandleAxiomError for the first broken one.
    """

    def __init__(self, table, provenance=None):
        arr = _square_table(table, "quandle")
        self._gens = _check_axioms(arr)
        arr.setflags(write=False)
        self.table = arr
        self.order = arr.shape[0]
        self.provenance = provenance
        self._cache = {}

    def op(self, a, b):
        return self.table.item(a, b)

    def generators(self):
        """The greedy generating set (``_generators``) the axiom check found."""
        return self._gens

    def column(self, b):
        return tuple(self.table[:, b].tolist())

    def __repr__(self):
        tag = self.provenance.describe() if self.provenance else "table"
        return f"Quandle({tag}, order={self.order})"


def _check_axioms(arr):
    """Raise QuandleAxiomError for the first broken axiom, with its
    lexicographically first witness; return the generators it checked.

    Axiom 3 is checked only for c in a generating set, by the closure
    argument in the module docstring.  When a generator fails,
    ``groups._first_witness`` names the first failing triple.
    """
    n = arr.shape[0]
    rng = np.arange(n)
    diag = arr[rng, rng]
    if not np.array_equal(diag, rng):
        a = int(np.nonzero(diag != rng)[0][0])
        raise QuandleAxiomError(1, (a,), f"a*a != a at a = {a}")
    values = _smallest(arr, n)
    bad = _repeating_columns(values)
    if bad.any():
        # the witness is the first row of the first repeating column that is
        # not the first occurrence of its value
        b = int(bad.argmax())
        col = arr[:, b, None]
        a = int((_row_lookup(col)(col) != rng).argmax())
        raise QuandleAxiomError(2, (a, b), f"column {b} repeats value {int(arr[a, b])} at row {a}")
    # one n x n gather per side and distinct generator column S_c, in the
    # smallest dtype that holds the entries: axiom 3 at c depends on c only
    # through S_c, so generators with equal columns share one.  The int64
    # table indexes S_c uncast, the fastest of the gathers numpy offers here
    gens = _generators(n, lambda c: values[:, c].tolist())
    checked = set()
    for c in gens:
        s_c = values[:, c]
        key = s_c.tobytes()
        if key in checked:
            continue
        checked.add(key)
        if not np.array_equal(s_c[arr], values[s_c][:, s_c]):    # (a*b)*c against (a*c)*(b*c)
            break
    else:
        return gens
    # a generator fails: (a, b, c) -> (a*b)*c against (a*c)*(b*c) over every triple
    a, b, c = _first_witness(values, lambda rows: (values[rows], values[rows[:, None, :], values[None, :, :]]))
    raise QuandleAxiomError(3, (a, b, c), f"({a}*{b})*{c} != ({a}*{c})*({b}*{c})")


def validate_axioms(table, provenance=None):
    """``Quandle(table, provenance)``: a raw table checked against the axioms."""
    return Quandle(table, provenance)


# -- constructors ------------------------------------------------------------


def trivial_quandle(n):
    """a*b = a for all a, b."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    _check_table_order(n)
    table = np.tile(np.arange(n)[:, None], (1, n))
    return Quandle(table, Provenance("trivial"))


def conj_quandle(group, m=1):
    """Conjugation quandle: a*b = b^-m a b^m."""
    powm = np.array([group.power(b, m) for b in range(group.order)], dtype=np.int64)
    out = group.table[group.table[group.inverse_array()[powm]].T, powm]     # (b^-m a) b^m
    return Quandle(out, Provenance("conj", group=group, power=m))


def takasaki(group):
    """Takasaki quandle on an abelian group: a*b = 2b - a, which is Alex(G, -id)."""
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    return _alexander_quandle(group, group.inverse_array(), "takasaki")


def alexander(group, phi):
    """Alexander quandle on an abelian group: a*b = phi(a) + b - phi(b) = phi(a - b) + b."""
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    if not phi.is_automorphism:
        raise ValueError("twisting map must be an automorphism")
    return _alexander_quandle(group, phi.images, "alexander")


def gen_alexander(group, phi):
    """Generalized Alexander quandle: a*b = phi(a b^-1) b, any group."""
    if not phi.is_automorphism:
        raise ValueError("twisting map must be an automorphism")
    return _alexander_quandle(group, phi.images, "gen_alexander")


def _alexander_quandle(group, images, kind):
    """The Quandle Alex(G, phi) for the image row phi = images, built by kind."""
    table = _alexander_tables(group, np.array([images]))[0]
    return Quandle(table, Provenance(kind, group=group, automorphism=tuple(map(int, images))))


def _alexander_tables(group, rows):
    """The tables of Alex(G, phi), a*b = phi(a b^-1) b, for each image row
    phi of rows, as one (k, n, n) array in the smallest dtype."""
    n = group.order
    quotients = group.table[:, group.inverse_array()]          # a b^-1
    return _smallest(group.table, n)[_smallest(rows, n)[:, quotients], np.arange(n)]


def dihedral(n):
    """Dihedral quandle R_n: points mod n with a*b = 2b - a."""
    group = make_cyclic(n)
    return _alexander_quandle(group, group.inverse_array(), "dihedral")


# -- predicates and translations ---------------------------------------------


def is_commutative(quandle):
    """a*b = b*a for all a, b."""
    return bool(np.array_equal(quandle.table, quandle.table.T))


def is_involutory(quandle):
    """(a*b)*b = a for all a, b; every right translation squares to identity."""
    arr = quandle.table
    n = quandle.order
    back = arr[arr, np.arange(n)[None, :]]
    return bool((back == np.arange(n)[:, None]).all())


def inner_translation(quandle, x):
    """The permutation S_x : y -> y*x (column x of the table)."""
    if not 0 <= x < quandle.order:
        raise ValueError(f"point {x} outside 0..{quandle.order - 1}")
    return Permutation(quandle.column(x))


# -- exhaustive enumeration ---------------------------------------------------


# the largest order the column search takes: at order 8 its conjugation table
# would hold 40,320^2 uint16 entries, about 3.25 GB
_COLUMN_SEARCH_BOUND = 7


def enumerate_quandle_tables(n):
    """Yield every labeled quandle of order n exactly once, deterministically.

    Depth-first over the columns S_0, S_1, ... where each candidate column
    fixes its own point.  A column is held as the id of its permutation, its
    index in lexicographic order (``_column_candidates``).  Assigning S_c
    propagates: axiom 3 forces S at the point S_c(b) to equal
    S_c S_b S_c^-1 (apply S_c^-1 first) for every assigned b, and S at
    S_b(c) to equal S_b S_c S_b^-1, and each forced id is one read of a
    conjugation table built before the search.  This both prunes and fills
    columns, so leaves satisfy all three axioms by construction; the
    Quandle constructor checks them again, with code the search does not
    share.  The search runs once per candidate S_0, in candidate order; the
    census (``_quandle_classes``) runs the same search from one S_0 per
    cycle type but the identity's instead.  Orders outside 1..7 raise
    ValueError before anything is built.
    """
    columns = _column_candidates(n)
    for i in columns.fixing[0]:
        for cols, _ in _tables_from(columns.rows[i], columns):
            yield Quandle(columns.perms[cols].T, Provenance("enumerated"))    # a*b = S_b(a)


@dataclass(frozen=True)
class _Columns:
    """The permutations of 0..n-1 as column ids for the search, in
    lexicographic order, which is ``itertools.permutations`` order; a table
    is relabeled on its column ids, through conj (``_tables_from`` and
    ``_quandle_classes``)."""

    perms: np.ndarray    # (n!, n) int8: row i is the permutation with id i
    inverse: np.ndarray  # (n!, n) int8: row i is the inverse of the permutation with id i
    rows: list           # the same rows as tuples, sorted, so bisect finds an id
    fixing: list         # fixing[x]: the ids of the permutations fixing x, ascending
    conj: memoryview     # flat uint16: conj[c * n! + b] = id(S_c S_b S_c^-1)


def _column_candidates(n):
    """The ``_Columns`` of order n, for one search; ValueError for an order
    outside 1.._COLUMN_SEARCH_BOUND, before anything is built.

    Conjugating by S_c S_t conjugates by S_t and then by S_c, so row c·t of
    the conjugation table is row c gathered at row t.  The rows of the n-1
    adjacent transpositions t come from the definition, each permutation
    found by its base-n key among the keys of all, which rise with id.
    Every other permutation c has a first descent j, and swapping its
    positions j and j+1 gives c·t_j, which is lexicographically smaller, so
    of smaller id: row c is row c·t_j gathered at row t_j, and the rows are
    filled in id order.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > _COLUMN_SEARCH_BOUND:
        raise ValueError(f"order {n} exceeds the column search's bound {_COLUMN_SEARCH_BOUND}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    k = len(perms)
    weights = n ** np.arange(n - 1, -1, -1)
    keys = perms @ weights
    swaps = np.tile(np.arange(n), (n - 1, 1))              # row j: the transposition t_j of j and j+1
    i = np.arange(n - 1)
    swaps[i, i], swaps[i, i + 1] = i + 1, i
    rows_t = [np.searchsorted(keys, t[perms][:, t] @ weights) for t in swaps]
    # for each c but the identity: its first descent j, the count of its leading ascents, and id(c·t_j)
    first = np.cumprod(perms[1:, :-1] < perms[1:, 1:], axis=1).sum(axis=1)
    pred = np.searchsorted(keys, np.take_along_axis(perms[1:], swaps[first], axis=1) @ weights)
    conj = np.empty((k, k), dtype=np.uint16)
    conj[0] = np.arange(k)
    for c, (p, j) in enumerate(zip(pred.tolist(), first.tolist()), start=1):
        conj[c] = conj[p].take(rows_t[j])
    fixing = [np.flatnonzero(perms[:, x] == x).tolist() for x in range(n)]
    inverse = np.argsort(perms, axis=1).astype(np.int8)
    return _Columns(perms, inverse, list(map(tuple, perms.tolist())), fixing, memoryview(conj.reshape(-1)))


def _tables_from(s0, columns, centralizer=()):
    """Yield (cols, |Stab_C(T)|) for every labeled quandle T whose column S_0
    is s0 (a tuple fixing 0), in the order of ``enumerate_quandle_tables``:
    cols lists T's n column ids, so ``columns.perms[cols].T`` is T's table;
    columns comes from ``_column_candidates``.

    The completions come in lexicographic order of their column ids (S_0,
    S_1, ...): two leaves part at the node where they take different
    candidates for its first free column, and candidates are tried in
    ascending order.

    centralizer holds ids of permutations p that fix 0 and commute with s0
    (the identity left out); with the identity they form C.  Relabeling by
    such a p keeps S_0 and sends the column S_b to p S_b p^-1 at the point
    p(b), so the relabeled column ids are (p.cols)[y] = conj[id(p) n! +
    cols[p^-1(y)]].  A node is pruned when, for some p, p.cols is smaller
    than cols at the first point from 1 upward where they differ, and both
    are assigned up to that point: every completion T below it then has
    p.T < T.  So only the lexicographically least table of each orbit is
    yielded, once, at the place it holds in the unpruned stream.

    Assigned columns never change below a node, so the comparison resumes:
    each node hands its children the leaders p still undecided, each with
    the first point not compared yet.  A leader whose p.cols is larger at
    that point can never prune below, and is dropped.  At a leaf every
    point is assigned, so the leaders left are those with p.T = T, and
    with the identity they count Stab_C(T).

    A candidate for the least free point f is rejected before it is
    copied and propagated when some leader p still tied at f fixes f and
    conjugates it to a smaller id: p.cols at f is then conj[id(p) n! +
    cand] < cand, the test the comparison above makes right after
    propagation, which fills no point below f and leaves f alone.  Each
    leader's test at each point it fixes is precomputed from conj as flags
    over fixing[f], one byte a candidate, in one int, so a node ANDs the
    ints of its tied leaders.

    The search is a loop over an explicit stack of nodes, each pushing its
    propagated children in reverse candidate order, so they are popped in
    candidate order.
    """
    n = len(s0)
    rows, conj, fixing = columns.rows, columns.conj, columns.fixing
    n_perms = len(rows)
    leaders = [(p * n_perms, columns.inverse[p].tolist()) for p in centralizer]

    def propagate(cols, c):
        """Push consequences of newly assigned column c; False on clash."""
        queue = [c]
        while queue:
            c = queue.pop()
            ic = cols[c]
            sc, base = rows[ic], ic * n_perms
            for b in range(n):
                ib = cols[b]
                if ib is None:
                    continue
                # axiom 3 forces the columns at sc[b] and at sb[c]
                t1 = sc[b]
                f1 = conj[base + ib]
                if cols[t1] is None:
                    cols[t1] = f1
                    queue.append(t1)
                elif cols[t1] != f1:
                    return False
                t2 = rows[ib][c]
                f2 = conj[ib * n_perms + ic]
                if cols[t2] is None:
                    cols[t2] = f2
                    queue.append(t2)
                elif cols[t2] != f2:
                    return False
        return True

    def least(cols, pending):
        """pending's leaders still tied on cols, resumed: pairs (k, y) of an
        index into leaders and the first point not compared yet, and the AND
        of the flags of those tied at the least free point; None when some p
        makes p.cols smaller than cols where both are assigned."""
        kept = []
        allowed = -1
        for k, y in pending:
            base, inv = leaders[k]
            while y < n and cols[y] is not None and cols[inv[y]] is not None:
                a, b = cols[y], conj[base + cols[inv[y]]]
                if b != a:
                    if b < a:
                        return None
                    break
                y += 1
            else:
                kept.append((k, y))
                m = masks[k][y]
                if m is not None:
                    allowed &= m
        return kept, allowed

    # masks[k][f]: the flags over fixing[f] of the candidates leader k does
    # not make smaller at f, or None where it moves f (or f is 0 or n)
    masks = [[None] * (n + 1) for _ in leaders]
    if leaders:
        square = np.asarray(conj).reshape(n_perms, n_perms)
        cent = np.asarray(centralizer)
        for f in range(1, n):
            ids = np.asarray(fixing[f])
            ks = np.flatnonzero(columns.perms[cent, f] == f)
            flags = (square[cent[ks, None], ids] >= ids).view(np.uint8)
            for k, row in zip(ks.tolist(), flags):
                masks[k][f] = int.from_bytes(row.tobytes(), "little")
    cols = [bisect.bisect_left(rows, s0)] + [None] * (n - 1)
    stack = [(cols, [(k, 1) for k in range(len(leaders))])] if propagate(cols, 0) else []
    while stack:
        cols, pending = stack.pop()
        found = least(cols, pending)
        if found is None:
            continue
        pending, allowed = found
        if None not in cols:
            yield cols, len(pending) + 1
            continue
        free = cols.index(None)
        cands = fixing[free]
        if allowed != -1:
            cands = itertools.compress(cands, allowed.to_bytes(len(cands), "little"))
        children = []
        for cand in cands:
            trial = list(cols)
            trial[free] = cand
            if propagate(trial, free):
                children.append((trial, pending))
        stack += reversed(children)


def _first_columns(n):
    """One column S_0 per cycle type on the points 1..n-1, cycles laid out
    consecutively, the identity last."""
    out = []
    for parts in _partitions(n - 1):
        col = [0]
        for k in parts:
            start = len(col)
            col += [start + (i + 1) % k for i in range(k)]
        out.append(tuple(col))
    return out


def _centralizer(s0, perms):
    """The ids, ascending, of the rows p of perms (``_Columns.perms``) that fix
    0 and commute with s0, so the identity, id 0, comes first."""
    s = np.array(s0)
    return np.flatnonzero((perms[:, 0] == 0) & (perms[:, s] == s[perms]).all(axis=1))


def _quandle_classes(order):
    """(classes, labeled, relabeled, completions) of the census at order: the
    isomorphism classes in a deterministic order, the labeled tables counted
    two ways, and the tables the column search completes from every S_0 of
    ``_first_columns``, one per orbit of S_0's centralizer.

    The search (``_tables_from``) runs from one S_0 per cycle type
    (``_first_columns``) but the identity, with C its centralizer.
    Relabeling by a permutation fixing 0 carries the tables with S_0 = s
    onto those with S_0 conjugate to s, so every class has a member among
    them, and the first member of a class in the unpruned stream is the
    least of its own C-orbit: it is completed, and it starts its class at
    the same place as without pruning.

    Relabeling conjugates every column, so the tables of a class have the
    same cycle types of columns.  A completion with a column of the cycle
    type of an earlier S_0 is in a class found from that S_0, and is passed
    over with no lookup.  Any other completion from s is in no class found
    from an earlier S_0, and is in one found from s exactly when its ids
    are those of a relabeling of that class's first table T with S_0 = s.
    Those relabelings p.T, whose column at 0 has id conj[id(p) n! +
    cols[p^-1(0)]], join a set kept for s, and the p that leave T's ids
    unchanged count Aut(T).  A completion not in the set starts a class.

    ``relabeled`` counts the labeled tables as the size of the union of the
    classes' relabeling orbits, the sum of n!/|Aut(T)|.  ``labeled`` counts
    them by orbit-stabilizer: s's conjugacy class has (n-1)!/|C| columns,
    and a completion T stands for |C|/|Stab_C(T)| tables with S_0 = s, so
    for (n-1)!/|Stab_C(T)| in all.  Only a class's first table becomes a
    Quandle, and so is checked against the axioms.

    The identity S_0, the last, is counted instead of searched: its
    centralizer is every permutation fixing 0, and of its completions only
    the trivial quandle, appended last, has no column of an earlier cycle
    type.  Relabeling keeps the number j of identity columns and carries 0
    to every point equally often, so j/n of the labeled tables with j < n
    identity columns have S_0 the identity: ``labeled`` is 1 + the sum of
    S_j n/(n-j), with S_j the (n-1)!/|Stab_C(T)| summed over the completions
    T with j identity columns.  The identity's completions are the tables
    of each class T relabeled to move an identity column to 0, one per
    orbit of Aut(T) on T's identity columns, so each class adds that number
    to ``completions``.
    """
    columns = _column_candidates(order)
    k = len(columns.rows)
    conj = np.asarray(columns.conj).reshape(k, k)
    everyone, at_0 = np.arange(k), columns.inverse[:, 0]
    key = np.dtype((np.void, 2 * order))
    firsts = _first_columns(order)
    rank = {Permutation(s0).cycle_type(): i for i, s0 in enumerate(firsts)}
    type_rank = functools.cache(lambda c: rank[Permutation(columns.rows[c]).cycle_type()])
    classes = []
    relabeled = completions = 0
    by_identities = [0] * order     # [j]: the tables with S_0 not the identity and j identity columns
    for i, s0 in enumerate(firsts[:-1]):
        ids = _centralizer(s0, columns.perms)
        seen = set()
        for cols, fixed in _tables_from(s0, columns, ids[1:].tolist()):
            completions += 1
            by_identities[cols.count(0)] += len(columns.fixing[0]) // fixed      # (n-1)!/|Stab_C(T)|
            if min(map(type_rank, cols)) < i:
                continue
            cols = np.array(cols, np.uint16)
            if cols.tobytes() in seen:
                continue
            classes.append(Quandle(columns.perms[cols].T, Provenance("enumerated")))
            keep = np.flatnonzero(conj[everyone, cols[at_0]] == cols[0])
            moved = conj[keep[:, None], cols[columns.inverse[keep]]]
            aut = keep[(moved == cols).all(axis=1)]
            relabeled += k // len(aut)      # n!/|Aut(T)|
            identities = np.flatnonzero(cols == 0)
            # one per Aut(T)-orbit on them: the points least in their orbit
            completions += int(np.count_nonzero(columns.perms[aut][:, identities].min(axis=0) == identities))
            seen.update(moved.view(key).ravel().tolist())
    # the trivial quandle, the identity S_0's one class: one labeled table, one completion
    classes.append(Quandle(columns.perms[[0] * order].T, Provenance("enumerated")))
    labeled = 1 + sum(s * order // (order - j) for j, s in enumerate(by_identities))
    return classes, labeled, relabeled + 1, completions + 1


# -- file format ---------------------------------------------------------------


def quandle_to_text(quandle):
    """Serialized table: first line the order, then one row per line."""
    out = io.StringIO()
    _write_table(out, quandle.table)
    return out.getvalue()


def save_quandle(quandle, path):
    """Write the table: first line the order, then one row per line."""
    with open(path, "w") as fh:
        _write_table(fh, quandle.table)


def load_quandle(path):
    """Read a table file and refuse it unless all three axioms hold."""
    table = _read_table(path, "quandle")
    return validate_axioms(table, provenance=Provenance("file", note=str(path)))
