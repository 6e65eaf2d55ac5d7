"""Permutations and permutation groups on the points {0, ..., n-1}.

Composition is fixed left-to-right everywhere in this package:
``compose(p, q)`` is the permutation "apply p first, then q".  Groups carry
a deterministic stabilizer chain (from the table search, or else classic
Schreier-Sims), so orders, membership tests and element iteration are exact
and reproducible between runs.  Exact orders are plain Python ints and may be
astronomically large even when the degree is small.

Chain levels hold raw image tuples; the ``Permutation`` wrapper exists for
the public surface.  Elements come out as one numpy array, one gather per
level (``PermGroup.element_array``).  There is one point-orbit walk,
``_orbit``, which returns the orbit together with its transversal, and one
Schreier-Sims sift, ``_sift``: orbits, stabilizers, chain levels, membership
tests and the orbit bookkeeping of the table search go through them.

The chain runs over the fixed base 0..n-2, so it is a list of transversals:
level i maps each point of the orbit of i under the pointwise stabilizer of
0..i-1 to a rep carrying i there.  Only this module reads it; orders,
membership, elements, ``stabilizer(0)`` and ``is_k_transitive`` (level i
full for every i < k) are its public reads.  ``brute_force_closure`` and
``brute_force_k_transitive`` are oracles that never touch the chain.

``table_automorphism_group`` is the one backtracking search of the package:
it finds the automorphism group of any square binary table, so it decides
Aut(G) from a Cayley table and Aut(X) from a quandle table, and its
depth-first step also decides quandle isomorphism.  It hands back its own
stabilizer chain, and its cost is bounded by ``_SEARCH_BUDGET`` nodes.
"""

import itertools
from math import prod

import numpy as np

_ELEMENT_CAP = 1 << 26     # most entries (order x degree) element_array builds


def _tcompose(p, q):
    # apply p, then q
    return tuple(q[x] for x in p)


def _tinverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class Permutation:
    """Immutable permutation stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(int(x) for x in images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        return Permutation(_tinverse(self.images))

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self):
        """Sorted tuple of cycle lengths, fixed points included."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths))

    def order(self):
        k = 1
        cur = self.images
        ident = tuple(range(self.degree))
        while cur != ident:
            cur = _tcompose(cur, self.images)
            k += 1
        return k

    def to_line(self):
        return " ".join(str(x) for x in self.images)

    @classmethod
    def from_line(cls, line):
        return cls(int(tok) for tok in line.split())

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return f"Permutation(id, degree={self.degree})"
        text = "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)
        return f"Permutation({text}, degree={self.degree})"


def compose(p, q):
    """Permutation x -> q(p(x)); p acts first."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(_tcompose(p.images, q.images))


def _orbit(gens, x, ident):
    """Orbit of x under gens (image sequences) as its transversal {point: rep}.

    rep maps x to point.  The walk is breadth-first in FIFO order with the
    generators in their given order, so the first word found wins and the
    transversal is reproducible.
    """
    tr = {x: ident}
    queue = [x]
    for pt in queue:
        upt = tr[pt]
        for s in gens:
            q = s[pt]
            if q not in tr:
                tr[q] = _tcompose(upt, s)
                queue.append(q)
    return tr


def _sift(levels, t, start):
    """Peel transversal reps off t from level start on.

    Level i is passed over when t fixes i: its rep is the identity.
    Returns (residue, level) where the sift stopped, or (None, len(levels))
    when t is a group element.
    """
    for i in range(start, len(levels)):
        pt = t[i]
        if pt == i:
            continue
        rep = levels[i].get(pt)
        if rep is None:
            return t, i
        t = _tcompose(t, _tinverse(rep))
    if t == tuple(range(len(t))):
        return None, len(levels)
    return t, len(levels)


class PermGroup:
    """Group generated by permutations, with a deterministic stabilizer chain.

    The chain runs over the fixed base 0..n-2 in increasing order (base()
    reports the points with a nontrivial orbit).  table_automorphism_group
    and stabilizer(0) set it; otherwise Schreier-Sims builds it on first use.
    Orbits are traversed in FIFO order with generators in a fixed order, so
    every derived quantity (order, element iteration, transversals) is
    reproducible.
    """

    def __init__(self, generators=(), degree=None):
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            gens.append(g)
        if degree is None:
            if not gens:
                raise ValueError("degree required when no generators are given")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None

    # -- stabilizer chain ------------------------------------------------

    def _ensure_chain(self):
        if self._chain is not None:
            return self._chain
        n = self.degree
        ident = tuple(range(n))
        levels = [{i: ident} for i in range(n - 1)]
        sgens = []

        def gens_at(i):
            return [g for g in sgens if all(g[p] == p for p in range(i))]

        def insert(residue, lev):
            if lev == len(levels):
                # fixing 0..n-2 forces the identity, which never reaches here
                raise RuntimeError("non-identity residue escaped the full base")
            sgens.append(residue)

        def complete_level(i):
            # verify all Schreier generators at level i, assuming deeper levels complete
            levels[i] = _orbit(gens_at(i), i, ident)
            while True:
                gens_i = gens_at(i)
                tr = levels[i]
                clean = True
                for p in sorted(tr):
                    up = tr[p]
                    for s in gens_i:
                        uq = tr.get(s[p])
                        if uq is None:
                            # orbit grew behind our back (new strong generator)
                            levels[i] = _orbit(gens_i, i, ident)
                            clean = False
                            break
                        schreier = _tcompose(_tcompose(up, s), _tinverse(uq))
                        residue, lev = _sift(levels, schreier, i + 1)
                        if residue is not None:
                            insert(residue, lev)
                            for j in range(lev, i, -1):
                                complete_level(j)
                            clean = False
                            break
                    if not clean:
                        break
                if clean:
                    return

        seen = set()
        for g in self.generators:
            t = g.images
            if t == ident or t in seen:
                continue
            seen.add(t)
            residue, lev = _sift(levels, t, 0)
            if residue is None:
                continue
            insert(residue, lev)
            for j in range(lev, -1, -1):
                complete_level(j)

        self._chain = (levels, sgens)
        return self._chain

    def base(self):
        levels, _ = self._ensure_chain()
        return [i for i, tr in enumerate(levels) if len(tr) > 1]

    def order(self):
        levels, _ = self._ensure_chain()
        return prod(len(tr) for tr in levels)

    def contains(self, p):
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        levels, _ = self._ensure_chain()
        return _sift(levels, p.images, 0)[0] is None

    # -- orbits and transitivity -----------------------------------------

    def orbit(self, x):
        """Sorted closure of {x} under the generators."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} outside 0..{self.degree - 1}")
        gens = [g.images for g in self.generators]
        return sorted(_orbit(gens, x, tuple(range(self.degree))))

    def stabilizer(self, x):
        """Subgroup fixing the point x: levels 1.. of the chain when x = 0,
        else via Schreier generators."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} outside 0..{self.degree - 1}")
        ident = tuple(range(self.degree))
        if x == 0:
            levels, sgens = self._ensure_chain()
            fixing = [g for g in sgens if g[0] == 0]
            sub = PermGroup(fixing, degree=self.degree)
            sub._chain = ([{0: ident}] + levels[1:] if levels else [], fixing)
            return sub
        gens = [g.images for g in self.generators if not g.is_identity()]
        tr = _orbit(gens, x, ident)
        schreier = []
        seen = set()
        for p in sorted(tr):
            up = tr[p]
            for s in gens:
                t = _tcompose(_tcompose(up, s), _tinverse(tr[s[p]]))
                if t != ident and t not in seen:
                    seen.add(t)
                    schreier.append(Permutation(t))
        sub = PermGroup(schreier, degree=self.degree)
        if sub.order() * len(tr) != self.order():
            raise RuntimeError("orbit-stabilizer mismatch; stabilizer chain is broken")
        return sub

    def is_k_transitive(self, k):
        """True when the action on ordered k-tuples of distinct points is transitive.

        Read off the chain: the orbit of (0, ..., k-1) has prod |level i|
        points for i < k, and level i holds at most the n - i points outside
        0..i-1, so the group is k-transitive exactly when each of those levels
        is full.  Fixing 0..n-2 fixes n - 1, so k = n asks no more than n - 1.
        """
        n = self.degree
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > n:
            raise ValueError(f"k = {k} exceeds degree {n}")
        levels, _ = self._ensure_chain()
        return all(len(levels[i]) == n - i for i in range(min(k, n - 1)))

    # -- element iteration -------------------------------------------------

    def element_array(self):
        """Every element as a row of an (order, degree) array, in the smallest
        signed int dtype holding the degree: the products deeper ; u over the
        nontrivial levels, one gather per level, with u running fastest over
        the sorted transversal of the shallowest level.  ValueError before
        allocating past _ELEMENT_CAP = 2**26 entries (order x degree)."""
        levels, _ = self._ensure_chain()
        n = self.degree
        if self.order() * n > _ELEMENT_CAP:
            raise ValueError(f"{self.order():,} x {n} entries exceed the element cap {_ELEMENT_CAP:,}")
        dtype = np.min_scalar_type(-n)          # signed, so it holds -n and hence n - 1
        out = np.arange(n, dtype=dtype)[None, :]
        for tr in reversed(levels):
            if len(tr) > 1:
                reps = np.array([tr[p] for p in sorted(tr)], dtype=dtype)
                out = reps[:, out].transpose(1, 0, 2).reshape(-1, n)
        return out

    def elements(self):
        """Every element once, in the row order of element_array()."""
        return (Permutation(row.tolist()) for row in self.element_array())

    # -- serialization ----------------------------------------------------

    def to_lines(self):
        return [str(self.degree)] + [" ".join(map(str, g.images)) for g in self.generators]

    @classmethod
    def from_lines(cls, lines):
        lines = [ln for ln in lines if ln.strip()]
        if not lines:
            raise ValueError("empty permutation group serialization")
        degree = int(lines[0].split()[0])
        gens = [Permutation.from_line(ln) for ln in lines[1:]]
        return cls(gens, degree=degree)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


# -- automorphisms of a binary table ---------------------------------------------


def _assign(tsrc, ttgt, img, rev, assigned, a, b):
    """Set img[a] = b and chase consequences; False on any contradiction.

    Every pair (a, x) with both points assigned closes two products, whose
    images are forced; forced assignments are queued and processed the same
    way, so the final map respects every fully assigned pair.
    """
    queue = [(a, b)]
    while queue:
        a, b = queue.pop()
        cur = img[a]
        if cur != -1:
            if cur != b:
                return False
            continue
        if rev[b] != -1:
            return False
        img[a] = b
        rev[b] = a
        assigned.append(a)
        ta, tb = tsrc[a], ttgt[b]
        for x in assigned:
            ix = img[x]
            queue.append((ta[x], tb[ix]))
            queue.append((tsrc[x][a], ttgt[ix][b]))
    return True


# calls of _dfs_first one search may make before it is refused with ValueError
_SEARCH_BUDGET = 200_000


def _dfs_first(tsrc, ttgt, img, rev, assigned, nodes):
    """First completion of the partial map to a full isomorphism, or None;
    nodes[0] counts the calls of the whole search."""
    nodes[0] += 1
    if nodes[0] > _SEARCH_BUDGET:
        raise ValueError(f"table search gave up after {_SEARCH_BUDGET:,} nodes")
    n = len(img)
    a = next((i for i in range(n) if img[i] == -1), -1)
    if a == -1:
        return tuple(img)
    for b in range(n):
        if rev[b] != -1:
            continue
        img2, rev2, as2 = img[:], rev[:], assigned[:]
        if _assign(tsrc, ttgt, img2, rev2, as2, a, b):
            res = _dfs_first(tsrc, ttgt, img2, rev2, as2, nodes)
            if res is not None:
                return res
    return None


def table_automorphism_group(rows):
    """Bijections f with f(a*b) = f(a)*f(b) for the square table rows[a][b] = a*b.

    Backtracking assigns images of points in increasing order, tries
    candidate images in increasing order, and propagates every newly closed
    pair through the table, so a partial map dies as soon as it contradicts
    the table or injectivity.  Rather than enumerating all automorphisms, the
    search builds a strong generating set: levels run over the points in
    decreasing order, level k looking for automorphisms fixing 0..k-1
    pointwise.  For each image c of point k not already in the orbit of k
    under the generators found so far, one depth-first search either
    produces a coset representative or proves the coset empty.  Tables with
    enormous automorphism groups (all of Sym(n) for a trivial quandle) stay
    cheap.  Works for group Cayley tables and quandle tables alike.
    The orbit of k under the generators found so far, when level k ends, is
    level k of a stabilizer chain; the group comes back with that chain, so
    it never runs Schreier-Sims.  ValueError past _SEARCH_BUDGET nodes.
    """
    n = len(rows)
    # states[k]: partial map with the identity forced on points 0..k-1
    img = [-1] * n
    rev = [-1] * n
    assigned = []
    states = [(img[:], rev[:], assigned[:])]
    for k in range(n):
        if img[k] == -1:
            if not _assign(rows, rows, img, rev, assigned, k, k):
                raise RuntimeError("identity map rejected; malformed table")
        states.append((img[:], rev[:], assigned[:]))

    gens = []
    ident = tuple(range(n))
    nodes = [0]
    levels = [{k: ident} for k in range(n - 1)]   # fixing 0..n-2 fixes n-1
    for k in range(n - 2, -1, -1):
        img_k, rev_k, as_k = states[k]
        if img_k[k] != -1:
            # image of k already forced by the identity prefix: trivial level
            continue
        orbit = _orbit(gens, k, ident)
        for c in range(n):
            if c in orbit:
                continue
            img2, rev2, as2 = img_k[:], rev_k[:], as_k[:]
            if not _assign(rows, rows, img2, rev2, as2, k, c):
                continue
            found = _dfs_first(rows, rows, img2, rev2, as2, nodes)
            if found is None:
                continue
            gens.append(found)
            orbit = _orbit(gens, k, ident)
        levels[k] = orbit
    group = PermGroup(gens, degree=n)
    group._chain = (levels, gens)
    return group


def group_from_generators(generators, degree=None):
    """Build a PermGroup; degree is inferred from the generators if omitted."""
    return PermGroup(generators, degree=degree)


def brute_force_closure(generators, degree):
    """All elements of the generated group by word enumeration.

    Independent of the stabilizer chain; exponential, for cross-checking
    small groups only (order a few thousand).
    """
    ident = tuple(range(degree))
    gens = []
    for g in generators:
        t = g.images if isinstance(g, Permutation) else tuple(g)
        gens.append(t)
    seen = {ident}
    queue = [ident]
    while queue:
        t = queue.pop(0)
        for g in gens:
            nt = _tcompose(t, g)
            if nt not in seen:
                seen.add(nt)
                queue.append(nt)
    return seen


def brute_force_k_transitive(generators, degree, k):
    """Oracle: breadth-first search over the images of the k-tuple (0, ..., k-1).

    Independent of the stabilizer chain; O(n^k) tuples, for cross-checking
    is_k_transitive at small k.
    """
    gens = [g.images if isinstance(g, Permutation) else tuple(g) for g in generators]
    start = tuple(range(k))
    seen = {start}
    queue = [start]
    for tup in queue:
        for g in gens:
            nxt = tuple(g[t] for t in tup)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == prod(range(degree - k + 1, degree + 1))


def all_permutations(degree):
    """Every permutation of the given degree, lexicographic by image tuple."""
    return [Permutation(p) for p in itertools.permutations(range(degree))]
