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
Schreier-Sims sift, ``_sift``: chain levels, membership tests, the
transitivity refusal before a chain exists and the orbit bookkeeping of the
table search go through them.

The chain runs over the fixed base 0..n-2, so it is a list of transversals:
level i maps each point of the orbit of i under the pointwise stabilizer of
0..i-1 to a rep carrying i there.  Only this module reads it; orders,
membership, elements, ``stabilizer()`` and ``is_k_transitive`` (level i
full for every i < k) are its public reads.  ``brute_force_closure`` and
``brute_force_k_transitive`` are oracles that never touch the chain.

Beside each level the group keeps the inverses of its reps, each computed
on first use by the one sift or by a Schreier generator, and dropped with
the level when Schreier-Sims recomputes that level's orbit.  Schreier-Sims
skips the Schreier generator u_p s u_s(p)^-1 of each edge of the orbit tree,
where u_p s = u_s(p) makes it the identity, and the sift returns as soon as
its residue is the identity; neither changes a chain.  It runs as one loop
over a stack of the levels still to verify, deepest on top, not as a
recursion, so a chain it builds is freed by reference counting alone.

``table_automorphism_group`` is the one backtracking search of the package:
it finds the automorphism group of a FiniteGroup or a Quandle, so it decides
Aut(G) from a Cayley table and Aut(X) from a quandle table, and its
depth-first step also decides quandle isomorphism.  Its work follows the
table's structure: a point may map only to points of its colour, a hash of
label-free invariants of its row and column (``_colours``), and an
assignment propagates only through the columns of the generators its
constructor found (``_assign``).  It hands back its own stabilizer chain,
and its cost is bounded by ``_SEARCH_BUDGET`` checks.
"""

import itertools
from math import lcm, prod
from operator import itemgetter

import numpy as np

_ELEMENT_CAP = 1 << 26     # most entries (order x degree) element_array builds


def _smallest(arr, n):
    """arr, whose entries lie in 0..n-1, in the smallest unsigned dtype that
    holds n - 1; arr itself when it already has that dtype.  Unsigned values
    below n order, compare and index exactly as int64 ones do."""
    return arr.astype(np.min_scalar_type(n - 1), copy=False)


def _tcompose(p, q):
    # apply p, then q; itemgetter returns a bare item, not a tuple, below two
    if len(p) < 2:
        return tuple(q[x] for x in p)
    return itemgetter(*p)(q)


def _tinverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class Permutation:
    """Immutable permutation stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(map(int, images))
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
        """The least k >= 1 with self^k the identity: the lcm of the cycle lengths."""
        return lcm(*map(len, self.cycles()))

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


def _sift(levels, inverses, t, start):
    """Peel transversal reps off t from level start on.

    inverses[i] maps a point of level i to the inverse of its rep, filled on
    first use.  Level i is passed over when t fixes i: its rep is the
    identity.  Returns (residue, level) where the sift stopped, or
    (None, len(levels)) when t is a group element, as soon as the residue
    is the identity: when t equals the rep it is peeling.
    """
    for i in range(start, len(levels)):
        pt = t[i]
        if pt == i:
            continue
        rep = levels[i].get(pt)
        if rep is None:
            return t, i
        if t == rep:
            return None, len(levels)
        inv = inverses[i].get(pt)
        if inv is None:
            inv = inverses[i][pt] = _tinverse(rep)
        t = _tcompose(t, inv)
    if t == tuple(range(len(t))):
        return None, len(levels)
    return t, len(levels)


class PermGroup:
    """Group generated by permutations, with a deterministic stabilizer chain.

    The chain runs over the fixed base 0..n-2 in increasing order.
    table_automorphism_group and stabilizer() set it; otherwise
    Schreier-Sims builds it on first use.
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
        self._chain = self._inverses = None

    # -- stabilizer chain ------------------------------------------------

    def _ensure_chain(self):
        if self._chain is not None:
            return self._chain
        n = self.degree
        ident = tuple(range(n))
        levels = [{i: ident} for i in range(n - 1)]
        inverses = [{} for _ in levels]
        sgens, firsts = [], []      # firsts: each strong generator's first moved point
        # levels still to verify, deepest on top: (i, fresh) checks every Schreier
        # generator at level i, assuming deeper levels complete, after
        # recomputing its orbit when fresh
        todo = []

        def gens_at(i):
            return [g for g, first in zip(sgens, firsts) if first >= i]

        def insert(residue, lev, start):
            if lev == len(levels):
                # fixing 0..n-2 forces the identity, which never reaches here
                raise RuntimeError("non-identity residue escaped the full base")
            # a residue stopped at level lev fixes 0..lev-1 and moves lev
            sgens.append(residue)
            firsts.append(lev)
            todo.extend((j, True) for j in range(start, lev + 1))

        seen = set()
        for g in self.generators:
            t = g.images
            if t == ident or t in seen:
                continue
            seen.add(t)
            residue, lev = _sift(levels, inverses, t, 0)
            if residue is not None:
                insert(residue, lev, 0)
            while todo:
                i, fresh = todo.pop()
                gens_i = gens_at(i)
                if fresh:
                    levels[i], inverses[i] = _orbit(gens_i, i, ident), {}
                tr, inv = levels[i], inverses[i]
                for p, s in itertools.product(sorted(tr), gens_i):
                    q = s[p]
                    uq = tr.get(q)
                    if uq is None:
                        # orbit grew behind our back (new strong generator)
                        todo.append((i, True))
                        break
                    ups = _tcompose(tr[p], s)
                    if ups == uq:
                        # the Schreier generator is the identity, as on every orbit-tree edge
                        continue
                    uq_inv = inv.get(q)
                    if uq_inv is None:
                        uq_inv = inv[q] = _tinverse(uq)
                    residue, lev = _sift(levels, inverses, _tcompose(ups, uq_inv), i + 1)
                    if residue is not None:
                        todo.append((i, False))
                        insert(residue, lev, i + 1)
                        break

        self._chain, self._inverses = (levels, sgens), inverses
        return self._chain

    def order(self):
        levels, _ = self._ensure_chain()
        return prod(len(tr) for tr in levels)

    def contains(self, p):
        if not isinstance(p, Permutation):
            p = Permutation(p)
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {self.degree}")
        levels, _ = self._ensure_chain()
        if self._inverses is None:      # a chain set from outside: the search's or stabilizer()'s
            self._inverses = [{} for _ in levels]
        return _sift(levels, self._inverses, p.images, 0)[0] is None

    # -- stabilizer and transitivity -----------------------------------------

    def stabilizer(self):
        """Subgroup fixing the point 0: levels 1.. of the chain."""
        levels, sgens = self._ensure_chain()
        fixing = [g for g in sgens if g[0] == 0]
        sub = PermGroup(fixing, degree=self.degree)
        sub._chain = ([{0: tuple(range(self.degree))}] + levels[1:] if levels else [], fixing)
        return sub

    def is_k_transitive(self, k):
        """True when the action on ordered k-tuples of distinct points is transitive.

        Read off the chain: the orbit of (0, ..., k-1) has prod |level i|
        points for i < k, and level i holds at most the n - i points outside
        0..i-1, so the group is k-transitive exactly when each of those levels
        is full.  Fixing 0..n-2 fixes n - 1, so k = n asks no more than n - 1.
        Before a chain exists, a group whose orbit of 0 misses a point is
        refused by a walk over the generators, without building one: it is
        not even transitive.
        """
        n = self.degree
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > n:
            raise ValueError(f"k = {k} exceeds degree {n}")
        if self._chain is None and len(_orbit([g.images for g in self.generators], 0, tuple(range(n)))) < n:
            return False
        levels, _ = self._ensure_chain()
        return all(len(levels[i]) == n - i for i in range(min(k, n - 1)))

    # -- element iteration -------------------------------------------------

    def element_array(self):
        """Every element as a row of an (order, degree) array, in the smallest
        dtype (``_smallest``): the products deeper ; u over the nontrivial
        levels, one gather per level, with u running fastest over the sorted
        transversal of the shallowest level.  ValueError before
        allocating past _ELEMENT_CAP = 2**26 entries (order x degree)."""
        levels, _ = self._ensure_chain()
        n = self.degree
        if self.order() * n > _ELEMENT_CAP:
            raise ValueError(f"{self.order():,} x {n} entries exceed the element cap {_ELEMENT_CAP:,}")
        out = _smallest(np.arange(n), n)[None, :]
        for tr in reversed(levels):
            if len(tr) > 1:
                reps = _smallest(np.array([tr[p] for p in sorted(tr)]), n)
                out = reps[:, out].transpose(1, 0, 2).reshape(-1, n)
        return out

    def elements(self):
        """Every element once, in the row order of element_array()."""
        return (Permutation(row.tolist()) for row in self.element_array())

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order()})"


# -- automorphisms of a group or quandle table -----------------------------------


def _generators(n, column, identity=None):
    """Greedy generating set of a finite structure on 0..n-1, as a sorted array.

    column(g) lists the products x*g over x in 0..n-1, -1 for a product
    outside the structure; it is asked once per generator.  Each element
    outside the closure of the generators so far becomes the next
    generator, so the closure of the result is everything.
    An identity, when given, counts as inside from the start and is never a
    generator: in a finite group it is a power of any element.
    The closure is the generators and the products x*g of its members x with
    generators g.  It grows by a frontier that multiplies each member by
    each generator once: n k products for k generators.  For a group or a
    quandle it is the subgroup or subquandle the generators make.  A law
    that holds at x*g whenever it holds at x and at g therefore holds
    everywhere once it holds at the generators.
    """
    inside = [False] * n
    members, columns = [], {}               # columns: generator -> its column
    if identity is not None:
        inside[identity] = True
        members.append(identity)
    for g in range(n):
        if inside[g]:
            continue
        columns[g] = column(g)
        frontier = [columns[g][x] for x in members] + [g]
        while frontier:
            x = frontier.pop()
            if x >= 0 and not inside[x]:
                inside[x] = True
                members.append(x)
                frontier += [c[x] for c in columns.values()]
    return np.array(list(columns), dtype=np.int64)


def _colour_seeds(table):
    """One row of invariants per point a of a group or quandle table: the
    sorted fibre sizes of the row map x -> a*x and the sorted lengths of the
    cycles through each point of the column map x -> x*a, a bijection.

    Each entry is defined without reference to the labels, so an isomorphism
    keeps it.  A cycle's length is the number of points sharing its least
    point, found by pointer doubling: log2(n) gathers over all columns.
    """
    n = len(table)
    rng = np.arange(n)
    flat = rng[:, None] * n
    fibres = np.bincount((flat + table).ravel(), minlength=n * n).reshape(n, n)
    # as flat indices, step[a, x] is a n + S^(2^i)(x) for the column map S of a,
    # and low[a, x] is the least of x, S(x), ..., S^(2^i - 1)(x)
    step, low = flat + table.T, np.tile(rng, (n, 1))
    for _ in range((n - 1).bit_length()):
        low = np.minimum(low, low.take(step))
        step = step.take(step)
    sizes = np.bincount((flat + low).ravel(), minlength=n * n)
    return np.hstack([np.sort(fibres, axis=1), np.sort(sizes.take(flat + low), axis=1)])


def _mix(x):
    """splitmix64 on each entry, as uint64: fixed pseudo-random weights, so
    that a weighted sum of a row's entries hashes the row."""
    x = np.asarray(x).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _colours(table):
    """The colour of each point of a group or quandle table: the 64-bit hash
    of its row of ``_colour_seeds``, a weighted sum with fixed pseudo-random
    weights (``_mix``).  No label enters, so equal seeds get equal colours in
    every table: an isomorphism between two tables keeps colours and an
    automorphism permutes each colour class.  A hash collision could only
    merge classes, which keeps the colours invariant.
    """
    seeds = _colour_seeds(table).astype(np.uint64)
    return seeds @ _mix(np.arange(seeds.shape[1]))


class _Search:
    """One search from the group or quandle src to the one tgt (the same
    object for automorphisms): both tables as nested lists, which source
    points are generators (``src.generators()``), each source point's
    candidates (the target points of its colour, ascending), and the one
    partial map: img and its inverse rev (-1 where unset), the trail of
    assigned points in order and agens, the generators processed so far
    (``_assign``); ``_undo`` takes it back.  work counts ``_assign``'s checks."""

    __slots__ = ("src", "tgt", "is_gen", "candidates", "img", "rev", "trail", "agens", "work")

    def __init__(self, src, tgt, src_colours, tgt_colours):
        n = src.order
        self.src = src.table.tolist()
        self.tgt = self.src if tgt is src else tgt.table.tolist()
        self.is_gen = [False] * n
        for g in src.generators().tolist():
            self.is_gen[g] = True
        classes = {}
        for b, c in enumerate(tgt_colours.tolist()):
            classes.setdefault(c, []).append(b)
        self.candidates = [classes.get(c, []) for c in src_colours.tolist()]
        self.img, self.rev, self.trail, self.agens, self.work = [-1] * n, [-1] * n, [], [], 0


def _undo(search, mark):
    """Unassign the points of the trail past its first mark.  agens follows
    the trail's order, so the generators among them are its tail."""
    img, rev, agens = search.img, search.rev, search.agens
    for a in search.trail[mark:]:
        rev[img[a]] = -1
        img[a] = -1
    del search.trail[mark:]
    while agens and img[agens[-1]] == -1:
        agens.pop()


# checks (``_assign``) one search may make before it is refused with ValueError
_SEARCH_BUDGET = 3_000_000


def _assign(search, a, b):
    """Set img[a] = b for an unassigned a and chase what it forces; False on
    any contradiction, leaving the map for ``_undo`` to take back.

    For every assigned x and every assigned generator g of the source, the
    image of x*g is forced to be img[x]*img[g].  A forced pair is checked as
    it is found: it must match the image already there, or else keep the
    map injective.  A newly assigned point goes on the trail, whose points
    are processed in order; each pair (x, g) is closed once, when the later
    of x and g is processed, and agens lists the generators processed so
    far.  So a completed map costs n k checks for k generators, counted into
    search.work per processed point; ValueError past _SEARCH_BUDGET checks.
    """
    src, tgt, is_gen = search.src, search.tgt, search.is_gen
    img, rev, trail, agens = search.img, search.rev, search.trail, search.agens
    if rev[b] != -1:
        return False
    img[a], rev[b] = b, a
    i = len(trail)
    trail.append(a)
    while i < len(trail):
        a = trail[i]
        fa = img[a]
        row, image_row = src[a], tgt[fa]
        if is_gen[a]:
            agens.append(a)
            search.work += len(agens) + i
        else:
            search.work += len(agens)
        if search.work > _SEARCH_BUDGET:
            raise ValueError(f"table search gave up after {_SEARCH_BUDGET:,} forced checks")
        for g in agens:                 # the pairs (a, g), a itself included when a generator
            y, z = row[g], image_row[img[g]]
            w = img[y]
            if w == -1:
                if rev[z] != -1:
                    return False
                img[y], rev[z] = z, y
                trail.append(y)
            elif w != z:
                return False
        if is_gen[a]:
            for x in trail[:i]:         # then the pairs (x, a) of the points processed before a
                y, z = src[x][a], tgt[img[x]][fa]
                w = img[y]
                if w == -1:
                    if rev[z] != -1:
                        return False
                    img[y], rev[z] = z, y
                    trail.append(y)
                elif w != z:
                    return False
        i += 1
    return True


def _dfs_first(search):
    """The first completion of the search's partial map to an isomorphism,
    or None with the map as it was.  The least unassigned point takes its
    candidates in increasing order, so this is the lexicographically least."""
    img, rev = search.img, search.rev
    if -1 not in img:
        return tuple(img)
    a = img.index(-1)
    mark = len(search.trail)
    for b in search.candidates[a]:
        if rev[b] == -1:
            found = _assign(search, a, b) and _dfs_first(search)
            if found:
                return found
            _undo(search, mark)
    return None


def table_automorphism_group(t):
    """Bijections f with f(a*b) = f(a)*f(b) of the FiniteGroup or Quandle t.

    Backtracking assigns images of points in increasing order and tries
    candidate images in increasing order, among the points of the same
    colour (``_colours``) only.  Each assignment is propagated through the
    generator columns of the table (``_assign``): f(x*g) = f(x)*f(g) for
    every assigned x and assigned generator g.  A bijection that passes on
    the generator columns is an automorphism, by the closure argument in
    ``groups._homomorphism_mask``.  Any sound propagation leaves the
    lexicographically least completion first, so the generators found do
    not depend on how much the propagation prunes.

    Rather than enumerating all automorphisms, the search builds a strong
    generating set: levels run over the points in decreasing order, level k
    looking for automorphisms fixing 0..k-1 pointwise.  For each image c of
    point k of k's colour and not already in the orbit of k under the
    generators found so far, one depth-first search either produces a coset
    representative or proves the coset empty.  Tables with enormous
    automorphism groups (all of Sym(n) for a trivial quandle) stay cheap.
    The orbit of k under the generators found so far, when level k ends, is
    level k of a stabilizer chain; the group comes back with that chain, so
    it never runs Schreier-Sims.  ValueError past _SEARCH_BUDGET checks.
    """
    n = t.order
    colours = _colours(t.table)
    search = _Search(t, t, colours, colours)
    # marks[k]: the trail's length with the identity forced on points 0..k-1
    marks = []
    for k in range(n):
        marks.append(len(search.trail))
        if search.img[k] == -1 and not _assign(search, k, k):
            raise RuntimeError("identity map rejected; malformed table")

    gens = []
    ident = tuple(range(n))
    levels = [{k: ident} for k in range(n - 1)]   # fixing 0..n-2 fixes n-1
    for k in range(n - 2, -1, -1):
        _undo(search, marks[k])
        if search.img[k] != -1:
            # image of k already forced by the identity prefix: trivial level
            continue
        orbit = _orbit(gens, k, ident)
        for c in search.candidates[k]:
            if c in orbit:
                continue
            found = _assign(search, k, c) and _dfs_first(search)
            _undo(search, marks[k])
            if found:
                gens.append(found)
                orbit = _orbit(gens, k, ident)
        levels[k] = orbit
    group = PermGroup(gens, degree=n)
    group._chain = (levels, gens)
    return group


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

