"""Finite groups as Cayley tables, and their automorphisms.

A group of order n lives on the elements {0, ..., n-1} with 0 as the
identity.  Tables are numpy int arrays locked read-only after validation;
every operation on top of them is exact integer work.  Abelian groups built
from cyclic factors carry their factor list and per-element coordinate
tuples, which is what scalar and matrix automorphisms act on.

A group automorphism is exactly a bijection preserving the Cayley table, so
Aut(G) comes from the table search for quandle automorphism groups
(``quandles.perms.table_automorphism_group``), run once per group
(``_aut_search``) and bounded by its budget of forced checks, not by the
order of G.  Up to the element cap of ``PermGroup.element_array`` it is
listed as one cached array of image rows (``automorphism_array``), which
gives the conjugacy classes and their centralizers (``_aut_classes``).  A
brute-force search over at most _BIJECTION_CAP bijections is an oracle.

Tables are read and written in one plain-text format shared with quandles:
first line the order, then one row per line.
"""

import functools
import itertools
import warnings
from math import factorial, gcd, prod

import numpy as np

from .perms import _generators, _smallest, _tinverse, table_automorphism_group

# Most bijections _brute_force_bijections filters: a group of order 9 or a quandle of order 8.
_BIJECTION_CAP = factorial(8)
# Largest order a constructor builds (``_check_table_order``) and _read_table
# loads: R_1024 takes about 0.12 s to build and a fresh process 57 MB peak RSS,
# R_2000 0.4 s and 130 MB; loading R_1023 from its file peaks at 46 MB.
_TABLE_ORDER_BOUND = 1024
# Bytes the live temporaries of one chunk of a bulk kernel may take
# (_row_chunks, _first_witness).  Gathers are built in the smallest dtype
# (_smallest), and numpy casts a fancy index to intp in small buffers, not as
# a whole copy, so a gathered entry costs its output dtype's bytes; an intp
# index built whole for a flat take (_homomorphism_mask) costs 8 bytes an
# entry.  3 MiB keeps the witness scan at 2^20 // n^2 rows per chunk for
# uint8 sides (two sides and a mask, 3 bytes an entry).  Budgets of 2 to 5
# MiB moved the peak RSS of `quandles verify all` by about 1 MB and its time
# not measurably.
_CHUNK_BYTES = 3 << 20


class FiniteGroup:
    """Immutable finite group given by its Cayley table.

    table[a][b] is the product a*b.  Identity is element 0.  ``labels`` are
    display names only and play no role in any computation.
    """

    def __init__(self, table, labels=None, name=None, abelian_coordinates=None):
        arr = _square_table(table, "group")
        n = arr.shape[0]
        self._gens = _validate_group_table(arr)
        arr.setflags(write=False)
        self.table = arr
        self.order = n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} elements")
        self.name = name if name is not None else f"group{n}"
        if abelian_coordinates is not None:
            factors, coords = abelian_coordinates
            self.abelian_coordinates = (tuple(factors), tuple(tuple(c) for c in coords))
        else:
            self.abelian_coordinates = None
        inv = (arr == 0).argmax(axis=1)
        inv.setflags(write=False)
        self._inv = inv
        self._is_abelian = None
        self._center = None
        self._orders = None
        self._cache = {}

    def mul(self, a, b):
        return self.table.item(a, b)

    def inv(self, a):
        return int(self._inv[a])

    @property
    def identity(self):
        return 0

    def elements(self):
        return range(self.order)

    def inverse_array(self):
        return self._inv

    def is_abelian(self):
        if self._is_abelian is None:
            self._is_abelian = bool(np.array_equal(self.table, self.table.T))
        return self._is_abelian

    def power(self, a, k):
        """a**k for integer k (negative allowed)."""
        if k < 0:
            return self.power(self.inv(a), -k)
        out = 0
        base = a
        while k:
            if k & 1:
                out = self.table.item(out, base)
            base = self.table.item(base, base)
            k >>= 1
        return out

    def generators(self):
        """A generating set, greedy in element order and without the
        identity (``_generators``), as found by validation."""
        return self._gens

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def _row_chunks(rows, row_bytes):
    """Slices cutting range(rows) so that the live temporaries of a slice,
    row_bytes per row, take about _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    for lo in range(0, rows, step):
        yield slice(lo, min(lo + step, rows))


def _homomorphism_mask(src, tgt, gens, maps):
    """Mask over maps, (m, |src|) image rows f from the table src to the
    table tgt of order n, both group or both quandle tables: f(x*g) =
    f(x)*f(g) for every x and every g in gens, a generating set of src, at
    m |src| k cost in chunks.  Each chunk is transposed so that its rows run
    along the contiguous axis: f(x*g) gathers whole rows of f, and
    f(x)*f(g) = tgt.T[f(g), f(x)] is one flat take at the intp index
    f(g) n + f(x), 8 bytes per (row, g, x), for which the chunks are sized.

    A passing row is a homomorphism, bijective or not: the c with
    f(x*c) = f(x)*f(c) for every x are closed under the product, so they
    hold the closure of gens, which is everything.  In a group by
    associativity, f(x(cd)) = f((xc)d) = f(x)f(c)f(d) = f(x)f(cd), and the
    identity is a power of a generator (order 1 has none: every row
    passes).  In a quandle by axioms 2 and 3: with x = y*d,
    f(x*(c*d)) = f((y*c)*d) = (f(y)*f(c))*f(d) = (f(y)*f(d))*(f(c)*f(d)).
    """
    gens, n = np.asarray(gens, dtype=np.int64), len(tgt)
    by_col = np.ascontiguousarray(_smallest(tgt, n).T).ravel()     # tgt[y, c] at c n + y
    maps, ok = _smallest(maps, n), np.empty(len(maps), dtype=bool)
    # per row: f and its intp copy at each x; the intp index, both sides and their mask at each (g, x)
    for s in _row_chunks(len(maps), len(src) * (maps.itemsize + 8 + len(gens) * (8 + 2 * maps.itemsize + 1))):
        f = np.ascontiguousarray(maps[s].T)                          # f[x]: f(x) along the chunk's rows
        at = f.astype(np.intp)
        at = (at[gens] * n)[:, None] + at                            # (k, |src|, rows): f(g) n + f(x)
        ok[s] = (f[src[:, gens].T] == by_col.take(at)).all(axis=(0, 1))
    return ok


def _row_lookup(rows):
    """A function that maps an (..., n) array to the index in rows of each
    of its rows, -1 where absent (everywhere when rows is empty), the first
    index where rows repeats it: ``_row_lookup(rows)(rows)`` names each
    row's first copy."""
    n = rows.shape[1]
    if not len(rows):
        return lambda query: np.full(np.shape(query)[:-1], -1)
    key = np.dtype((np.void, n * rows.dtype.itemsize))          # one image row as one key
    keys = np.ascontiguousarray(rows).view(key).ravel()
    order = np.argsort(keys, kind="stable")                     # equal keys keep their index order
    ordered = keys[order]

    def find(query):
        q = np.ascontiguousarray(query, dtype=rows.dtype).reshape(-1, n).view(key).ravel()
        pos = np.minimum(np.searchsorted(ordered, q), len(keys) - 1)
        return np.where(ordered[pos] == q, order[pos], -1).reshape(query.shape[:-1])
    return find


def _first_witness(arr, sides):
    """The lexicographically first (a, b, c) at which the two sides of a law
    on the triples of the n x n table arr differ.

    arr is in its smallest dtype (``_smallest``), and sides(rows) returns
    both sides as (k, n, n) arrays of arr's dtype for the k table rows a in
    rows.  The scan runs over a in order, starting with a single row and
    doubling the chunk up to the rows whose two sides and mask take
    _CHUNK_BYTES, so a first defect in row a costs about a n^2 work plus one
    doubling, and memory never exceeds one capped chunk.  None when the law
    holds.
    """
    lo, step, cap = 0, 1, max(1, _CHUNK_BYTES // (arr.size * (2 * arr.itemsize + 1)))
    while lo < len(arr):
        left, right = sides(arr[lo:lo + step])
        if not np.array_equal(left, right):
            a, b, c = (int(x) for x in np.argwhere(left != right)[0])
            return a + lo, b, c
        lo, step = lo + step, min(2 * step, cap)


def _repeating_columns(arr):
    """Mask over the columns of the n x n table arr, entries in 0..n-1: True
    where a column repeats a value.  A column of n entries repeats one
    exactly when it misses one, so one scatter into an n x n bool mask
    decides every column, with no sorted copy of arr."""
    n = arr.shape[0]
    seen = np.zeros((n, n), dtype=bool)
    seen[arr, np.arange(n)] = True
    return ~seen.all(axis=0)


def _validate_group_table(arr):
    """Raise ValueError unless arr is a group table with identity 0; return
    the table's generators other than 0 (``_generators``).

    Associativity is Light's test: (x g) y = x (g y) for every x, y and every
    generator g.  The g that pass are closed under the product, since
    (x (g h)) y = ((x g) h) y = (x g)(h y) = x (g (h y)) = x ((g h) y), so
    they hold the closure of the generators, which is every element.  When
    a generator fails, ``_first_witness`` names the first failing triple: a
    defect first found in row x costs about x n^2 plus one doubling.
    """
    n = arr.shape[0]
    rng = np.arange(n)
    if not np.array_equal(arr[0], rng) or not np.array_equal(arr[:, 0], rng):
        raise ValueError("element 0 is not a two-sided identity")
    small = _smallest(arr, n)
    if _repeating_columns(small).any() or _repeating_columns(small.T).any():
        raise ValueError("table rows/columns are not permutations (not a Latin square)")
    gens = _generators(n, lambda g: small[:, g].tolist(), identity=0)
    if all(np.array_equal(small[small[:, g]], small[:, small[g]]) for g in gens):
        return gens
    # a generator fails: (a, b, c) -> (a*b)*c against a*(b*c) over every triple
    a, b, c = _first_witness(small, lambda rows: (small[rows], rows[:, small]))
    raise ValueError(f"associativity fails at ({a}, {b}, {c})")


def element_order(group, a):
    """Multiplicative order of a, by repeated multiplication."""
    k = 1
    cur = a
    while cur != 0:
        cur = group.mul(cur, a)
        k += 1
    return k


def _element_orders(group):
    if group._orders is None:
        group._orders = [element_order(group, a) for a in group.elements()]
    return group._orders


def center(group):
    """Sorted list of elements commuting with everything."""
    if group._center is None:
        eq = (group.table == group.table.T).all(axis=1)
        group._center = [int(a) for a in np.nonzero(eq)[0]]
    return group._center


def is_elementary_abelian(group):
    """Nontrivial abelian group in which every non-identity element has the
    same prime order."""
    if group.order == 1 or not group.is_abelian():
        return False
    orders = {_element_orders(group)[a] for a in range(1, group.order)}
    if len(orders) != 1:
        return False
    p = orders.pop()
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def doubling_image(group):
    """Sorted image of a -> a*a; abelian groups only."""
    if not group.is_abelian():
        raise ValueError(f"{group.name} is not abelian")
    return sorted({group.mul(a, a) for a in group.elements()})


# -- homomorphisms ---------------------------------------------------------


class GroupMap:
    """Group homomorphism given by its image array; validated on construction.

    The check runs on the domain's generators (``_homomorphism_mask``); when
    it fails, the scan over all pairs names the first failing (a, b).
    """

    def __init__(self, domain, codomain, images):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(int(x) for x in images)
        if len(self.images) != domain.order:
            raise ValueError(f"{len(self.images)} images for order {domain.order}")
        if any(not 0 <= x < codomain.order for x in self.images):
            raise ValueError("image outside codomain")
        if self.images[0] != 0:
            raise ValueError("homomorphism must send identity to identity")
        img = np.array(self.images, dtype=np.int64)
        if not _homomorphism_mask(domain.table, codomain.table, domain.generators(), img[None])[0]:
            lhs = codomain.table[img[:, None], img[None, :]]
            rhs = img[domain.table]
            a, b = (int(x) for x in np.argwhere(lhs != rhs)[0])
            raise ValueError(f"not a homomorphism: f({a}*{b}) != f({a})*f({b})")
        self._is_bijective = len(set(self.images)) == domain.order

    @property
    def is_bijective(self):
        return self._is_bijective

    @property
    def is_automorphism(self):
        return (
            self._is_bijective
            and self.domain.order == self.codomain.order
            and (self.domain is self.codomain or np.array_equal(self.domain.table, self.codomain.table))
        )

    def __call__(self, a):
        return self.images[a]

    def then(self, other):
        """Composite map: apply self first, then other."""
        if other.domain.order != self.codomain.order:
            raise ValueError("maps do not compose")
        return GroupMap(self.domain, other.codomain, tuple(other.images[x] for x in self.images))

    def inverse(self):
        if not self.is_automorphism:
            raise ValueError("only automorphisms invert")
        return GroupMap(self.domain, self.domain, _tinverse(self.images))

    def __eq__(self, other):
        return (
            isinstance(other, GroupMap)
            and self.images == other.images
            and self.domain.order == other.domain.order
        )

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"GroupMap({self.domain.name} -> {self.codomain.name}, {self.images})"


def map_from_images(group, images):
    """Endomorphism of a group from an explicit image list (validated)."""
    return GroupMap(group, group, images)


def identity_map(group):
    return GroupMap(group, group, range(group.order))


def negation_map(group):
    """a -> a^-1; an automorphism exactly for abelian groups."""
    if not group.is_abelian():
        raise ValueError("inversion is a homomorphism only on abelian groups")
    return GroupMap(group, group, [group.inv(a) for a in group.elements()])


def _require_coordinates(group):
    if group.abelian_coordinates is None:
        raise ValueError(f"{group.name} carries no cyclic factor coordinates")
    return group.abelian_coordinates


def scalar_map(group, u):
    """Coordinate-wise multiplication by u on an abelian group with factors:
    the matrix u I."""
    factors, _ = _require_coordinates(group)
    k = len(factors)
    try:
        return matrix_map(group, [[u * (i == j) for j in range(k)] for i in range(k)])
    except ValueError:
        raise ValueError(f"{u} is not a unit for factors {factors}") from None


def matrix_map(group, rows):
    """Matrix action on coordinates: new_i = sum_j rows[i][j] * old_j mod factor_i.

    Validation rejects matrices that fail to define an automorphism (for
    instance when they are not invertible, or mix factors incompatibly).
    """
    factors, coords = _require_coordinates(group)
    k = len(factors)
    mat = [list(r) for r in rows]
    if len(mat) != k or any(len(r) != k for r in mat):
        raise ValueError(f"matrix must be {k}x{k} for factors {factors}")
    index = {c: i for i, c in enumerate(coords)}
    images = []
    for c in coords:
        target = tuple(sum(mat[i][j] * c[j] for j in range(k)) % factors[i] for i in range(k))
        images.append(index[target])
    phi = GroupMap(group, group, images)
    if not phi.is_bijective:
        raise ValueError("matrix does not act invertibly on the group")
    return phi


# -- automorphism groups ----------------------------------------------------


def _aut_search(group):
    """Aut(G) from the table search, run once and cached; ValueError past its budget."""
    if "aut_search" not in group._cache:
        group._cache["aut_search"] = table_automorphism_group(group)
    return group._cache["aut_search"]


def automorphism_array(group):
    """Aut(G) as one cached, read-only (m, n) array of image rows in the
    smallest dtype (``_smallest``), lexsorted, listed from the cached table
    search (``_aut_search``).  ValueError past the search's budget or, before
    any row is built, past the element cap of ``PermGroup.element_array``."""
    if "aut_array" not in group._cache:
        arr = _aut_search(group).element_array()
        arr = arr[np.lexsort(arr.T[::-1])]          # first column is the primary key
        arr.setflags(write=False)
        group._cache["aut_array"] = arr
    return group._cache["aut_array"]


def _aut_classes(group):
    """Aut(G)'s conjugacy classes {psi phi psi^-1}, cached, read-only: (reps,
    sizes, centralizers), reps the least row of each in ``automorphism_array``
    order.  The least row phi in no class yet is conjugated by every row psi
    in one gather: the distinct conjugates are its class, the psi that give
    phi back C(phi).  RuntimeError unless each conjugate is a row of the
    array and |class| |C(phi)| = |Aut(G)|."""
    if "aut_classes" not in group._cache:
        arr = automorphism_array(group)
        m, find = len(arr), _row_lookup(arr)
        label = np.full(m, -1)                                       # each row's class, -1 for none yet
        cents = []
        while label.min() < 0:
            phi = arr[label.argmin()]                                # the least row in no class yet
            conj = np.empty_like(arr)                                # row psi: psi phi psi^-1, which
            np.put_along_axis(conj, arr, arr[:, phi], axis=1)        # maps psi(x) to psi(phi(x))
            hit = np.zeros(m + 1, dtype=bool)                        # slot m, index -1: a conjugate
            hit[find(conj)] = True                                   # outside the array
            members = np.flatnonzero(hit[:m])
            fixed = (conj == phi).all(axis=1)
            if hit[m] or len(members) * np.count_nonzero(fixed) != m:
                raise RuntimeError(f"conjugation on Aut({group.name}) does not give its classes")
            label[members] = len(cents)
            cents.append(arr if fixed.all() else arr[fixed])         # a central phi shares the array
        classes = (arr[np.unique(label, return_index=True)[1]], np.bincount(label), tuple(cents))
        for a in (*classes[:2], *cents):
            a.setflags(write=False)
        group._cache["aut_classes"] = classes
    return group._cache["aut_classes"]


def _maps(group, rows):
    return [GroupMap(group, group, t) for t in rows.tolist()]


def automorphism_group(group):
    """All automorphisms as GroupMaps, sorted by image tuple: the rows of ``automorphism_array``."""
    return _maps(group, automorphism_array(group))


def _brute_force_bijections(table, fixed=0):
    """Oracle: every bijection p of the table's points that fixes 0..fixed-1
    and keeps the table, p(a*b) = p(a)*p(b), in lexicographic order, by
    filtering all of them.  It shares no code with the table search.
    ValueError, before the first is tried, past _BIJECTION_CAP bijections."""
    n = len(table)
    count = factorial(n - fixed)
    if count > _BIJECTION_CAP:
        raise ValueError(f"brute force would filter {count:,} bijections, above the cap {_BIJECTION_CAP:,}")
    t = table.tolist()
    pairs = [(a, b) for a in range(n) for b in range(n)]
    head = tuple(range(fixed))
    for rest in itertools.permutations(range(fixed, n)):
        p = head + rest
        if all(p[t[a][b]] == t[p[a]][p[b]] for a, b in pairs):
            yield p


def brute_force_group_automorphisms(group):
    """Oracle: filter every bijection fixing 0.  Orders up to 9 only."""
    return [GroupMap(group, group, p) for p in _brute_force_bijections(group.table, fixed=1)]


def is_fixed_point_free(phi):
    """No non-identity element is fixed.  Automorphisms only."""
    if not phi.is_automorphism:
        raise ValueError("fixed-point-freeness is defined for automorphisms")
    return bool(_fixed_point_free(np.array([phi.images]))[0])


def is_central_automorphism(phi):
    """a^-1 * phi(a) lands in the center for every a."""
    if not phi.is_automorphism:
        raise ValueError("centrality is defined for automorphisms")
    return bool(_central(phi.domain, np.array([phi.images]))[0])


def _fixed_point_free(rows):
    """Mask over image rows: no point besides 0 is fixed."""
    return (rows[:, 1:] != np.arange(1, rows.shape[1])).all(axis=1)


def _twisted_rows(group, rows):
    """Row i is the twisted map a -> a^-1 phi(a) of the image row phi = rows[i],
    in the smallest dtype."""
    return _smallest(group.table, group.order)[group.inverse_array(), rows]


def _central(group, rows):
    """Mask over image rows: the twisted map lands in the center."""
    in_center = np.zeros(group.order, dtype=bool)
    in_center[center(group)] = True
    return in_center[_twisted_rows(group, rows)].all(axis=1)


def _centralizer_rows(group, images):
    """Image rows of the automorphisms commuting with the automorphism of the
    given images: a sorted sub-array of ``automorphism_array``."""
    arr, pim = automorphism_array(group), np.asarray(images)
    return arr[(arr[:, pim] == pim[arr]).all(axis=1)]


def centralizer_in_aut(group, phi):
    """Automorphisms commuting with phi, as a sorted sublist of Aut."""
    if not phi.is_automorphism:
        raise ValueError("centralizer is taken around an automorphism")
    return _maps(group, _centralizer_rows(group, phi.images))


# -- constructors -----------------------------------------------------------


def _check_table_order(n, shown=None):
    """ValueError for a table of order n (named as shown, if given) above
    _TABLE_ORDER_BOUND; each constructor calls it before it allocates.  An
    order past 2^64 is named by its number of digits, counted without
    printing it: Python refuses to print an int of more than 4,300 digits."""
    if n > _TABLE_ORDER_BOUND:
        if shown is None and n.bit_length() > 64:
            digits = (n.bit_length() - 1) * 3 // 10 + 1     # 10^(digits-1) <= 2^(bits-1) <= n
            power = 10 ** digits
            while power <= n:
                digits, power = digits + 1, power * 10
            shown = f"of {digits:,} digits"
        raise ValueError(f"order {shown or n} exceeds bound {_TABLE_ORDER_BOUND}")


def make_cyclic(n):
    """Integers mod n under addition."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return make_abelian([n], name=f"Z{n}")


def make_abelian(factors, name=None):
    """Direct sum of cyclic groups; elements are mixed-radix coordinate tuples."""
    factors = [int(f) for f in factors]
    if not factors or any(f < 1 for f in factors):
        raise ValueError(f"factors must be positive, got {factors}")
    n = prod(factors)
    _check_table_order(n)
    coords = list(itertools.product(*[range(f) for f in factors]))
    digits = np.array(coords, dtype=np.int64).reshape(n, len(factors))
    table = np.zeros((n, n), dtype=np.int64)
    for f, place, d in zip(factors, n // np.cumprod(factors), digits.T):
        table += (d[:, None] + d[None, :]) % f * place     # mixed radix: the last factor varies fastest
    table.setflags(write=False)                             # handed over, so FiniteGroup does not copy it
    if name is None:
        name = "x".join(f"Z{f}" for f in factors)
    labels = [",".join(map(str, c)) if len(factors) > 1 else str(c[0]) for c in coords]
    return FiniteGroup(table, labels=labels, name=name, abelian_coordinates=(factors, coords))


def make_symmetric(n):
    """Symmetric group on n letters, permutations in lexicographic order.

    Product a*b acts left-to-right: (a*b)(x) = b(a(x)).  Element 0 is the
    identity permutation.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_table_order(factorial(min(n, 20)), shown=f"{n}!")    # 20! is past any table bound
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8).reshape(-1, n)
    place = n ** np.arange(n - 1, -1, -1)   # mixed-radix keys rise with the rows' lexicographic order
    products = perms[:, perms]              # products[b, a] = pb[pa], the permutation a*b
    table = np.searchsorted(perms @ place, products @ place).T
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    return FiniteGroup(table, labels=labels, name=f"S{n}")


def _inverting_extension(m, shift, labels, name):
    """<a, b | a^m, b^2 = a^shift, b a b^-1 = a^-1>, order 2m; a^i b^j indexed i + m*j."""
    _check_table_order(2 * m)
    j, i = np.divmod(np.arange(2 * m), m)
    j1, j2 = j[:, None], j[None, :]
    # a^i1 b^j1 a^i2 b^j2 = a^(i1 +- i2 + shift j1 j2) b^(j1 + j2), minus when j1 = 1
    table = (i[:, None] + (1 - 2 * j1) * i[None, :] + shift * (j1 & j2)) % m + m * (j1 ^ j2)
    table.setflags(write=False)         # handed over, so FiniteGroup does not copy it
    return FiniteGroup(table, labels=labels, name=name)


def make_dihedral_group(n):
    """Symmetries of the regular n-gon, order 2n; r^i s^j indexed as i + n*j."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    labels = (f"{s}r{i}" for s in ("", "s") for i in range(n))      # built after the order check
    return _inverting_extension(n, 0, labels, f"D{n}")


def make_dicyclic(n):
    """Dicyclic group of order 4n: a^(2n)=1, b^2=a^n, b a b^-1 = a^-1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    labels = (f"a{i}{b}" for b in ("", "b") for i in range(2 * n))  # built after the order check
    return _inverting_extension(2 * n, n, labels, f"Dic{n}")


def make_quaternion8():
    """The quaternion group {±1, ±i, ±j, ±k}: the dicyclic group of order 8."""
    return _inverting_extension(4, 2, ["1", "i", "-1", "-i", "j", "k", "-j", "-k"], "Q8")


def direct_product(g, h):
    """Componentwise product on pairs, indexed a*|H| + b."""
    ng, nh = g.order, h.order
    n = ng * nh
    _check_table_order(n)
    # pair (a, b) gets index a*nh + b; multiply componentwise
    t4 = g.table[:, None, :, None] * nh + h.table[None, :, None, :]
    table = t4.reshape(n, n)
    labels = [f"{la}|{lb}" for la in g.labels for lb in h.labels]
    coords = None
    if g.abelian_coordinates is not None and h.abelian_coordinates is not None:
        gf, gc = g.abelian_coordinates
        hf, hc = h.abelian_coordinates
        coords = (list(gf) + list(hf), [tuple(ca) + tuple(cb) for ca in gc for cb in hc])
    return FiniteGroup(table, labels=labels, name=f"{g.name}x{h.name}", abelian_coordinates=coords)


# -- catalog ----------------------------------------------------------------


def _partitions(k):
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


def _abelian_factor_lists(order):
    """Factor lists of the distinct abelian groups of the given order."""
    remaining = order
    primes = []
    p = 2
    while p * p <= remaining:
        if remaining % p == 0:
            e = 0
            while remaining % p == 0:
                remaining //= p
                e += 1
            primes.append((p, e))
        p += 1
    if remaining > 1:
        primes.append((remaining, 1))
    per_prime = []
    for p, e in primes:
        per_prime.append([[p ** part for part in parts] for parts in _partitions(e)])
    if not per_prime:
        return [[1]]
    out = []
    for combo in itertools.product(*per_prime):
        factors = sorted((f for chunk in combo for f in chunk), reverse=True)
        out.append(factors)
    return out


@functools.cache
def _catalog_abelian(factors):
    return make_abelian(factors)


@functools.cache
def _catalog_nonabelian():
    z2 = make_cyclic(2)
    return (
        make_symmetric(3),
        make_dihedral_group(4),
        make_quaternion8(),
        make_dihedral_group(5),
        make_dihedral_group(6),
        make_dihedral_group(7),
        make_dihedral_group(8),
        make_dicyclic(4),
        direct_product(make_dihedral_group(4), z2),
        direct_product(make_quaternion8(), z2),
        make_symmetric(4),
    )


def catalog_groups(max_order):
    """Small-order group catalog used by the exhaustive theorem checks.

    Every abelian group up to max_order (one per isomorphism class), plus a
    fixed non-abelian family list: symmetric, dihedral, dicyclic and direct
    products with Z2.  The list is deterministic and sorted by order.

    Each group is built once per process and shared by every call, so its
    cached ``automorphism_array`` serves every later sweep: treat the groups
    as read-only.  The list itself is new on each call.
    """
    _check_table_order(max_order)
    groups = [_catalog_abelian(tuple(f)) for n in range(1, max_order + 1) for f in _abelian_factor_lists(n)]
    groups += [g for g in _catalog_nonabelian() if g.order <= max_order]
    groups.sort(key=lambda g: (g.order, g.name))
    return groups


_NAMED_GROUPS = {
    "s3": lambda: make_symmetric(3),
    "s4": lambda: make_symmetric(4),
    "q8": make_quaternion8,
    "q16": lambda: make_dicyclic(4),
    "d4": lambda: make_dihedral_group(4),
    "d5": lambda: make_dihedral_group(5),
    "d6": lambda: make_dihedral_group(6),
    "d8": lambda: make_dihedral_group(8),
}


def group_by_name(name):
    """Look up a named group: zN, s3/s4, q8/q16, d4..d8, or 'aXbXc' factors."""
    key = name.strip().lower()
    if key in _NAMED_GROUPS:
        return _NAMED_GROUPS[key]()
    if key.startswith("z") and key[1:].isdigit():
        return make_cyclic(int(key[1:]))
    parts = [p[1:] if p.startswith("z") else p for p in key.split("x")]
    if parts and all(p.isdigit() and int(p) >= 1 for p in parts):
        return make_abelian([int(p) for p in parts])
    raise ValueError(f"unknown group name: {name!r}")


# -- file format -------------------------------------------------------------


def _write_table(fh, table):
    """Write table to the open text file fh: first line the order, then one
    row per line, a row at a time, so the text is never held whole."""
    fh.write(f"{len(table)}\n")
    line = " ".join(["%d"] * len(table)) + "\n"
    for row in table:
        fh.write(line % tuple(row.tolist()))


def _square_table(table, kind):
    """The intake of every FiniteGroup and Quandle: table as an int64 array,
    or ValueError naming the kind of table unless square, nonempty, in 0..n-1.

    An int64 array that is read-only and owns its data is taken as it is:
    _read_table and the closed-form builders hand their tables over so.
    Anything else is copied, a writable array or a view of one included, so
    a caller's array that may still change is never aliased."""
    owned = isinstance(table, np.ndarray) and table.dtype == np.int64 and table.flags.owndata
    arr = table if owned and not table.flags.writeable else np.array(table, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{kind} table must be square and nonempty, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() >= arr.shape[0]:
        raise ValueError("table entries must lie in 0..n-1")
    return arr


def _read_table(path, kind):
    """The square table in a table file: the order n in 1.._TABLE_ORDER_BOUND,
    checked before the body is read, then n lines of n integers.  A parse
    error names the file and the line, counted from the file's first line."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # refused by shape
        first = fh.readline()
        try:
            n = int(first)
        except ValueError:
            raise ValueError(f"{path}: line 1: the order {first.strip()!r} is not an integer") from None
        if not 1 <= n <= _TABLE_ORDER_BOUND:
            raise ValueError(f"{path}: {kind} order {n} is not in 1..{_TABLE_ORDER_BOUND}")
        try:
            body = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            fh.seek(0)
            raise ValueError(f"{path}: {_bad_line(fh.readlines(), n) or exc}") from None
    if body.shape != (n, n):
        raise ValueError(f"{path}: expected {n} rows of {n} entries, found shape {body.shape}")
    body.setflags(write=False)      # _square_table takes it without a copy
    return body


def _bad_line(lines, n):
    """"line k: why" for the first body line of a table file of order n that
    cannot parse, or None; lines[0] holds the order."""
    for number, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        for tok in tokens:
            try:
                if abs(int(tok)) >= 1 << 63:
                    return f"line {number}: {tok!r} does not fit in 64 bits"
            except ValueError:
                return f"line {number}: {tok!r} is not an integer"
        if tokens and len(tokens) != n:
            return f"line {number}: expected {n} entries, found {len(tokens)}"
    return None


def save_group(group, path):
    """Write the table: first line the order, then one row per line."""
    with open(path, "w") as fh:
        _write_table(fh, group.table)


def load_group(path, name=None):
    """Read and fully validate a Cayley table file."""
    return FiniteGroup(_read_table(path, "group"), name=name or "loaded")


def euler_phi(n):
    """Count of units mod n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
