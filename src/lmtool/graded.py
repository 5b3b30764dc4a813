"""Filtered pieces of ideals of A and of their hom spaces, computed exactly.

For condition subspaces V1, V2 the hom space between the corresponding
rank-one right ideals is modeled by operators with rational coefficients:

    Hom(V1, V2) = {p : p . V1 contained in V2},  p = u o g^{-1},

where g is the conductor of V1, u runs over A, and p acts by p.f = u.(f/g).
Membership is linear in the normal form coefficients of u, and every
condition is local at a point c of V1 or V2 (below t = x - c):

  * u . C[x] in V2 -- a functional of order d at c reads the d-jet of u.f at
    c, and it is enough to check u.t^s for s <= d + b_max (b_max the largest
    d-order available): beyond that every term of u.t^s is divisible by
    t^(d+1);
  * u . (f/g) is a polynomial lying in V2 for each f in V1 -- it has no
    principal part at any root of g, and each functional of V2 at c reads
    its jet there.

The second kind is read one root of g at a time.  Let c have order m in g
and h = g/t^m, and write f/g = P + R, with P the principal part
(t^-m .. t^-1) at c and R regular there.  P = t^-m (f/h mod t^m) depends
only on the Taylor digits 0..m-1 of f at c, linearly; they lie in the local
kernel K_c (``SubspaceSpec.local_kernel``), and P is P_w for w those
digits, P_w = t^-m (w/h mod t^m).  Every column maps R to a function
regular at c, so R gives no pole row, and its value rows at c read its
digits up to t^(d + b_max) only: they are combinations of the rows of the
t^s.  At any other point f/g is regular and the same holds.  Conversely,
by the Chinese remainder theorem and Hermite interpolation, every w in K_c
is the digits at c of some f in V1 of degree below deg g.  So the
conditions at a root c are exactly the t^s rows and the rows of the m-term
jet P_w for w in a basis of K_c, its pole rows and its value rows alike; a
point that only V2 reads gives the t^s rows alone.

Each tower writes u in the columns (x - c0)^a d^b, centred at c0, the
least point of V1 and V2 (0 when there is none); the rows at a point c are
written first in its own columns t^a d^b, t = x - c.  Both kinds of rows
are read off the Laurent jet at c of F = t^s or F = P_w (by power-series
division of w by the Taylor digits of h): column t^a d^b gets the jet of
t^a d^b F by b differentiations and a multiplications by t.  The jet is
kept as its nonzero terms, and ``_add_rows`` hands each jet to the walk
that fits it: every jet of t^s is a single term, and so is P_w at 0 for
g = x^m and a w with one nonzero digit, as at a gap set; a jet of two or
more terms is a principal part, of negative exponents only.  A term y t^e
is read as t^e, since y is a factor of every row of it.  With
e^(b) = e(e - 1)...(e - b + 1) the falling factorial,
d^b (y t^e) = y e^(b) t^(e-b), and multiplying by t only raises exponents,
so column t^a d^b reads the term at t^(e-b+a) with coefficient y e^(b),
which goes from one order b to the next by the factor e - b and vanishes
past b = e for e >= 0.  For one term each column reads one exponent, so
each row is one such progression: the row of t^-p reads column
a = b - e - p at each order b from max(p + e, 0) on, and a functional of
top order o_top reads column a = o - e + b for its term o at each order b
from max(e - o_top, 0) on.  ``_term_rows`` writes each of these rows from
1 at its own first order b1, without the factor y e^(b1) that all its
entries share (a row is only defined up to scale).  ``_sum_rows`` walks a
longer jet term by term over every order with its exact coefficients, the
terms that meet in a column of a value row summed.  Either walk costs the
orders at which each term is read and the pairs of a term and a functional
term, not the jet length.

At c0 the rows go to the tower's reducer.  At any other point they go to a
reducer of that point's own, and the rows it keeps are carried to the
centre.  With c - c0 = p/q, (x - c0)^a = sum_i C(a, i) (p/q)^(a-i) t^i, so
a row r read on t^i d^b reads on (x - c0)^a d^b as
sum_{i <= a} C(a, i) (p/q)^(a-i) r(i, b), scaled by a power of q to
integers.  The carry is an invertible change of columns, unitriangular in
column order: t^i d^b goes into the columns (x - c0)^a d^b with a >= i,
each of them the same column or a later one.  So the kept rows span the
rows written at c, their carries span those rows written in the columns
at c0, the tower's row space is unchanged, and each carried row keeps its
leading column.  The points still meet in one reducer (their ranks are not
additive); only the elimination within one point runs on its own sparse
rows of small integers.  A point's t^s rows are carried before
``module_pivots`` is read, and its P_w rows, reduced against them, after.

The rows themselves are not canonical: a value row of P_w is a functional
of the jet of u.P_w, not of a polynomial u.(f/g), and it is that only
together with the t^s rows and where the pole rows hold.  What the
conditions fix is the solution set, and the row space is its annihilator,
so the pivots and the canonical RREF -- every dimension and basis -- do not
depend on which rows encode them.

Columns (monomials of u) are sorted by weighted degree, so the system for
degree k is a column prefix of the system for k_max: one reduction yields
every dimension, and the canonical nullspace gives nested bases (each basis
vector is supported on columns up to its free column).  The centre moves
none of this.  (x - c0)^a d^b is x^a d^b plus columns of lower weighted
degree, which come earlier, so each column prefix spans the same operators
for every c0: the prefix ranks, hence the pivot columns, every dimension
and the graded-inclusion reading below are those of the columns x^a d^b.
Only the bases differ, as different nested bases of the same spaces;
``hom_piece`` writes them back in x^j d^b by the binomial theorem.

Graded inclusion is read off the same reduction.  The columns of top
degree at level k are [lo, hi) = [ncols(k-1), ncols(k)), and the vectors new
at level k belong to the free columns j in [lo, hi).  The top symbol of
vector j is column j plus some pivot columns in [lo, j) (the symbol of
column (x - c0)^a d^b is x^a xi^b).  Within one degree the columns run by
rising d-order, so their x-exponents fall: column j has the least
x-exponent of its symbol.  Every symbol is therefore divisible by x^deg(g)
exactly when the last free column in [lo, hi), which has the least
x-exponent of them all, has x-exponent >= deg(g), and no basis, symbol or
RREF is built.

So the cache keeps, per tower, only its column table, deg g, kmax and the
sorted pivot columns, once; the echelon rows go once the build is done.  Every
tower of one weight reads a prefix of the same columns, so these live in
one table per weight (``_Columns``), the one owner of A_K's shape: the
(a, b) of each column, the column of (x - c0)^a d^b for each b, and dim A_K
for every degree K.  It grows by degree bands when a build asks for a
larger K, and its lists only ever grow, so towers and linear systems keep a
reference to it.  dim(k) is the column count at level k less the pivots
below it, and the (a, b) of the free columns are the tower's leading
monomials x^a xi^b.  The cache also keeps a source's principal parts at
each root of its conductor; ``clear_cache`` drops towers, tables and parts.
``hom_piece``, the reference reading that needs the canonical nullspace,
builds and reduces the rows of its level afresh on each call, and
``gr_symbol_space`` reads the top symbols of its basis.

One build also yields the module tower of dst, (TRIVIAL, dst), whose
conductor is 1.  A build offers the t^s rows of every point first and the
principal-part rows after them.  At level k of (src, dst) the columns are
those of A up to K = k + w1*deg(g), and the t^s rows are read at the
points of dst for s <= d + K // w2: exactly the rows of the module at level
K.  The module at a level below K reads a column prefix, and its rows are
among these, since a t^s row of larger s vanishes on that prefix (every
term of u.t^s is divisible by t^(d+1) there).  Only the centre can differ,
when src has a point below those of dst, and the centre moves no pivot (see
above).  So the pivots reached when the t^s rows are in are the module's,
and ``_tower_for`` caches them as the module tower at level K.  A dual
tower (dst trivial) has no t^s rows, and its module, all of A, no pivots.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import comb, lcm

from .linalg import Poly, RowReducer, poly_divmod
from .subspace import SubspaceSpec
from .weyl import Weight, WeylEl, monomial_basis


_principal_part_cache: dict[tuple[SubspaceSpec, Fraction], list[dict[int, int]]] = {}


def _principal_parts(spec: SubspaceSpec, c: Fraction) -> list[dict[int, int]]:
    """P_w = t^-m (w/h mod t^m) at a root c of spec's conductor g, t = x - c,
    m the order of g at c and h = g/t^m, for each w in ``spec.local_kernel[c]``:
    the jet ``{e - m: y}`` of the nonzero digits of the power series w/h,
    scaled to integers.  Kept until ``clear_cache``."""
    parts = _principal_part_cache.get((spec, c))
    if parts is None:
        p, t, digits = spec.conductor, Poly({0: -c, 1: 1}), []
        while not p.is_zero:
            p, r = poly_divmod(p, t)
            digits.append(r[0])
        m = spec.top_orders[c] + 1
        h = digits[m:]
        parts = _principal_part_cache[spec, c] = []
        for w in spec.local_kernel[c]:
            part: list[Fraction] = []
            for y in w:  # digit n is (w[n] - h[1] part[n-1] - ... - h[n] part[0]) / h[0]
                part.append((y - sum(a * b for a, b in zip(h[1:], reversed(part)))) / h[0])
            den = lcm(*(y.denominator for y in part))
            parts.append({e - m: int(y * den) for e, y in enumerate(part) if y})
    return parts


class _Columns:
    """The columns of every tower of one weight: the monomials (a, b) of A
    in ``monomial_basis`` order, of which a tower at degree K reads the
    prefix of degree <= K.  It grows by degree bands, and its lists are
    only ever appended to, so a tower may keep a reference to it."""

    __slots__ = ("weight", "cols", "index", "counts")

    def __init__(self, weight: Weight):
        self.weight = weight
        self.cols: list[tuple[int, int]] = []  # the (a, b) of each column
        self.index: list[list[int]] = []  # index[b][a] is the column of (x - c0)^a d^b
        self.counts = [0]  # counts[K + 1] is dim A_K, the number of columns of degree <= K

    def ncols(self, K: int) -> int:
        """dim A_K, the number of columns of degree <= K, and 0 for K < 0."""
        return self.counts[max(K + 1, 0)]

    def grow(self, top: int) -> None:
        """Append the columns of degrees up to top that are not in yet.
        Within a band the columns of each b come by rising a, and a new b
        first comes at a = 0, so each column's index is appended to its b."""
        lo = len(self.counts) - 1
        if top < lo:
            return
        band = monomial_basis(self.weight, top, lo)
        for i, (a, b) in enumerate(band, len(self.cols)):
            if b == len(self.index):
                self.index.append([])
            self.index[b].append(i)
        self.cols += band
        w1, w2 = self.weight.w1, self.weight.w2
        per_degree = Counter(w1 * a + w2 * b for a, b in band)
        for K in range(lo, top + 1):
            self.counts.append(self.counts[-1] + per_degree[K])


_column_tables: dict[Weight, _Columns] = {}


def _columns(weight: Weight, top: int) -> _Columns:
    """The column table of weight, grown to degree top at least."""
    columns = _column_tables.get(weight)
    if columns is None:
        columns = _column_tables[weight] = _Columns(weight)
    columns.grow(top)
    return columns


def column_counts(weight: Weight, kmax: int) -> list[int]:
    """dim A_k(w) for k = 0..kmax, read from the weight's column table."""
    return _columns(weight, kmax).counts[1:kmax + 2]


class _Rows:
    """The linear system of one (source, target, weight) up to kmax: its
    columns (x - c0)^a d^b, the weight's column table up to degree ``top``
    = kmax + w1*deg(g), ``col_of[b]`` those of d-order b; one ``RowReducer``
    holding its rows, built point by point from Laurent jets, each point's
    rows reduced in its own columns and carried to c0 (see the module
    docstring); and ``module_pivots``, the pivots its t^s rows reach before
    any principal-part row.  The cached ``_Tower``s keep only its pivots."""

    __slots__ = ("src", "dst", "c0", "top", "columns", "col_of", "reducer", "module_pivots")

    def __init__(self, src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, kmax: int):
        self.src = src
        self.dst = dst
        self.c0 = min(src.points + dst.points, default=Fraction(0))
        self.top = top = kmax + weight.w1 * src.conductor.degree()
        self.columns = _columns(weight, top)
        ncols = self.columns.ncols(top)
        # col_of[b][a] is the column of (x - c0)^a d^b, for each b and a of degree <= top
        self.col_of = [col[:bisect_left(col, ncols)] for col in self.columns.index[:top // weight.w2 + 1]]
        self.reducer = RowReducer(ncols)
        self._add_rows()

    # rows ---------------------------------------------------------------------

    def _add_rows(self) -> None:
        """Two rounds.  First, at each point c of dst, the rows of
        F = (x-c)^s for s <= d + b_max, d the top order of a dst functional
        at c; the pivots they reach are kept as ``module_pivots``.  Then, at
        each root c of g, those of the principal parts F = P_w of src there
        (``_principal_parts``; see the module docstring), read by dst's
        functionals at c if there are any.  Both read dst through
        ``dst.digit_rows[c]``.  The jets are taken at c, and each is walked
        by ``_term_rows`` if it is one term, else by ``_sum_rows``.  At c0
        the rows go to the tower's reducer; at any other point to a reducer
        of that point, in the columns (x - c)^a d^b, whose kept rows of each
        round are then carried to the tower's (``_carried``)."""
        b_max = len(self.col_of) - 1
        src_order, dst_order, reads = self.src.top_orders, self.dst.top_orders, self.dst.digit_rows
        local: dict[Fraction, RowReducer] = {}  # the reducers round two adds to
        for c, d in sorted(dst_order.items()):
            reducer = self._reducer_at(c)
            for s in range(d + b_max + 1):
                for row in self._term_rows(s, reads[c]):
                    reducer.add_row(row)
            self._carry(c, reducer, 0)
            if c in src_order:
                local[c] = reducer
        self.module_pivots = self.reducer.pivot_cols()
        for c in sorted(src_order):
            reducer = local.pop(c) if c in local else self._reducer_at(c)
            kept, read = reducer.rank, reads.get(c, ())
            for jet in _principal_parts(self.src, c):
                for row in self._term_rows(min(jet), read) if len(jet) == 1 else self._sum_rows(jet, read):
                    reducer.add_row(row)
            self._carry(c, reducer, kept)

    def _reducer_at(self, c: Fraction) -> RowReducer:
        """The tower's reducer at c0; a fresh one of its class elsewhere.
        A tower calls the name ``RowReducer`` once, for its own reducer, so
        whatever replaces that name (to record rows, or to count towers
        built) sees every reducer of the tower and counts the tower once."""
        return self.reducer if c == self.c0 else type(self.reducer)(self.reducer.ncols)

    def _carry(self, c: Fraction, reducer: RowReducer, start: int) -> None:
        """Offer the tower's reducer the rows ``reducer`` kept at c from
        index ``start`` on, carried to the columns (x - c0)^a d^b."""
        if reducer is not self.reducer:
            for row in self._carried(reducer.rows[start:], c - self.c0):
                self.reducer.add_row(row)

    def _carried(self, rows: Sequence[dict[int, int]], offset: Fraction) -> Iterator[dict[int, int]]:
        """``rows``, written in the columns (x - c)^i d^b, rewritten in the
        columns (x - c0)^a d^b, c - c0 = offset = p/q.  Since
        (x - c0)^a = sum_i C(a, i) (p/q)^(a-i) (x - c)^i, entry (a, b) is
        sum_{i <= a} C(a, i) p^(a-i) q^(a_top-a+i) r(i, b), the common factor
        q^a_top keeping it integral (a_top the largest a of any column).
        Column (a, b) with a >= i is (i, b) or a later one, so each row
        keeps its leading column."""
        p, q = offset.numerator, offset.denominator
        cols, col_of = self.columns.cols, self.col_of
        a_top = len(col_of[0]) - 1
        power = [p ** n * q ** (a_top - n) for n in range(a_top + 1)]
        factors: dict[int, list[int]] = {}  # i -> [C(a, i) p^(a-i) q^(a_top-a+i) for a >= i]
        for row in rows:
            carried: dict[int, int] = {}
            for idx, v in row.items():
                i, b = cols[idx]
                f = factors.get(i)
                if f is None:
                    f = factors[i] = [comb(a, i) * power[a - i] for a in range(i, a_top + 1)]
                for j, x in zip(col_of[b][i:], f):
                    carried[j] = carried.get(j, 0) + x * v
            yield carried

    def _term_rows(self, e: int, reads: Sequence[Sequence[tuple[int, int]]]) -> list[dict[int, int]]:
        """The nonempty rows of F = t^e in the columns (x - c)^a d^b: its
        pole rows t^-1, t^-2, ..., then the value row of each functional in
        ``reads``, given as its digit row (the pairs (o, coeff_o * o!) by
        rising o, primitive), each written from 1 at its own first order b1
        (see the module docstring).  Column t^a d^b reads the one term
        t^(e - b + a), so an entry is assigned and is never zero."""
        col_of = self.col_of
        b_max = len(col_of) - 1
        rows = []
        for p in range(1, b_max - e + 1 if e < 0 else 1):
            b = max(p + e, 0)
            a, c, row = b - e - p, 1, {}
            while b <= b_max and a < len(col_of[b]):
                row[col_of[b][a]] = c
                c *= e - b
                b += 1
                a += 1
            if row:
                rows.append(row)
        b_end = min(b_max, e) if e >= 0 else b_max
        for terms in reads:
            c, row = 1, {}
            for b in range(max(e - terms[-1][0], 0), b_end + 1):
                col, low = col_of[b], e - b
                for o, cf in terms:
                    if 0 <= o - low < len(col):
                        row[col[o - low]] = cf * c
                c *= low
            if row:
                rows.append(row)
        return rows

    def _sum_rows(self, jet: dict[int, int], reads: Sequence[Sequence[tuple[int, int]]]) -> list[dict[int, int]]:
        """The nonempty rows of F, the sum of the terms y t^e of ``jet``,
        all e < 0, ordered as in ``_term_rows``, in one exact walk term by
        term over every order b.  Column t^a d^b reads the term at low + a,
        low = e - b: in the row of pole t^-(low + a) for a < -low, and in
        column a = o - low of the row of a functional with term (o, cf),
        where the terms are summed and zero sums dropped."""
        b_max = len(self.col_of) - 1
        poles: list[dict[int, int]] = [{} for _ in range(b_max - min(jet))]  # poles[i] is the row of t^-(i+1)
        values: list[dict[int, int]] = [{} for _ in reads]
        for e, y in jet.items():
            for b, col in enumerate(self.col_of):
                low, a_end = e - b, len(col)  # d^b (y t^e) is y t^low
                for a in range(min(-low, a_end)):  # no other term of F reaches t^(low + a) here
                    poles[-low - a - 1][col[a]] = y
                for row, terms in zip(values, reads):
                    for o, cf in terms:
                        if o - low < a_end:
                            idx = col[o - low]
                            row[idx] = row.get(idx, 0) + cf * y
                y *= low
        # the terms that meet in one column may cancel
        rows = poles + [{i: v for i, v in row.items() if v} for row in values]
        return [row for row in rows if row]


class _Tower:
    """What the engine reads of one reduced system.  Every filtered piece up
    to kmax is a column prefix of it, and both queries need only its pivot
    columns and the monomials of its columns (see the module docstring).
    It holds deg g, kmax, ``pivots``, its pivot columns as one sorted tuple,
    and ``columns``, its weight's column table, grown to degree
    kmax + w1*deg(g) at least, which gives each count."""

    __slots__ = ("columns", "gdeg", "kmax", "pivots")

    def __init__(self, columns: _Columns, gdeg: int, kmax: int, pivots: Sequence[int]):
        self.columns = columns
        self.gdeg = gdeg
        self.kmax = kmax
        self.pivots = tuple(pivots)

    def ncols_at(self, k: int) -> int:
        """The column count at level k: ncols(K), K = k + w1*deg(g)."""
        return self.columns.ncols(k + self.columns.weight.w1 * self.gdeg)

    def dim(self, k: int) -> int:
        n = self.ncols_at(k)
        return n - bisect_left(self.pivots, n)

    def gr_divisible(self, k: int) -> bool:
        """Is the top symbol (numerator form) of every basis vector new at
        level k divisible by x^deg(g)?  Only the band's last free column,
        found below its pivots, is read, see the module docstring."""
        lo, j = self.ncols_at(k - 1), self.ncols_at(k) - 1
        i = bisect_left(self.pivots, j + 1)  # pivots[:i] are the pivots up to j
        while j >= lo and i and self.pivots[i - 1] == j:
            i, j = i - 1, j - 1
        return j < lo or self.columns.cols[j][0] >= self.gdeg


_TRIVIAL = SubspaceSpec.trivial()

_tower_cache: dict[tuple[SubspaceSpec, SubspaceSpec, Weight], _Tower] = {}


def _tower_for(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, k: int) -> _Tower:
    """The cached tower of (src, dst, weight), built at level k on a miss or
    when the cached one stops below k.  One build yields two towers: this
    one, from all the pivots of its ``_Rows``, and the module tower
    (TRIVIAL, dst, weight) at level k + w1*deg(g), from the pivots its t^s
    rows reach (see the module docstring).  The second is cached unless the
    cache holds that tower at its level or above already; for a module the
    two are one tower."""
    key = (src, dst, weight)
    tower = _tower_cache.get(key)
    if tower is None or tower.kmax < k:
        rows = _Rows(src, dst, weight, k)
        tower = _tower_cache[key] = _Tower(rows.columns, src.conductor.degree(), k, rows.reducer.pivot_cols())
        module = _tower_cache.get((_TRIVIAL, dst, weight))
        if module is None or module.kmax < rows.top:
            _tower_cache[_TRIVIAL, dst, weight] = _Tower(rows.columns, 0, rows.top, rows.module_pivots)
    return tower


def clear_cache() -> None:
    """Drop all memoized towers, column tables and principal parts (mainly
    for honest timing in tests)."""
    _tower_cache.clear()
    _column_tables.clear()
    _principal_part_cache.clear()


def hom_piece(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, k: int) -> tuple[WeylEl, ...]:
    """Basis of {p : wdeg(p) <= k, p . V1 in V2}, each p = u o g^{-1} given
    by its numerator u (g is ``src.conductor``): the canonical nullspace at
    level k of a system built for it alone, column (x-c0)^a d^b written out
    as sum_j C(a, j) (-c0)^(a-j) x^j d^b.  The bases are nested: the basis
    at level k-1 is a prefix of the one at level k."""
    rows = _Rows(src, dst, weight, max(k, 0))
    minus_c0 = -rows.c0
    powers = [[(j, comb(a, j) * minus_c0 ** (a - j)) for j in range(a + 1) if minus_c0 or j == a]
              for a in range(len(rows.col_of[0]))]
    return tuple(
        WeylEl(((j, b), c * cj)
               for i, c in vec.items()
               for a, b in [rows.columns.cols[i]]
               for j, cj in powers[a])
        for vec in rows.reducer.nullspace(rows.columns.ncols(rows.top + min(k, 0))))


def module_dims(spec: SubspaceSpec, weight: Weight, kmax: int) -> list[int]:
    return hom_dims(_TRIVIAL, spec, weight, kmax)


def hom_dims(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, kmax: int, kmin: int = 0) -> list[int]:
    tower = _tower_for(src, dst, weight, max(kmax, 0))
    return [tower.dim(k) for k in range(kmin, kmax + 1)]


def gr_symbol_space(src: SubspaceSpec, dst: SubspaceSpec, weight: Weight, k: int) -> tuple[WeylEl, ...]:
    """Basis of the degree-k graded piece as principal symbols in numerator
    form, of weighted degree k + w1*deg(g): the nonzero top parts of
    ``hom_piece``'s basis at level k, each a ``WeylEl`` whose x^a d^b reads
    as the symbol x^a xi^b.  Because bases are nested, those are
    the vectors whose free column is of top degree, each with coefficient 1
    on its monomial; an older vector is of lower degree.  Their symbols are
    independent and span the graded piece, of dimension dim_k - dim_{k-1}.
    """
    top = k + weight.w1 * src.conductor.degree()
    symbols = (u.top_component(weight, top) for u in hom_piece(src, dst, weight, k))
    return tuple(sym for sym in symbols if not sym.is_zero)


def gr_inclusion_check(spec: SubspaceSpec, weight: Weight, k: int) -> bool:
    """Does the degree-k graded piece of End sit inside gr A?

    In numerator form this is divisibility of every symbol by x^deg(g).  The
    answer is the one ``gr_symbol_space`` gives, read from the End tower's
    pivot columns without building any basis (see the module docstring).
    """
    return _tower_for(spec, spec, weight, max(k, 0)).gr_divisible(k)
