"""Exact linear algebra over the rationals.

Every rational input is read by one reader, ``ratio``, into (num, den) in
lowest terms with den > 0; ``frac`` is its ``Fraction``, and ``cleared``
takes rows of such pairs straight to int rows over the lcm of their dens.
Matrices are tuples of tuples of ``Fraction`` or int; everything is exact,
with no floating point and no tolerances.  There is one Gaussian
elimination, ``EchelonAccumulator.add``, fraction-free over int: ``rank``
reads its rank, and ``nullspace`` and ``solve_unique`` the reduced row
echelon form that ``_echelon`` gets from its kept rows by back-substitution.
Only the oracles (``higgsstrata.oracles``) call those two; they stay here
because the benchmark traces them by these names.  There is one Laplace
expansion, ``minors``, behind ``det``, ``adjugate``, ``full_row_rank`` and
the cofactor tables of ``point_model``, over any commutative ring with
``+``, ``-``, ``*`` and truthiness at zero; ``full_row_rank`` finds the
pivot columns of the reduced row echelon form through it, with no elimination.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[tuple[Fraction, ...], ...]

# The exponent of a decimal string such as "1.5e-3", in Fraction's syntax.
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def integer(x) -> int:
    """``x`` itself if it is an int; floats, bools, strings and fractions are refused."""
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def ratio(x) -> tuple[int, int]:
    """The one reader of a rational: ``x`` as (num, den) in lowest terms, den > 0.

    Reads ints, strings in ``Fraction``'s syntax ('3/4', '-2.5E+3'), Fractions
    and {'num','den'} dicts of ints, reduced with no ``Fraction``.  Floats and
    bools are refused, also as a dict's num or den, not rounded, and so is a
    string whose exponent exceeds ``sys.get_int_max_str_digits()`` in magnitude:
    Fraction would build 10 to that power, which the digit limit never sees.

    A str in the plain form -?[0-9]+(/[0-9]+)? with a nonzero den, what the
    CLI's clouds and ``str(Fraction)`` carry, is read by ``_plain`` with ``int``
    alone, before the abstract-class Fraction test, with no regular expression
    and no Fraction.  Fraction's syntax reads that form the same way, digits
    then den by ``int``, so an over-long entry raises the same digit-limit
    error; every other string, '1/0' too, takes the Fraction route, so no
    message changes.
    """
    # A dict, the JSON form of every point entry, is tested first: it is none
    # of the other types, and the Fraction test is an abstract-class check.
    if isinstance(x, dict):
        num, den = integer(x["num"]), integer(x["den"])
        if den:
            g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
            return num // g, den // g
    elif type(x) is int:
        return x, 1
    elif type(x) is str and (plain := _plain(x)):
        return plain
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    else:
        if isinstance(x, (float, bool)):
            raise TypeError(f"{type(x).__name__} input {x!r} is not accepted; pass a rational")
        limit = sys.get_int_max_str_digits()
        if isinstance(x, str) and limit and (m := _EXPONENT.search(x)) and int(m[1]) > limit:
            raise ValueError(f"rational {x[:40]!r} has an exponent beyond {limit} in magnitude")
        try:
            q = Fraction(x)
            return q.numerator, q.denominator
        except ZeroDivisionError:
            pass
    raise ValueError(f"rational {x!r} has a zero denominator")


def _plain(text: str) -> tuple[int, int] | None:
    """(num, den) in lowest terms of a str -?[0-9]+(/[0-9]+)? with den != 0, else
    None; the digits are read before the den, as ``Fraction`` reads them."""
    head, slash, tail = text.partition("/")
    sign = -1 if head[:1] == "-" else 1
    digits = head[1:] if sign < 0 else head
    if not (digits.isascii() and digits.isdigit()) or slash and not (tail.isascii() and tail.isdigit()):
        return None
    num, den = int(digits), int(tail) if slash else 1
    if not den:
        return None
    g = math.gcd(num, den)
    return sign * num // g, den // g


def frac(x) -> Fraction:
    """``ratio(x)`` as a Fraction; a Fraction is returned as it is."""
    return x if isinstance(x, Fraction) else Fraction(*ratio(x))


def clear_denominators(xs) -> tuple[tuple[int, ...], int]:
    """The rationals ``xs`` times D, the lcm of their denominators, as ints; and D."""
    D = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (D // x.denominator) for x in xs), D


def cleared(pairs) -> tuple[list[tuple[int, ...]], int]:
    """Rows (of any lengths) of (num, den) pairs in lowest terms times D, the
    lcm of all their dens, as int rows; and D."""
    D = math.lcm(*(d for row in pairs for _, d in row))
    return [tuple(n * (D // d) for n, d in row) for row in pairs], D


def lowest_terms(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Int rows over a nonzero int den, both divided by g = gcd(den, entries) signed
    so that den / g > 0, which is then the lcm of the entries' reduced denominators."""
    g = math.gcd(den, *(x for row in rows for x in row)) * (1 if den > 0 else -1)
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def listlike(x, what: str):
    """``x`` itself, unless it has no ``__iter__``, or is a string or a dict,
    which iterate as characters or keys: those are refused with a TypeError
    naming the expected ``what``."""
    if isinstance(x, (str, dict)) or not hasattr(x, "__iter__"):
        raise TypeError(f"expected {what}, got {type(x).__name__} {x!r:.40}")
    return x


def objectlike(x, what: str) -> dict:
    """``x`` itself if it is a dict (a JSON object), else a TypeError naming ``what``."""
    if not isinstance(x, dict):
        raise TypeError(f"expected {what}, got {type(x).__name__} {x!r:.40}")
    return x


VECTOR = "a vector (a list of rationals)"


def vec(entries) -> Vec:
    return tuple(frac(e) for e in listlike(entries, VECTOR))


def mat(rows, read=frac) -> Mat:
    """The rows with every entry read by ``read``: ``frac``, or ``ratio`` for
    (num, den) pairs.  Ragged rows are refused once every entry is read."""
    m = tuple(
        tuple(map(read, listlike(row, "a matrix row (a list of rationals)")))
        for row in listlike(rows, "a matrix (a list of rows)")
    )
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    width = next((len(row) for row in a if len(row) != len(b)), None)
    if width is not None:
        raise ValueError(f"inner dimension mismatch: {width} columns vs {len(b)} rows")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(x * y for x, y in zip(u, v))


def minors(a):
    """``minor(rows, cols)``: the determinant of ``a`` on the increasing index
    tuples rows x cols, of equal length; the empty minor is 1.

    The package's one Laplace expansion, ``_minor``, along the first row,
    skipping zero entries, memo keyed by (rows, cols), 2 x 2 minors in closed
    form ad - bc; the closure holds ``a`` and the memo, never itself.  It never
    divides, so it works over any commutative ring: int input stays int.
    """
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], object] = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]):
        if len(rows) == 2:  # the cofactor tables' minors at r <= 3 need no second call
            (i, j), (k, l) = rows, cols
            return a[i][k] * a[j][l] - a[i][l] * a[j][k]
        if len(rows) <= 1:
            return a[rows[0]][cols[0]] if rows else 1
        return _minor(a, memo, rows, cols)

    return minor


def _minor(a, memo: dict, rows: tuple[int, ...], cols: tuple[int, ...]):
    if len(rows) == 2:  # entered with at least 3 rows, so never fewer than 2
        (i, j), (k, l) = rows, cols
        return a[i][k] * a[j][l] - a[i][l] * a[j][k]
    got = memo.get((rows, cols))
    if got is not None:
        return got
    row, rest = a[rows[0]], rows[1:]
    total = row[cols[0]] - row[cols[0]]  # ring zero
    for pos, c in enumerate(cols):
        if row[c]:
            entry = row[c] if pos % 2 == 0 else -row[c]
            total += entry * _minor(a, memo, rest, cols[:pos] + cols[pos + 1:])
    memo[rows, cols] = total
    return total


def full_row_rank(a) -> tuple[int, ...] | None:
    """The columns of a nonzero r x r minor of ``a`` (None if none), grown a column per
    row up from its last row: a nonzero minor on the rows below extends to the row above
    exactly when those rows have full rank (matroid augmentation); one memo serves all.

    They are rref(a)'s pivot columns B, the greedy basis of a's column matroid, which
    column-by-column elimination keeps (``oracles.adapted_flag_basis``).  The pivot set
    P(U) = {lead(u) : u in U, u != 0} of a row space U, lead(u) the first nonzero entry,
    grows with U.  If the columns so far are P(U'), U' the span of the rows below, then
    P(U), U = U' + the row above, adds one column p; the greedy basis P(U) is Gale-minimal
    (its i-th least column is at most any basis's), so no column c < p outside P(U')
    gives a basis P(U') + c, and p is the least column with a nonzero minor.  So a_B is
    adapted to every flag of column prefixes: #{b in B : b < cut} columns span a cut.
    """
    minor, cols = minors(a), ()
    for top in reversed(range(len(a))):
        rows = tuple(range(top, len(a)))
        for c in range(len(a[0])):
            if c not in cols and minor(rows, s := tuple(sorted((*cols, c)))):
                cols = s
                break
        else:
            return None
    return cols


def det(a) -> object:
    """Determinant: the full minor of ``minors``, so the empty matrix gives 1."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    full = tuple(range(n))
    return minors(a)(full, full)


def adjugate(a) -> tuple:
    """Adjugate matrix: adj(a) @ a = det(a) * I, valid also when det(a) = 0.

    Every cofactor is read from one ``minors`` memo, with no division, so
    int input gives int output.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("adjugate of a non-square matrix")
    minor, full = minors(a), tuple(range(n))
    struck = [full[:i] + full[i + 1:] for i in full]
    # adj[i][j] is the (j, i) cofactor.
    return tuple(tuple((-1) ** (i + j) * minor(struck[j], struck[i]) for j in full) for i in full)


def _accumulated(rows) -> "EchelonAccumulator":
    """An accumulator of the rows' width, fed every row."""
    acc = EchelonAccumulator(len(rows[0]) if rows else 0)
    for row in rows:
        acc.add(row)
    return acc


def _echelon(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form: (nonzero rows in pivot order, pivot columns).

    The rows go through ``EchelonAccumulator.add``, the one forward
    elimination; each kept int row is divided by its pivot entry, the only
    division, and its pivot is then cleared from the rows kept before it.
    The reduced form is unique, so this is the same ``Fraction`` matrix
    whichever elimination order produced it.
    """
    acc = _accumulated(rows)
    pivots = acc._pivots
    kept = [[Fraction(x, row[p]) for x in row] for row, p in zip(acc._rows, pivots)]
    for i, (row, p) in enumerate(zip(kept, pivots)):
        for j in range(i):
            f = kept[j][p]
            if f:
                kept[j] = [x - f * y for x, y in zip(kept[j], row)]
    order = sorted(range(len(kept)), key=pivots.__getitem__)
    return [kept[i] for i in order], [pivots[i] for i in order]


def rank(a: Mat) -> int:
    return _accumulated(a).rank


def nullspace(a: Mat) -> list[Vec]:
    """Basis of the right kernel of a."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = _echelon(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve_unique(a: Mat, b: Sequence[Fraction]) -> Vec | None:
    """Solve a square system; None when the matrix is singular."""
    n = len(a)
    aug = [list(row) + [frac(x)] for row, x in zip(a, b)]
    red, pivots = _echelon(aug)
    if len(pivots) != n or n in pivots:
        return None
    return tuple(red[i][n] for i in range(n))


class EchelonAccumulator:
    """Incremental row-space tracker: the package's one forward elimination.

    Rows are fed one at a time; only independent rows are kept, so the memory
    footprint is bounded by the width, not by the stream length.  It is
    fraction-free (Bareiss 1968): a row w is cleared of denominators once,
    unless every entry is already an int (the stabiliser's rows, ``rank`` of
    int rows), and each kept row r with pivot p turns it into r[p] w - w[p] r
    divided by its gcd.  A kept row is a primitive int row, zero at every
    earlier kept row's pivot.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    def add(self, row: Sequence[Fraction]) -> bool:
        """Keep the row if it is independent of the kept rows; say whether it was."""
        work = row if all(type(x) is int for x in row) else clear_denominators(row)[0]
        for r, p in zip(self._rows, self._pivots):
            f = work[p]
            if f:
                a = r[p]
                work = [a * x - f * y for x, y in zip(work, r)]
                g = math.gcd(*work)
                if g > 1:
                    work = [x // g for x in work]
        pivot = next((c for c, x in enumerate(work) if x), None)
        if pivot is None:
            return False
        g = math.gcd(*work)
        self._rows.append([x // g for x in work])
        self._pivots.append(pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def nullity(self) -> int:
        return self.width - len(self._rows)

