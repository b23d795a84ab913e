"""Exact elimination: int input, a textbook oracle, and properties checked
without elimination."""

from __future__ import annotations

import gc
import itertools
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from higgsstrata.linalg import (
    EchelonAccumulator,
    adjugate,
    clear_denominators,
    cleared,
    det,
    dot,
    frac,
    full_row_rank,
    integer_rows,
    lowest_terms,
    mat_mul,
    minors,
    nullspace,
    rank,
    ratio,
    solve_unique,
)
from higgsstrata.oracles import Dual, inverse

BIG = 10**17 + 1  # 1 / BIG * (3 * BIG) rounds away from 3 in floating point


def _fractions_only(values) -> bool:
    return all(type(x) is F for x in values)


class TestIntInput:
    def test_rank_of_dependent_rows_with_large_entries(self):
        assert rank(((BIG, 3), (3 * BIG, 9))) == 1

    def test_nullspace_is_exact(self):
        assert nullspace(((1, 2), (2, 4))) == [(F(-2), F(1))]
        assert all(_fractions_only(v) for v in nullspace(((1, 2), (2, 4))))

    def test_accumulator_rejects_a_dependent_row(self):
        acc = EchelonAccumulator(2)
        assert acc.add([BIG, 3])
        assert not acc.add([3 * BIG, 9])
        assert acc.nullity == 1

    def test_inverse_and_solve_return_fractions(self):
        a = ((2, 1), (7, 4))
        inv = inverse(a)
        assert inv == ((F(4), F(-1)), (F(-7), F(2)))
        assert all(_fractions_only(row) for row in inv)
        x = solve_unique(a, (1, 0))
        assert x == (F(4), F(-7)) and _fractions_only(x)
        assert inverse(((1, 2), (2, 4))) is None and solve_unique(((1, 2), (2, 4)), (1, 0)) is None

    @given(st.lists(st.lists(st.integers(-10**20, 10**20), min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_int_rows_match_fraction_rows(self, rows):
        ints = tuple(tuple(row) for row in rows)
        fracs = tuple(tuple(F(x) for x in row) for row in rows)
        assert nullspace(ints) == nullspace(fracs)
        assert all(_fractions_only(v) for v in nullspace(ints))
        acc = EchelonAccumulator(3)
        for row in ints:
            acc.add(row)
        assert acc.rank == rank(fracs)


_INTS = st.integers(-5, 5)
_FRACTIONS = st.fractions(-5, 5, max_denominator=7)


@st.composite
def _matrices(draw, square: bool = False):
    """Int or Fraction matrices of at most 5 x 4, some rows zero or repeated."""
    entries = draw(st.sampled_from([_INTS, _FRACTIONS]))
    ncols = draw(st.integers(1, 4))
    nrows = ncols if square else draw(st.integers(0, 5))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(nrows):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "repeat"]))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "repeat" and i:
            rows[i] = list(rows[draw(st.integers(0, i - 1))])
    return tuple(tuple(row) for row in rows)


def _minor_rank(a) -> int:
    """The largest k with a nonzero k x k minor, each by Laplace expansion."""
    ncols = len(a[0]) if a else 0
    for k in range(min(len(a), ncols), 0, -1):
        for rows in itertools.combinations(a, k):
            for cols in itertools.combinations(range(ncols), k):
                if det(tuple(tuple(row[c] for c in cols) for row in rows)):
                    return k
    return 0


class TestAgainstLaplace:
    """Elimination results checked by products and Laplace determinants only."""

    @given(_matrices(square=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_inverse_and_solve(self, a, data):
        n = len(a)
        inv = inverse(a)
        b = data.draw(st.lists(_FRACTIONS, min_size=n, max_size=n))
        x = solve_unique(a, b)
        if det(a) != 0:
            assert mat_mul(a, inv) == tuple(tuple(F(i == j) for j in range(n)) for i in range(n))
            assert tuple(dot(row, x) for row in a) == tuple(b)
        else:
            assert inv is None and x is None

    @given(st.one_of(st.just(()), _matrices(square=True)))
    @example(((3,),))
    @settings(max_examples=200, deadline=None)
    def test_adjugate(self, a):
        # adj(a) a = a adj(a) = det(a) I, singular a included; no division,
        # so int input stays int
        n, adj = len(a), adjugate(a)
        scalar = tuple(tuple(det(a) if i == j else 0 for j in range(n)) for i in range(n))
        assert mat_mul(adj, a) == mat_mul(a, adj) == scalar
        if all(type(x) is int for row in a for x in row):
            assert all(type(x) is int for row in adj for x in row)

    @given(_matrices(square=True))
    @settings(max_examples=200, deadline=None)
    def test_full_rank_exactly_when_det_nonzero(self, a):
        assert (rank(a) == len(a)) == (det(a) != 0)

    @given(_matrices())
    @settings(max_examples=200, deadline=None)
    def test_rank_and_nullspace(self, a):
        ncols = len(a[0]) if a else 0
        r = rank(a)
        assert r == _minor_rank(a)
        basis = nullspace(a)
        if a:
            assert len(basis) == ncols - r
        assert all(dot(row, v) == 0 for v in basis for row in a)
        # independent: the Gram matrix of the basis is nonsingular
        assert det(tuple(tuple(dot(u, v) for v in basis) for u in basis)) != 0


def _gauss_jordan(a):
    """Textbook Gauss-Jordan over Fraction, row by row with a leading one:
    (the reduced rows, zero rows last, and the pivot columns)."""
    rows = [[F(x) for x in row] for row in a]
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        top = len(pivots)
        rows[top], rows[k] = rows[k], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[top])]
        pivots.append(c)
    return tuple(map(tuple, rows)), tuple(pivots)


_BIG_ENTRIES = st.one_of(
    st.integers(-10**20, 10**20),
    st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)


@st.composite
def _big_matrices(draw):
    """Int or Fraction matrices of at most 8 x 5 with entries up to 10^20,
    some rows zero, a multiple of an earlier row or the sum of two."""
    ncols, nrows = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "multiple", "sum"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "multiple" and i:
            t = draw(_BIG_ENTRIES)
            rows.append([t * x for x in rows[draw(st.integers(0, i - 1))]])
        elif kind == "sum" and i:
            u, v = rows[draw(st.integers(0, i - 1))], rows[draw(st.integers(0, i - 1))]
            rows.append([x + y for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(_BIG_ENTRIES, min_size=ncols, max_size=ncols)))
    return tuple(tuple(row) for row in rows)


class TestMinorsLeaveNoCycle:
    """A ``minors`` closure and its memo are freed by reference counting alone."""

    @pytest.mark.parametrize(
        "a, want",
        [(((1, 2, 3), (4, 5, 6), (7, 8, 10)), -3), (((2, 0, 1, 3), (1, 1, 0, 2), (0, 3, 1, 1), (1, 0, 2, 1)), -1)],
        ids=["3x3", "4x4"],
    )
    def test_collector_frees_nothing(self, a, want):
        full = tuple(range(len(a)))
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            minor = minors(a)
            assert minor(full, full) == want
            del minor
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestAgainstGaussJordan:
    """The fraction-free elimination against a textbook Fraction elimination."""

    def _check(self, a, data):
        red, pivots = _gauss_jordan(a)
        assert rank(a) == len(pivots)
        ncols = len(a[0]) if a else 0
        basis = []
        for f in (c for c in range(ncols) if c not in pivots):
            v = [F(c == f) for c in range(ncols)]
            for r, p in enumerate(pivots):
                v[p] = -red[r][f]
            basis.append(tuple(v))
        assert nullspace(a) == basis
        # the kept rows: primitive int rows, zero at every earlier pivot
        acc = EchelonAccumulator(ncols)
        for row in a:
            acc.add(row)
        for i, (row, p) in enumerate(zip(acc._rows, acc._pivots)):
            assert all(type(x) is int for x in row) and math.gcd(*row) == 1
            assert not any(row[:p]) and row[p]
            assert all(row[q] == 0 for q in acc._pivots[:i])
        # square systems: the leading square block, solved and inverted
        n = min(len(a), ncols)
        sq = tuple(row[:n] for row in a[:n])
        b = data.draw(st.lists(_BIG_ENTRIES, min_size=n, max_size=n))
        aug, aug_pivots = _gauss_jordan([[*row, x] for row, x in zip(sq, b)])
        solved = aug_pivots == tuple(range(n))
        assert solve_unique(sq, b) == (tuple(row[n] for row in aug) if solved else None)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        aug, aug_pivots = _gauss_jordan([[*row, *e] for row, e in zip(sq, eye)])
        inv = tuple(row[n:] for row in aug) if aug_pivots == tuple(range(n)) else None
        assert inverse(sq) == inv

    @given(_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_int_and_fraction_matrices(self, a, data):
        self._check(a, data)

    @given(_big_matrices(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_large_entries_up_to_8_by_5(self, a, data):
        self._check(a, data)


def _leibniz(a, rows, cols):
    """The minor of ``a`` on rows x cols as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, p in enumerate(perm):
            term = term * a[rows[i]][cols[p]]
        total = total + term
    return total


@st.composite
def _rectangular(draw):
    """Int, Fraction or dual-number matrices of at most 4 x 6, many entries zero."""
    kind = draw(st.sampled_from(["int", "fraction", "dual"]))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    entries = st.one_of(st.just(0), _INTS) if kind == "int" else st.one_of(st.just(F(0)), _FRACTIONS)
    if kind == "dual":
        entries = st.builds(Dual, entries, st.one_of(st.just(F(0)), _FRACTIONS))
    return tuple(tuple(draw(entries) for _ in range(ncols)) for _ in range(nrows))


class TestAgainstLeibniz:
    """The Laplace kernel against permutation sums, which share none of its code."""

    @given(_rectangular())
    @example(())
    @example(((1, 2, 0), (3, 4, 5), (0, 6, 7)))
    @settings(max_examples=150, deadline=None)
    def test_minors_det_and_adjugate(self, a):
        minor, ncols = minors(a), len(a[0]) if a else 0
        ints = all(type(x) is int for row in a for x in row)
        for k in range(min(len(a), ncols) + 1):
            for rows in itertools.combinations(range(len(a)), k):
                for cols in itertools.combinations(range(ncols), k):
                    want, got = _leibniz(a, rows, cols), minor(rows, cols)
                    assert got == want and (type(got) is int or not ints)
                    b = tuple(tuple(a[i][j] for j in cols) for i in rows)
                    assert det(b) == want
                    full = range(k)
                    struck = [tuple(x for x in full if x != i) for i in full]
                    assert adjugate(b) == tuple(
                        tuple((-1) ** (i + j) * _leibniz(b, struck[j], struck[i]) for j in full)
                        for i in full
                    )


class TestShapes:
    """Shape errors are refused, not truncated."""

    @pytest.mark.parametrize("a", [((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 1)), ((1, 0), (1,))])
    def test_inverse_of_a_non_square_matrix(self, a):
        for square_only in (inverse, det, adjugate):
            with pytest.raises(ValueError, match="non-square"):
                square_only(a)

    def test_mat_mul_inner_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimension"):
            mat_mul(((1, 2),), ((1, 2), (3, 4), (5, 6)))
        with pytest.raises(ValueError, match="inner dimension"):
            mat_mul(((1, 2), (3,)), ((1,), (2,)))
        assert mat_mul(((1, 2),), ((3,), (4,))) == ((11,),)
        assert mat_mul((), ((1, 2),)) == ()


class TestClearDenominators:
    def test_scales_by_the_lcm(self):
        assert clear_denominators((F(1, 2), F(-2, 3), 4)) == ((3, -4, 24), 6)
        assert clear_denominators(()) == ((), 1)

    def test_integer_rows_share_one_lcm_over_ragged_rows(self):
        assert integer_rows([(F(1, 2),), (F(-2, 3), 4), ()]) == ([(3,), (-4, 24), ()], 6)
        assert integer_rows([(1, 2), (3, 4)]) == ([(1, 2), (3, 4)], 1)
        assert integer_rows([]) == ([], 1)


class TestExponentLimit:
    @pytest.mark.parametrize("text", ["1e400", "1e9", "1e-400", "0.5", "-2.5E+3", "3/4", " 7 "])
    def test_accepted(self, text):
        assert frac(text) == F(text)

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_exponent_past_the_digit_limit(self, sign):
        limit = sys.get_int_max_str_digits()
        assert frac(f"1e{sign}{limit}") == F(f"1e{sign}{limit}")
        with pytest.raises(ValueError, match="exponent"):
            frac(f"1e{sign}{limit + 1}")
        with pytest.raises(ValueError, match="exponent"):
            frac(f"2.5E{sign}999999999")


_DIGITS = st.from_regex(r"[0-9]{1,6}(_[0-9]{1,3}){0,2}", fullmatch=True)


@st.composite
def _fraction_syntax(draw) -> str:
    """Strings in and around ``Fraction``'s syntax: signs, surrounding
    whitespace, "p/q" (also spaced), underscores, decimals and exponents."""
    space, sign = st.sampled_from(["", " ", "  ", "\t"]), st.sampled_from(["", "+", "-"])
    num, other = draw(_DIGITS), draw(_DIGITS)
    exponent = draw(st.sampled_from("eE")) + draw(sign) + str(draw(st.integers(0, 40)))
    body = draw(st.sampled_from([
        num, f"{num}/{other}", f"{num} / {other}", f"{num}.{other}", f".{other}",
        f"{num}{exponent}", f"{num}.{other}{exponent}", f"{num}/-{other}",
    ]))
    return draw(space) + draw(sign) + body + draw(space)


# The refusals of the reader, each with its type and exact message.
_LIMIT = sys.get_int_max_str_digits()
REFUSALS = [
    (1.5, TypeError, "float input 1.5 is not accepted; pass a rational"),
    (True, TypeError, "bool input True is not accepted; pass a rational"),
    (False, TypeError, "bool input False is not accepted; pass a rational"),
    ({"num": True, "den": 1}, TypeError, "expected an integer, got True"),
    ({"num": 1, "den": 2.0}, TypeError, "expected an integer, got 2.0"),
    ({"num": 1.5}, TypeError, "expected an integer, got 1.5"),  # num is read before den
    ({"num": 1, "den": 0}, ValueError, "rational {'num': 1, 'den': 0} has a zero denominator"),
    ({"den": 1}, KeyError, "'num'"),
    ({"num": 1}, KeyError, "'den'"),
    ("1/0", ValueError, "rational '1/0' has a zero denominator"),
    (f"1e{_LIMIT + 1}", ValueError, f"rational '1e{_LIMIT + 1}' has an exponent beyond {_LIMIT} in magnitude"),
    (
        "1" * (_LIMIT + 1), ValueError,
        f"Exceeds the limit ({_LIMIT} digits) for integer string conversion: value has {_LIMIT + 1} digits; "
        "use sys.set_int_max_str_digits() to increase the limit",
    ),
    ("3 / 4", ValueError, "Invalid literal for Fraction: '3 / 4'"),
    (None, TypeError, "argument should be a string or a Rational instance"),
]


class TestReader:
    """``ratio`` against ``Fraction``: (num, den) in lowest terms, den > 0."""

    @given(st.integers())
    def test_ints(self, n):
        assert ratio(n) == (n, 1) and frac(n) == F(n)

    @given(st.integers(), st.integers().filter(bool), st.integers(1, 50))
    @example(0, -7, 3)
    @example(-1, -2, 1)
    def test_dicts_unreduced_or_with_a_negative_den(self, num, den, k):
        want = F(num, den)
        for entry in ({"num": num, "den": den}, {"num": num * k, "den": den * k}):
            assert ratio(entry) == (want.numerator, want.denominator)
            assert frac(entry) == want

    @given(_fraction_syntax())
    @example("3 / 4")
    @example("-1_000.5e-2 ")
    @example("0/0")
    def test_strings(self, text):
        try:
            want = F(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match=r"^rational .* has a zero denominator$"):
                ratio(text)
        except ValueError as refusal:
            with pytest.raises(ValueError) as got:
                ratio(text)
            assert str(got.value) == str(refusal)
        else:
            assert ratio(text) == (want.numerator, want.denominator)
            assert frac(text) == want

    @given(st.fractions())
    def test_fractions(self, q):
        assert ratio(q) == (q.numerator, q.denominator) and frac(q) is q

    @pytest.mark.parametrize("x,kind,message", REFUSALS, ids=[f"refusal-{i}" for i in range(len(REFUSALS))])
    def test_refusals_keep_their_type_and_message(self, x, kind, message):
        for read in (ratio, frac):
            with pytest.raises(kind) as got:
                read(x)
            assert type(got.value) is kind and str(got.value) == message


class TestIntegerForms:
    def test_cleared_and_lowest_terms(self):
        assert cleared([((1, 2), (-2, 3)), (), ((4, 1),)]) == ([(3, -4), (), (24,)], 6)
        assert lowest_terms(((3, -4), (24,)), 6) == (((3, -4), (24,)), 6)
        assert lowest_terms(((2, 4), (0,)), -6) == (((-1, -2), (0,)), 3)
        assert lowest_terms(((0, 0),), 5) == (((0, 0),), 1)

    @given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=4),
           st.booleans())
    def test_full_row_rank_agrees_with_elimination(self, rows, dependent):
        rows = rows + [[2 * x for x in rows[0]]] * dependent
        for width in range(5):
            a = tuple(tuple(row[:width]) for row in rows)
            assert full_row_rank(a) == (rank(a) == len(a))
