"""Exact elimination on Python int input: pivots are inverted as fractions."""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from higgsstrata.linalg import EchelonAccumulator, inverse, nullspace, rank, rref, solve_unique

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
        assert rref(ints) == rref(fracs)
        red, pivots = rref(ints)
        assert all(_fractions_only(red[k]) for k in range(len(pivots)))
        assert nullspace(ints) == nullspace(fracs)
        acc = EchelonAccumulator(3)
        for row in ints:
            acc.add(row)
        assert acc.rank == rank(fracs)
