import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subwordcount.combinatorics import binomial, multichoose, multinomial


class TestBinomial:
    def test_known_values(self):
        assert binomial(5, 2) == 10
        assert binomial(10, 0) == 1
        assert binomial(0, 0) == 1
        assert binomial(7, 7) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert binomial(0, 1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 60), st.integers(-5, 65))
    def test_matches_math_comb_in_range(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binomial(n, k) == expected


class TestMultichoose:
    def test_known_values(self):
        # 3 categories, 2 items: aa ab ac bb bc cc
        assert multichoose(3, 2) == 6
        assert multichoose(1, 5) == 1
        assert multichoose(2, 3) == 4

    def test_zero_items_is_one_for_any_category_count(self):
        for n in range(6):
            assert multichoose(n, 0) == 1

    def test_zero_categories_cannot_hold_items(self):
        assert multichoose(0, 1) == 0
        assert multichoose(0, 7) == 0

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            multichoose(-1, 0)
        with pytest.raises(ValueError):
            multichoose(2, -1)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_equals_binomial_form(self, n, k):
        assert multichoose(n, k) == binomial(n + k - 1, k)

    @given(st.integers(1, 25), st.integers(1, 25))
    def test_pascal_style_recurrence(self, n, k):
        assert multichoose(n, k) == multichoose(n - 1, k) + multichoose(n, k - 1)


class TestMultinomial:
    def test_known_values(self):
        assert multinomial([2, 1]) == 3
        assert multinomial([1, 1, 1]) == 6
        assert multinomial([3]) == 1
        assert multinomial([0, 0]) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multinomial([])

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            multinomial([2, -1])

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=5))
    def test_matches_factorial_quotient(self, parts):
        expected = math.factorial(sum(parts))
        for part in parts:
            expected //= math.factorial(part)
        assert multinomial(parts) == expected

    @given(st.lists(st.integers(0, 8), min_size=2, max_size=5))
    def test_order_invariant(self, parts):
        assert multinomial(parts) == multinomial(sorted(parts))
