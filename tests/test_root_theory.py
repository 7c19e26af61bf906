"""Base validation, the square table, orders, and enumeration."""

import pytest

from dlg2k.dlg_engine import decode_triple, dlg, factor_triple
from dlg2k.kbit_core import Residue, mul, truncate
from dlg2k.oracle import covers_odd_residues
from dlg2k.root_theory import (
    ENUMERATION_LIMIT,
    NotSemiPrimitiveError,
    Root,
    enumerate_roots,
    multiplicative_order,
    validate_root,
)


class TestValidateRoot:
    def test_accepts_3_at_width_5(self):
        root = validate_root(Residue(5, 3))
        assert root.mod8_class == 3
        assert [r.value for r in root.power_table] == [3, 9, 17]
        assert all(r.k == 5 for r in root.power_table)

    def test_accepts_5_at_width_5(self):
        root = validate_root(Residue(5, 5))
        assert root.mod8_class == 5
        assert [r.value for r in root.power_table] == [5, 25, 17]

    def test_width_3_table_is_single_entry(self):
        assert [r.value for r in validate_root(Residue(3, 3)).power_table] == [3]

    def test_rejects_even(self):
        with pytest.raises(NotSemiPrimitiveError):
            validate_root(Residue(5, 2))

    def test_rejects_1_mod_8(self):
        with pytest.raises(NotSemiPrimitiveError):
            validate_root(Residue(5, 9))
        with pytest.raises(NotSemiPrimitiveError):
            validate_root(Residue(5, 1))

    def test_rejects_7_mod_8(self):
        # order can be maximal here, but -1 lies in the cycle
        with pytest.raises(NotSemiPrimitiveError):
            validate_root(Residue(5, 7))
        with pytest.raises(NotSemiPrimitiveError):
            validate_root(Residue(3, 7))

    def test_rejection_message_names_the_rule(self):
        with pytest.raises(NotSemiPrimitiveError, match=r"\(mod 8\)"):
            validate_root(Residue(5, 7))

    def test_error_is_a_value_error(self):
        assert issubclass(NotSemiPrimitiveError, ValueError)

    def test_table_is_square_chain_ending_at_half_plus_one(self):
        for k in range(4, 11):
            for root in enumerate_roots(k):
                pt = root.power_table
                assert len(pt) == k - 2
                for j in range(len(pt) - 1):
                    assert mul(pt[j], pt[j]) == pt[j + 1]
                assert pt[-1].value == (1 << (k - 1)) + 1

    def test_large_width_base(self):
        k = 1024
        root = validate_root(Residue(k, 3))
        assert root.k == k
        assert root.power_table[-1].value == (1 << (k - 1)) + 1

    def test_validation_builds_no_table(self):
        root = validate_root(Residue(1024, 3))
        assert "_hot" not in vars(root)
        decode_triple(factor_triple(Residue(1024, 0), root), root)
        assert "_hot" not in vars(root)

    def test_first_logarithm_builds_the_table_once(self):
        root = validate_root(Residue(64, 5))
        dlg(Residue(64, 7), root)
        table = vars(root)["_hot"]
        dlg(Residue(64, 9), root)
        assert vars(root)["_hot"] is table

    def test_power_table_is_repeated_squaring(self):
        for k, h in ((3, 5), (64, 0xDEADBEEF0BAD4B1D), (1024, (1 << 1000) + 3)):
            root = validate_root(Residue(k, h))
            expected = [Residue(k, h)]
            for _ in range(k - 3):
                expected.append(mul(expected[-1], expected[-1]))
            assert list(root.power_table) == expected

    def test_base_off_the_rule_fails_at_the_chain_endpoint(self):
        # a Root built around validate_root: the table build catches it
        bad = Root(h=Residue(5, 9), mod8_class=1)
        with pytest.raises(ArithmeticError):
            bad.power_table
        with pytest.raises(ArithmeticError):
            dlg(Residue(5, 3), bad)

    def test_truncating_a_root_yields_a_root(self):
        for root in enumerate_roots(10):
            for j in range(3, 11):
                small = validate_root(truncate(root.h, j))
                assert isinstance(small, Root)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(Residue(5, 3)) == 8
        assert multiplicative_order(Residue(5, 1)) == 1
        assert multiplicative_order(Residue(5, 17)) == 2

    def test_even_raises(self):
        with pytest.raises(ValueError):
            multiplicative_order(Residue(5, 6))

    def test_matches_naive_scan(self):
        k = 6
        mod = 1 << k
        for v in range(1, mod, 2):
            t, x = 1, v
            while x != 1:
                x = x * v % mod
                t += 1
            assert multiplicative_order(Residue(k, v)) == t

    def test_valid_bases_have_maximal_order(self):
        for k in range(3, 11):
            for root in enumerate_roots(k):
                assert multiplicative_order(root.h) == 1 << (k - 2)


class TestEnumerateRoots:
    def test_small_widths(self):
        assert [r.h.value for r in enumerate_roots(3)] == [3, 5]
        assert [r.h.value for r in enumerate_roots(4)] == [3, 5, 11, 13]

    def test_count_is_quarter_of_width(self):
        for k in range(3, 13):
            assert len(enumerate_roots(k)) == 1 << (k - 2)

    def test_ascending_and_all_in_class(self):
        hs = [r.h.value for r in enumerate_roots(6)]
        assert hs == sorted(hs)
        assert all(h & 7 in (3, 5) for h in hs)

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            enumerate_roots(ENUMERATION_LIMIT + 1)


class TestAcceptanceMatchesCoverage:
    def test_mod8_test_equals_coverage_probe(self):
        # the O(1) acceptance bit test against the ground-truth walk
        for k in range(3, 10):
            for h in range(1, 1 << k, 2):
                assert covers_odd_residues(k, h) == (h & 7 in (3, 5))
