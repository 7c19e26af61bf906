"""Brute-force references, coverage probes, and vector generation."""

import pytest

from dlg2k.dlg_engine import DlgPair
from dlg2k.kbit_core import Residue, inverse, mul
from dlg2k.oracle import (
    TABLE_CACHE_SIZE,
    TABLE_WIDTH_LIMIT,
    CoverageError,
    DlgTable,
    TestVector,
    brute_force_dlg,
    covers_odd_residues,
    draw_bits,
    extended_gcd_inverse,
    generate_vectors,
    splitmix64,
)
from dlg2k.root_theory import enumerate_roots, validate_root

R5_3 = validate_root(Residue(5, 3))
R5_5 = validate_root(Residue(5, 5))


class TestDlgTable:
    def test_forward_is_the_power_sequence(self):
        table = DlgTable.build(R5_3)
        assert table.forward[:6] == (1, 3, 9, 27, 17, 19)
        assert len(table.forward) == 8

    def test_backward_covers_exactly_the_odds(self):
        for k in range(3, 9):
            for root in enumerate_roots(k):
                table = DlgTable.build(root)
                assert set(table.backward) == set(range(1, 1 << k, 2))

    def test_width_guard(self):
        big = validate_root(Residue(TABLE_WIDTH_LIMIT + 1, 3))
        with pytest.raises(ValueError):
            DlgTable.build(big)


class TestBruteForceDlg:
    def test_examples(self):
        assert brute_force_dlg(Residue(5, 25), R5_3) == DlgPair(0, 6, 5)
        assert brute_force_dlg(Residue(5, 1), R5_5) == DlgPair(0, 0, 5)
        assert brute_force_dlg(Residue(5, 31), R5_3) == DlgPair(1, 0, 5)

    def test_even_raises(self):
        with pytest.raises(ValueError):
            brute_force_dlg(Residue(5, 8), R5_3)

    def test_result_is_minimal(self):
        # the table stores the first exponent that reaches each residue
        for v in range(1, 32, 2):
            pair = brute_force_dlg(Residue(5, v), R5_3)
            assert 0 <= pair.e < 8


class TestCoverage:
    def test_valid_classes_cover(self):
        for k in range(3, 9):
            assert covers_odd_residues(k, 3)
            assert covers_odd_residues(k, 5)

    def test_rejected_classes_fail(self):
        for k in range(3, 9):
            for h in range(1, 1 << k, 2):
                if h & 7 in (1, 7):
                    assert not covers_odd_residues(k, h)

    def test_even_fails(self):
        assert not covers_odd_residues(5, 4)

    def test_table_build_raises_on_bad_base(self):
        from dlg2k.oracle import _build_table

        with pytest.raises(CoverageError):
            _build_table(5, 7)

    def test_table_cache_is_bounded(self):
        from dlg2k.oracle import _build_table

        for root in enumerate_roots(7):
            DlgTable.build(root)
        assert 0 < _build_table.cache_info().currsize <= TABLE_CACHE_SIZE


class TestExtendedGcdInverse:
    def test_examples(self):
        assert extended_gcd_inverse(Residue(5, 3)) == Residue(5, 11)
        assert extended_gcd_inverse(Residue(5, 31)) == Residue(5, 31)
        assert extended_gcd_inverse(Residue(8, 17)) == Residue(8, 241)

    def test_even_raises(self):
        with pytest.raises(ValueError):
            extended_gcd_inverse(Residue(5, 6))

    def test_agrees_with_newton_route_exhaustively(self):
        for k in range(3, 13):
            for v in range(1, 1 << k, 2):
                a = Residue(k, v)
                got = extended_gcd_inverse(a)
                assert got == inverse(a)
                assert mul(a, got) == Residue(k, 1)

    def test_agrees_with_newton_route_wide(self):
        k = 256
        stream = splitmix64(99)
        for _ in range(50):
            a = Residue(k, draw_bits(stream, k) | 1)
            assert extended_gcd_inverse(a) == inverse(a)


class TestSplitmix64:
    def test_reference_sequence_seed_zero(self):
        # published reference outputs for this generator
        stream = splitmix64(0)
        assert next(stream) == 0xE220A8397B1DCDAF
        assert next(stream) == 0x6E789E6AA1B965F4
        assert next(stream) == 0x06C45D188009454F

    def test_streams_are_reproducible(self):
        a = [next(splitmix64(42)) for _ in range(1)]
        b = list(draw_bits(splitmix64(42), 64) for _ in range(1))
        assert a == b

    def test_draw_bits_is_little_endian_in_words(self):
        s1, s2 = splitmix64(7), splitmix64(7)
        lo, hi = next(s2), next(s2)
        assert draw_bits(s1, 128) == lo | (hi << 64)

    def test_draw_bits_masks_partial_words(self):
        s1, s2 = splitmix64(7), splitmix64(7)
        assert draw_bits(s1, 5) == next(s2) & 0x1F


class TestVectorRecords:
    def test_json_line_field_order_and_types(self):
        vec = TestVector(k=5, h="0x3", x="0x7", s=1, p=0, e="6")
        assert vec.to_json_line() == '{"k":5,"h":"0x3","x":"0x7","s":1,"p":0,"e":"6"}'

    def test_from_json_line_round_trip(self):
        vec = TestVector(k=5, h="0x3", x="0x7", s=1, p=0, e="6")
        assert TestVector.from_json_line(vec.to_json_line()) == vec

    def test_from_json_line_rejects_wrong_keys(self):
        with pytest.raises(ValueError):
            TestVector.from_json_line('{"k":5,"h":"0x3","x":"0x7","s":1,"p":0}')
        with pytest.raises(ValueError):
            TestVector.from_json_line('{"k":5,"h":"0x3","x":"0x7","s":1,"p":0,"e":"6","q":1}')

    def test_holds_detects_corruption(self):
        good = TestVector(k=5, h="0x3", x="0x7", s=1, p=0, e="6")
        bad = TestVector(k=5, h="0x3", x="0x7", s=0, p=0, e="6")
        assert good.holds()
        assert not bad.holds()


class TestGenerateVectors:
    def test_exhaustive_width_3(self):
        vecs = list(generate_vectors(validate_root(Residue(3, 3))))
        assert len(vecs) == 8
        assert [int(v.x, 16) for v in vecs] == list(range(8))

    def test_exhaustive_width_5_spot_values(self):
        vecs = list(generate_vectors(R5_3))
        assert len(vecs) == 32
        assert vecs[0] == TestVector(k=5, h="0x3", x="0x0", s=0, p=5, e="0")
        assert vecs[7] == TestVector(k=5, h="0x3", x="0x7", s=1, p=0, e="6")
        assert vecs[12] == TestVector(k=5, h="0x3", x="0xc", s=0, p=2, e="1")
        assert all(v.holds() for v in vecs)

    def test_exhaustive_width_guard(self):
        with pytest.raises(ValueError):
            list(generate_vectors(validate_root(Residue(17, 3))))

    def test_sampled_is_deterministic(self):
        root = validate_root(Residue(64, 3))
        a = [v.to_json_line() for v in generate_vectors(root, samples=10, seed=5)]
        b = [v.to_json_line() for v in generate_vectors(root, samples=10, seed=5)]
        c = [v.to_json_line() for v in generate_vectors(root, samples=10, seed=6)]
        assert a == b
        assert a != c

    def test_sampled_records_hold(self):
        root = validate_root(Residue(150, 5))
        vecs = list(generate_vectors(root, samples=25, seed=1))
        assert len(vecs) == 25
        assert all(v.holds() for v in vecs)
        assert all(v.k == 150 and v.h == "0x5" for v in vecs)

    def test_negative_sample_count_raises(self):
        with pytest.raises(ValueError):
            list(generate_vectors(R5_3, samples=-1))
