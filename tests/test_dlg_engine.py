"""The digit-serial engine and the (s, p, e) codec.

Frozen expected values were computed from the brute-force table in
oracle.py (and by hand for the width-5 cases, e.g. 3**6 = 729 = 25
mod 32, so -25 = 7 gives dlg(7) = (1, 6)).
"""

import json
import random

import pytest

from dlg2k.dlg_engine import (
    DlgPair,
    DlgTriple,
    classify_sign,
    decode_pair,
    decode_triple,
    dlg,
    dlg_counted,
    dlg_truncated,
    factor_triple,
    invert_pair,
    log_multiply,
    rebase,
)
from dlg2k.kbit_core import Residue, inverse, mul, truncate
from dlg2k.oracle import brute_force_dlg
from dlg2k.root_theory import Root, enumerate_roots, validate_root

R5_3 = validate_root(Residue(5, 3))
R5_5 = validate_root(Residue(5, 5))


class TestTypes:
    def test_pair_validates_fields(self):
        DlgPair(s=1, e=7, k=5)
        with pytest.raises(ValueError):
            DlgPair(s=2, e=0, k=5)
        with pytest.raises(ValueError):
            DlgPair(s=0, e=8, k=5)
        with pytest.raises(ValueError):
            DlgPair(s=0, e=-1, k=5)

    def test_triple_validates_fields(self):
        DlgTriple(s=0, p=5, e=0, k=5)
        with pytest.raises(ValueError):
            DlgTriple(s=0, p=6, e=0, k=5)
        with pytest.raises(ValueError):
            DlgTriple(s=1, p=5, e=0, k=5)
        with pytest.raises(ValueError):
            DlgTriple(s=0, p=5, e=1, k=5)

    def test_pair_json_round_trip(self):
        pair = DlgPair(s=1, e=6, k=5)
        obj = pair.to_json()
        assert obj == {"s": 1, "p": 0, "e": "6", "k": 5}
        assert DlgPair.from_json(json.loads(json.dumps(obj))) == pair

    def test_pair_from_json_rejects_shifted(self):
        with pytest.raises(ValueError):
            DlgPair.from_json({"s": 0, "p": 2, "e": "1", "k": 5})

    def test_from_json_rejects_bool_sign(self):
        with pytest.raises(ValueError, match="s must be an integer"):
            DlgTriple.from_json({"s": True, "p": 1, "e": "10", "k": 8})

    def test_from_json_rejects_float_valuation(self):
        with pytest.raises(ValueError, match="p must be an integer"):
            DlgTriple.from_json({"s": 1, "p": 1.9, "e": "10", "k": 8})

    def test_from_json_rejects_float_width(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            DlgTriple.from_json({"s": 1, "p": 1, "e": "10", "k": 8.7})

    def test_from_json_rejects_underscored_exponent(self):
        with pytest.raises(ValueError, match="decimal digits"):
            DlgTriple.from_json({"s": 1, "p": 1, "e": "1_0", "k": 8})

    def test_pair_from_json_rejects_padded_exponent(self):
        with pytest.raises(ValueError, match="decimal digits"):
            DlgPair.from_json({"s": 0, "p": 0, "e": " 7 ", "k": 8})

    def test_from_json_rejects_numeric_exponent(self):
        with pytest.raises(ValueError, match="decimal digits"):
            DlgPair.from_json({"s": 0, "e": 7, "k": 8})

    def test_json_round_trips_every_triple_width_5(self):
        for x in range(32):
            t = factor_triple(Residue(5, x), R5_3)
            assert DlgTriple.from_json(json.loads(json.dumps(t.to_json()))) == t
            if t.p == 0:
                pair = DlgPair(s=t.s, e=t.e, k=5)
                assert DlgPair.from_json(pair.to_json()) == pair

    def test_triple_json_round_trip(self):
        t = DlgTriple(s=0, p=2, e=1, k=5)
        obj = t.to_json()
        assert obj == {"s": 0, "p": 2, "e": "1", "k": 5}
        assert DlgTriple.from_json(obj) == t

    def test_exponent_serializes_as_decimal_string(self):
        k = 256
        e = (1 << (k - 2)) - 1
        assert DlgTriple(s=0, p=0, e=e, k=k).to_json()["e"] == str(e)


class TestClassifySign:
    def test_examples(self):
        assert classify_sign(Residue(5, 7), R5_3) == 1
        assert classify_sign(Residue(5, 1), R5_3) == 0
        assert classify_sign(Residue(5, 1), R5_5) == 0
        assert classify_sign(Residue(5, 7), R5_5) == 1

    def test_even_raises(self):
        with pytest.raises(ValueError):
            classify_sign(Residue(5, 4), R5_3)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            classify_sign(Residue(6, 7), R5_3)

    def test_matches_brute_force_membership(self):
        for k in (3, 4, 5, 6, 7):
            for root in enumerate_roots(k):
                for v in range(1, 1 << k, 2):
                    a = Residue(k, v)
                    assert classify_sign(a, root) == brute_force_dlg(a, root).s


class TestDlg:
    def test_examples(self):
        assert dlg(Residue(5, 17), R5_3) == DlgPair(0, 4, 5)
        assert dlg(Residue(5, 1), R5_5) == DlgPair(0, 0, 5)
        assert dlg(Residue(5, 7), R5_3) == DlgPair(1, 6, 5)
        assert dlg(Residue(5, 7), R5_5) == DlgPair(1, 2, 5)

    def test_width_3(self):
        r3 = validate_root(Residue(3, 3))
        assert dlg(Residue(3, 3), r3) == DlgPair(0, 1, 3)
        assert dlg(Residue(3, 5), r3) == DlgPair(1, 1, 3)
        assert dlg(Residue(3, 7), r3) == DlgPair(1, 0, 3)
        assert dlg(Residue(3, 1), r3) == DlgPair(0, 0, 3)

    def test_even_raises(self):
        with pytest.raises(ValueError):
            dlg(Residue(5, 12), R5_3)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            dlg(Residue(6, 7), R5_3)

    def test_round_trip_exhaustive_width_6(self):
        for root in enumerate_roots(6):
            for v in range(1, 64, 2):
                a = Residue(6, v)
                assert decode_pair(dlg(a, root), root) == a

    def test_round_trip_sampled_width_64(self):
        rng = random.Random(0x40)
        bases = [validate_root(Residue(64, h)) for h in (3, 5, 0xDEADBEEF0BAD4B1D)]
        for _ in range(200):
            a = Residue(64, rng.getrandbits(64) | 1)
            for root in bases:
                assert decode_pair(dlg(a, root), root) == a

    def test_guard_survives_a_base_off_the_rule(self):
        # 7 = -1 (mod 8) at width 3 has no chain to check; the loop's
        # own guard refuses instead of answering
        bad = Root(h=Residue(3, 7), mod8_class=7)
        with pytest.raises(ArithmeticError):
            dlg(Residue(3, 3), bad)

    def test_exponent_of_base_is_one(self):
        for k in (3, 5, 9, 33):
            for h in (3, 5):
                root = validate_root(Residue(k, h))
                assert dlg(root.h, root) == DlgPair(0, 1, k)


class TestMulCounter:
    def test_bound_holds_exhaustively_width_8(self):
        bound = 2 * (8 - 3) + 2
        for root in enumerate_roots(8):
            for v in range(1, 256, 2):
                _, counter = dlg_counted(Residue(8, v), root)
                assert counter.count <= bound

    def test_trivial_input_costs_one(self):
        # A = 1 never enters the clearing loop
        _, counter = dlg_counted(Residue(5, 1), R5_3)
        assert counter.count == 1

    def test_count_grows_two_per_cleared_bit(self):
        # 17 = 2**4 + 1 at width 5: one table hit
        _, counter = dlg_counted(Residue(5, 17), R5_3)
        assert counter.count == 3

    def test_count_is_the_paper_loop_count_width_8(self):
        # the paper's loop with its accumulator, counting every product
        k, mask = 8, 255
        for root in enumerate_roots(k):
            h = root.h.value
            squares = [h]
            for _ in range(k - 3):
                squares.append(squares[-1] ** 2 & mask)
            for v in range(1, 256, 2):
                P = -v & mask if classify_sign(Residue(k, v), root) else v
                B = h if P & 7 == h & 7 else 1
                P, count = P * B & mask, 1
                for i in range(3, k):
                    if P >> i & 1:
                        B, P, count = B * squares[i - 2] & mask, P * squares[i - 2] & mask, count + 2
                assert P == 1
                assert dlg_counted(Residue(k, v), root)[1].count == count


class TestTripleCodec:
    def test_factor_examples(self):
        assert factor_triple(Residue(5, 12), R5_3) == DlgTriple(0, 2, 1, 5)
        assert factor_triple(Residue(5, 0), R5_3) == DlgTriple(0, 5, 0, 5)
        assert factor_triple(Residue(5, 7), R5_3) == DlgTriple(1, 0, 6, 5)
        assert factor_triple(Residue(5, 16), R5_3) == DlgTriple(0, 4, 0, 5)

    def test_decode_examples(self):
        assert decode_triple(DlgTriple(0, 2, 1, 5), R5_3) == Residue(5, 12)
        assert decode_triple(DlgTriple(0, 5, 0, 5), R5_3) == Residue(5, 0)
        assert decode_triple(DlgTriple(1, 0, 6, 5), R5_3) == Residue(5, 7)

    def test_round_trip_every_residue_width_6(self):
        for root in enumerate_roots(6):
            for v in range(64):
                a = Residue(6, v)
                assert decode_triple(factor_triple(a, root), root) == a

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            factor_triple(Residue(6, 12), R5_3)
        with pytest.raises(ValueError):
            decode_triple(DlgTriple(0, 2, 1, 6), R5_3)


class TestLogMultiply:
    def test_example(self):
        a = factor_triple(Residue(5, 12), R5_3)
        b = factor_triple(Residue(5, 3), R5_3)
        assert log_multiply(a, b, R5_3) == DlgTriple(0, 2, 2, 5)
        assert decode_triple(DlgTriple(0, 2, 2, 5), R5_3) == Residue(5, 4)

    def test_valuation_overflow_collapses_to_zero(self):
        a = factor_triple(Residue(5, 12), R5_3)
        b = factor_triple(Residue(5, 8), R5_3)
        assert log_multiply(a, b, R5_3) == DlgTriple(0, 5, 0, 5)

    def test_matches_residue_product_for_all_pairs_width_5(self):
        triples = {v: factor_triple(Residue(5, v), R5_3) for v in range(32)}
        for x in range(32):
            for y in range(32):
                got = log_multiply(triples[x], triples[y], R5_3)
                assert decode_triple(got, R5_3) == mul(Residue(5, x), Residue(5, y))


class TestInvertPair:
    def test_examples(self):
        assert invert_pair(DlgPair(0, 0, 5)) == DlgPair(0, 0, 5)
        assert invert_pair(DlgPair(0, 2, 5)) == DlgPair(0, 6, 5)
        assert invert_pair(DlgPair(1, 6, 5)) == DlgPair(1, 2, 5)

    def test_matches_residue_inverse_width_6(self):
        for root in enumerate_roots(6):
            for v in range(1, 64, 2):
                a = Residue(6, v)
                assert decode_pair(invert_pair(dlg(a, root)), root) == inverse(a)


class TestRebase:
    def test_example_9_from_3_to_5(self):
        pair = dlg(Residue(5, 9), R5_3)
        assert pair == DlgPair(0, 2, 5)
        assert rebase(pair, R5_3, R5_5) == DlgPair(0, 6, 5)

    def test_example_17(self):
        pair = dlg(Residue(5, 17), R5_3)
        assert rebase(pair, R5_3, R5_5) == DlgPair(0, 4, 5)

    def test_same_base_is_identity(self):
        for v in range(1, 32, 2):
            pair = dlg(Residue(5, v), R5_3)
            assert rebase(pair, R5_3, R5_3) == pair

    def test_all_base_pairs_width_5(self):
        roots = enumerate_roots(5)
        for src in roots:
            for v in range(1, 32, 2):
                a = Residue(5, v)
                pair = dlg(a, src)
                for dst in roots:
                    assert decode_pair(rebase(pair, src, dst), dst) == a

    def test_width_mismatch_raises(self):
        r6 = validate_root(Residue(6, 3))
        with pytest.raises(ValueError):
            rebase(DlgPair(0, 1, 5), R5_3, r6)

    def test_target_off_the_rule_raises(self):
        # 1 = 3**0 is no base; a Root built around validate_root
        one = Root(h=Residue(3, 1), mod8_class=1)
        with pytest.raises(ArithmeticError):
            rebase(DlgPair(0, 1, 3), validate_root(Residue(3, 3)), one)


class TestDlgTruncated:
    def test_examples(self):
        assert dlg_truncated(Residue(5, 7), R5_3, 4) == DlgPair(1, 2, 4)
        assert dlg_truncated(Residue(5, 7), R5_3, 5) == DlgPair(1, 6, 5)

    def test_truncate_to_floor_width(self):
        assert dlg_truncated(Residue(5, 25), R5_3, 3) == DlgPair(0, 0, 3)

    def test_exponent_lifts_by_zero_or_half(self):
        for k in (6, 7):
            for root in enumerate_roots(k):
                small = validate_root(truncate(root.h, k - 1))
                half = 1 << (k - 3)
                for v in range(1, 1 << k, 2):
                    ek = dlg(Residue(k, v), root).e
                    ej = dlg_truncated(Residue(k, v), root, k - 1).e
                    assert ej == dlg(truncate(Residue(k, v), k - 1), small).e
                    assert ek % half == ej
                    assert ek - ej in (0, half)

    def test_widening_raises(self):
        with pytest.raises(ValueError):
            dlg_truncated(Residue(5, 7), R5_3, 6)

    def test_even_input_raises(self):
        with pytest.raises(ValueError):
            dlg_truncated(Residue(5, 6), R5_3, 4)

    @staticmethod
    def truncated_base_route(a, root, j, roots):
        # the logarithm taken at width j over the truncated base
        small = truncate(root.h, j)
        if small not in roots:
            roots[small] = validate_root(small)
        return dlg(truncate(a, j), roots[small])

    def test_matches_truncated_base_route_exhaustively(self):
        roots = {}
        for k in range(3, 9):
            for root in enumerate_roots(k):
                for v in range(1, 1 << k, 2):
                    a = Residue(k, v)
                    for j in range(3, k + 1):
                        assert dlg_truncated(a, root, j) == self.truncated_base_route(a, root, j, roots)

    def test_matches_truncated_base_route_sampled(self):
        rng = random.Random(0x7E)
        for k, samples in ((64, 20), (256, 4)):
            roots = {}
            for _ in range(3):
                hv = rng.getrandbits(k) & ~7 | rng.choice((3, 5))
                root = validate_root(Residue(k, hv))
                for _ in range(samples):
                    a = Residue(k, rng.getrandbits(k) | 1)
                    for j in range(3, k + 1):
                        assert dlg_truncated(a, root, j) == self.truncated_base_route(a, root, j, roots)

    def test_never_validates_a_base(self, monkeypatch):
        import dlg2k.root_theory

        def refuse(h):
            raise AssertionError("dlg_truncated validated a base")

        monkeypatch.setattr(dlg2k.dlg_engine, "validate_root", refuse)
        monkeypatch.setattr(dlg2k.root_theory, "validate_root", refuse)
        assert dlg_truncated(Residue(5, 7), R5_3, 4) == DlgPair(1, 2, 4)
