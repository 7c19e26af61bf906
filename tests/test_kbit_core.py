"""Fixed-width residue arithmetic.

Expected values were frozen from arbitrary-precision arithmetic; the
inverse values double-checked against the extended-gcd route in
test_oracle.py.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlg2k.kbit_core import (
    MAX_WIDTH,
    MIN_WIDTH,
    Residue,
    add,
    bit,
    inverse,
    invert_odd,
    mul,
    neg,
    power,
    truncate,
)


class TestResidue:
    def test_masks_on_construction(self):
        assert Residue(5, 37).value == 5
        assert Residue(5, 32).value == 0
        assert Residue(3, 7).value == 7

    def test_negative_input_wraps_to_two_complement(self):
        assert Residue(5, -1).value == 31
        assert Residue(8, -3).value == 253

    def test_width_bounds(self):
        Residue(MIN_WIDTH, 1)
        Residue(MAX_WIDTH, 1)
        with pytest.raises(ValueError):
            Residue(2, 1)
        with pytest.raises(ValueError):
            Residue(MAX_WIDTH + 1, 1)

    def test_equality_is_width_sensitive(self):
        assert Residue(5, 7) == Residue(5, 7)
        assert Residue(5, 7) != Residue(6, 7)

    def test_hex_is_minimal_lowercase(self):
        assert Residue(8, 0xB7).hex() == "0xb7"
        assert Residue(8, 7).hex() == "0x7"
        assert Residue(8, 0).hex() == "0x0"

    def test_parse_accepts_leading_zeros_and_either_case(self):
        assert Residue.parse(8, "0x00b7").value == 0xB7
        assert Residue.parse(8, "0XB7").value == 0xB7

    def test_parse_rejects_missing_prefix_and_junk(self):
        with pytest.raises(ValueError):
            Residue.parse(8, "b7")
        with pytest.raises(ValueError):
            Residue.parse(8, "0xzz")
        with pytest.raises(ValueError):
            Residue.parse(8, "-0x5")

    def test_parse_rejects_underscores(self):
        # int("0x1_0", 16) would read 16
        with pytest.raises(ValueError, match="malformed"):
            Residue.parse(8, "0x1_0")

    def test_parse_reduces_wide_values(self):
        # same truncation semantics as construction
        assert Residue.parse(4, "0x13").value == 3


class TestAdd:
    def test_wraps(self):
        assert add(Residue(5, 17), Residue(5, 17)) == Residue(5, 2)
        assert add(Residue(8, 200), Residue(8, 100)) == Residue(8, 44)

    def test_zero_is_identity(self):
        for v in (0, 1, 13, 31):
            assert add(Residue(5, v), Residue(5, 0)) == Residue(5, v)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            add(Residue(5, 1), Residue(6, 1))


class TestMul:
    def test_wraps(self):
        assert mul(Residue(5, 3), Residue(5, 11)) == Residue(5, 1)
        assert mul(Residue(5, 17), Residue(5, 17)) == Residue(5, 1)

    def test_one_is_identity(self):
        for v in (0, 2, 15, 30):
            assert mul(Residue(6, v), Residue(6, 1)) == Residue(6, v)

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            mul(Residue(5, 1), Residue(4, 1))


class TestNeg:
    def test_examples(self):
        assert neg(Residue(5, 7)) == Residue(5, 25)
        assert neg(Residue(5, 0)) == Residue(5, 0)
        assert neg(Residue(8, 1)) == Residue(8, 255)

    def test_is_additive_inverse_exhaustively(self):
        for v in range(32):
            a = Residue(5, v)
            assert add(a, neg(a)) == Residue(5, 0)
            assert neg(neg(a)) == a


class TestInverse:
    def test_examples(self):
        assert inverse(Residue(5, 3)) == Residue(5, 11)
        assert inverse(Residue(5, 1)) == Residue(5, 1)
        assert inverse(Residue(5, 17)) == Residue(5, 17)

    def test_even_raises(self):
        with pytest.raises(ValueError):
            inverse(Residue(5, 4))
        with pytest.raises(ValueError):
            inverse(Residue(5, 0))

    def test_involution_exhaustive(self):
        for k in range(3, 9):
            for v in range(1, 1 << k, 2):
                a = Residue(k, v)
                b = inverse(a)
                assert mul(a, b) == Residue(k, 1)
                assert inverse(b) == a

    def test_invert_odd_handles_tiny_widths(self):
        # the exponent modulus 2**(k-2) goes below the residue floor
        for bits in (1, 2):
            for v in range(1, 1 << bits, 2):
                assert invert_odd(v, bits) * v % (1 << bits) == 1

    def test_invert_odd_rejects_even(self):
        with pytest.raises(ValueError):
            invert_odd(2, 8)

    def test_invert_odd_rejects_even_under_python_O(self):
        # the guard must not be an assert, which -O strips
        src = os.path.dirname(os.path.dirname(sys.modules["dlg2k"].__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "from dlg2k.kbit_core import invert_odd\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    invert_odd(2, 8)\n"
            "except ValueError:\n"
            "    sys.exit(0)\n"
            "sys.exit(3)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_large_width(self):
        k = 2048
        v = (1 << 2000) + 12345
        a = Residue(k, v | 1)
        assert mul(a, inverse(a)) == Residue(k, 1)


class TestPower:
    def test_examples(self):
        assert power(Residue(5, 3), 6) == Residue(5, 25)
        assert power(Residue(5, 3), 0) == Residue(5, 1)
        assert power(Residue(5, 3), 8) == Residue(5, 1)

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError):
            power(Residue(5, 3), -1)

    def test_matches_repeated_multiplication(self):
        k = 16
        for v in (3, 5, 0x1234, 0xFFFF):
            acc = Residue(k, 1)
            a = Residue(k, v)
            for exp in range(40):
                assert power(a, exp) == acc
                acc = mul(acc, a)

    def test_odd_orders_divide_quarter_group(self):
        for k in range(3, 11):
            exp = 1 << (k - 2)
            for v in range(1, 1 << k, 2):
                assert power(Residue(k, v), exp) == Residue(k, 1)


class TestTruncateAndBit:
    def test_truncate_examples(self):
        assert truncate(Residue(8, 0xB7), 4) == Residue(4, 7)
        assert truncate(Residue(8, 0xB7), 3) == Residue(3, 7)
        assert truncate(Residue(8, 0xB7), 8) == Residue(8, 0xB7)

    def test_truncate_up_raises(self):
        with pytest.raises(ValueError):
            truncate(Residue(5, 1), 6)
        with pytest.raises(ValueError):
            truncate(Residue(5, 1), 2)

    def test_bit_examples(self):
        a = Residue(8, 0xB7)  # 1011 0111
        assert [bit(a, i) for i in range(8)] == [1, 1, 1, 0, 1, 1, 0, 1]

    def test_bit_out_of_range_raises(self):
        with pytest.raises(ValueError):
            bit(Residue(8, 1), 8)
        with pytest.raises(ValueError):
            bit(Residue(8, 1), -1)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=MIN_WIDTH, max_value=96),
    x=st.integers(min_value=0),
    y=st.integers(min_value=0),
    data=st.data(),
)
def test_truncation_commutes_with_arithmetic(k, x, y, data):
    j = data.draw(st.integers(min_value=MIN_WIDTH, max_value=k))
    a, b = Residue(k, x), Residue(k, y)
    assert truncate(add(a, b), j) == add(truncate(a, j), truncate(b, j))
    assert truncate(mul(a, b), j) == mul(truncate(a, j), truncate(b, j))
    assert truncate(neg(a), j) == neg(truncate(a, j))


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(min_value=MIN_WIDTH, max_value=64),
    x=st.integers(min_value=0),
    exp=st.integers(min_value=0, max_value=64),
    data=st.data(),
)
def test_truncation_commutes_with_power(k, x, exp, data):
    j = data.draw(st.integers(min_value=MIN_WIDTH, max_value=k))
    a = Residue(k, x)
    assert truncate(power(a, exp), j) == power(truncate(a, j), exp)
