import pytest

from wordhom import PrimeField


def test_characteristic_two():
    f = PrimeField(2)
    assert f.add(1, 1) == 0


def test_inverse_matches_brute_force():
    # oracle: search the residues directly
    for p in (2, 3, 5, 7, 11):
        f = PrimeField(p)
        for a in range(1, p):
            expected = next(x for x in range(p) if (a * x) % p == 1)
            assert f.inv(a) == expected


def test_inverse_of_two_mod_five():
    assert PrimeField(5).inv(2) == 3


@pytest.mark.parametrize("bad", [4, 1, 0, -3, 9, 100])
def test_non_prime_rejected(bad):
    with pytest.raises(ValueError, match="prime"):
        PrimeField(bad)


def test_non_integer_rejected():
    with pytest.raises(ValueError):
        PrimeField(2.0)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def test_field_laws():
    f = PrimeField(7)
    elems = range(7)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
