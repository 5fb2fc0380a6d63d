import pytest

from wordhom import PrimeField


def test_characteristic_two():
    f = PrimeField(2)
    assert (1 + 1) % f.p == 0


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
    for a in range(1, 7):
        assert a * f.inv(a) % f.p == 1
