import pytest

from wordhom import PrimeField


def test_characteristic_two():
    f = PrimeField(2)
    assert (1 + 1) % f.p == 0


def test_inverse_matches_brute_force():
    # oracle: search the residues directly; the Z/p reduction step
    # inverts a pivot entry by Fermat, pow(a, p - 2, p)
    for p in (2, 3, 5, 7, 11):
        f = PrimeField(p)
        for a in range(1, p):
            expected = next(x for x in range(p) if (a * x) % p == 1)
            assert pow(a, f.p - 2, f.p) == expected


@pytest.mark.parametrize("bad", [4, 1, 0, -3, 9, 100])
def test_non_prime_rejected(bad):
    with pytest.raises(ValueError, match="prime"):
        PrimeField(bad)


def test_non_integer_rejected():
    with pytest.raises(ValueError):
        PrimeField(2.0)


def test_field_laws():
    # a modulus is accepted exactly when every nonzero residue has an inverse
    for p in range(2, 40):
        invertible = all(any(a * x % p == 1 for x in range(p)) for a in range(1, p))
        try:
            PrimeField(p)
        except ValueError:
            assert not invertible
        else:
            assert invertible
