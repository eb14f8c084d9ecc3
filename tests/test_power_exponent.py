"""`polyring.power` takes an int exponent of at least 1 and rejects any other."""

import pytest

from eulerlab.errors import InputError
from eulerlab.polyring import F2, Q, Poly, parse_poly, power


def identity(p):
    return p


@pytest.mark.parametrize("base", [Poly.variable(F2, 1, 1), Poly.one(F2, 1), parse_poly("2", Q, 2)])
@pytest.mark.parametrize("exponent, message", [
    (0, "exponent of at least 1, got 0"),
    (-1, "exponent of at least 1, got -1"),
    (True, "exponent must be an integer, got True"),
    (2.0, "exponent must be an integer, got 2.0"),
])
def test_power_rejects_exponents_other_than_positive_ints(base, exponent, message):
    with pytest.raises(InputError, match=message):
        power(base, exponent, identity)


def test_power_and_the_operator_agree_from_one():
    p = parse_poly("T1+2*T2", Q, 2)
    for e in range(1, 6):
        assert power(p, e, identity) == p ** e
    assert power(Poly.one(F2, 1), 3, identity) == Poly.one(F2, 1)


def test_the_power_operator_keeps_its_own_messages_and_zero():
    p = Poly.variable(F2, 1, 1)
    assert p ** 0 == Poly.one(F2, 1)
    with pytest.raises(InputError, match="negative polynomial powers"):
        p ** -1
    with pytest.raises(InputError, match="polynomial power must be an integer"):
        p ** True
