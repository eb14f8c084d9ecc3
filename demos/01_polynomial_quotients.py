# Exact polynomial arithmetic over F2 and Q, and normal forms against
# triangular systems.  Everything here is exact: F2 coefficients are bits,
# rational coefficients are arbitrary-precision fractions.

from eulerlab.polyring import (
    F2,
    Q,
    TriangularSystem,
    format_poly,
    parse_poly,
    quotient_basis,
    reduce,
)

# The one-variable picture: F2[T1]/(T1^n) is the cohomology of real
# projective (n-1)-space.  Powers below n survive, the n-th power dies.
n = 4
system = TriangularSystem([parse_poly(f"T1^{n}", F2, 1)])
for k in (2, 3, 4, 5):
    r = reduce(parse_poly(f"T1^{k}", F2, 1), system)
    print(f"T1^{k} mod (T1^{n}) = {format_poly(r)}")

print("monomial basis of the quotient:", quotient_basis(system))

# A two-variable triangular system: the second relation is monic in T2 with
# a lower-order tail in both variables.
system2 = TriangularSystem(
    [
        parse_poly("T1^3", F2, 2),
        parse_poly("T2^2+T1*T2", F2, 2),
    ]
)
p = parse_poly("T1^2*T2+T2^3", F2, 2)
print()
print("p          =", format_poly(p))
print("normal form =", format_poly(reduce(p, system2)))

certificate = reduce(parse_poly("T1^2*T2", F2, 2), system2)
print("T1^2*T2 zero in quotient?", certificate.is_zero(), "| certificate:", format_poly(certificate))

# The same machinery over Q keeps coefficients exact: no rounding ever.
system_q = TriangularSystem([parse_poly("2*T1^2+1/3*T1", Q, 1)])
r = reduce(parse_poly("1*T1^3", Q, 1), system_q)
print()
print("over Q:", "T1^3 mod (2*T1^2 + 1/3*T1) =", format_poly(r))

# The quotient's graded dimension counts follow the box of exponents below
# the leading degrees: here 3 * 2 = 6 basis monomials.
print()
print("basis of F2[T1,T2]/(T1^3, T2^2+T1*T2):")
for m in quotient_basis(system2):
    print("  exponent", m)
