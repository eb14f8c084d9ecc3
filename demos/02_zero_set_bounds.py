# Certified lower bounds on the zero sets of equivariant maps U -> V for
# elementary abelian 2-groups.  Each report carries a hypothesis checklist
# and a witness (subgroup, flag, nonvanishing certificate) that can be
# re-checked independently.

from eulerlab.bounds import bound_free_zero_set
from eulerlab.reps import RepE

# The classical antipodal case: E = Z/2 acting by -1 on R^m and R^k.
# A map S(R^m) -> R^k with m > k has a zero set of dimension >= m - k - 1;
# here the free-zero-set bound counts the cone dimension m - k.
U = RepE(1, {(1,): 5})
V = RepE(1, {(1,): 2})
print(bound_free_zero_set(U, V).to_text())
print()

# A rank-2 example where all three nontrivial characters occur.
alpha, beta, gamma = (1, 0), (0, 1), (1, 1)
U = RepE(2, {alpha: 3, beta: 1, gamma: 1})
V = RepE(2, {alpha: 1})
report = bound_free_zero_set(U, V)
print(report.to_text())
print()

# When the gap concentrates on few characters no admissible flag of the whole
# group exists; the pipeline first passes to the fixed space of a maximal
# subgroup, then finds the flag for the quotient group.
U = RepE(2, {alpha: 2})
V = RepE(2, {})
report = bound_free_zero_set(U, V)
print(report.to_text())
print()

# A hypothesis failure is reported, not raised: the bound becomes
# "not applicable" and the failing item is visible in the checklist.
U = RepE(1, {(0,): 2})
V = RepE(1, {(1,): 1})
print(bound_free_zero_set(U, V).to_text())
