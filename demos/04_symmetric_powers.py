# Character tables of symmetric powers, counted exactly by Newton's identity
# in the group ring of the characters, and the minimal truncation degree k for
# which the direct sum of odd symmetric powers dominates a given target
# blockwise.

from eulerlab.reps import FlagE, RepE, decompose, spanning_flag_from_support
from eulerlab.sympow import min_embedding_k, sym_multiplicities

alpha, beta = (1, 0), (0, 1)
U = RepE(2, {alpha: 1, beta: 1})

print("base table:", U.items())
for d in range(5):
    table = sym_multiplicities(U, d)
    print(f"S^{d}: dim {table.dim:>2}  entries {table.items()}")
print()

# Odd powers dominate the base block by block: compare dimensions along a
# flag that meets every block.
flag = spanning_flag_from_support(U)
base_dims = decompose(U, flag).dims
print("flag dual basis:", flag.dual_basis)
print("base block dims:", base_dims)
for j in (1, 2, 3):
    dims = decompose(sym_multiplicities(U, 2 * j - 1), flag).dims
    print(f"S^{2 * j - 1} block dims: {dims}")
print()

# The minimal k such that S^1 + S^3 + ... + S^(2k-1) beats the target V in
# every block and exceeds it in total dimension by at least d.
V = RepE(2, {alpha: 2, beta: 1})
report = min_embedding_k(U, V, 3, flag)
print(f"minimal k = {report['k']} for target dims {tuple(report['target_block_dims'])}, slack 3")
print("accumulated block dims:", tuple(report["block_dims"]))
print("claims:", report["claims"])
print("total dimension:", report["total_dim"])

# One rank-1 sanity case with a closed form: U the sign representation,
# V = m copies of it, slack d: k = max(m + 1, m + d).
for m, d in [(1, 0), (2, 1), (3, 4)]:
    r = min_embedding_k(RepE(1, {(1,): 1}), RepE(1, {(1,): m}), d, FlagE.standard(1))
    print(f"m={m}, d={d}: k = {r['k']}")
