# Torus-equivariant sphere maps: rational-line decompositions, the explicit
# circle map with exact cofactors, numeric equivariance verification, and
# blockwise join assembly.

import numpy as np

from eulerlab.bounds import bound_torus
from eulerlab.reps import RepT, line_blocks
from eulerlab.torusmaps import (
    circle_example,
    embed_on_line,
    join_assemble,
    normalize_to_sphere,
    random_unit_vectors,
    verify_equivariance,
)

# Weights group by rational line: (1,0) and (2,0) share a line, (0,1) does not.
U = RepT(2, {(1, 0): 2, (2, 0): 1, (0, 1): 1})
print("fixed dim:", U.fixed_dim)
for line, block in line_blocks(U).items():
    print(f"line {list(line)}: dim {block.dim}, weights {block.support()}")
print()

# The explicit circle map (x, y) -> (x^b + y^a, x^a' conj(y)^b') with
# a*a' - b*b' = 1 exactly.  Verification samples the equivariance residual
# and checks the zero-set structure symbolically from the exponents.
m = circle_example(2, 3, 1)
print("circle map params:", m.params)
print(verify_equivariance(m, samples=5000, seed=0).to_text())
print()

# Joins glue sphere maps line by line: f(sum t_l u_l) = sum t_l f_l(u_l).
# Parts must already be sphere maps, so the circle map is normalized first.
p1 = normalize_to_sphere(embed_on_line(circle_example(2, 3, 1), (1, 0)))
p2 = normalize_to_sphere(embed_on_line(circle_example(1, 2, 1), (0, 1)))
joined = join_assemble({(1, 0): p1, (0, 1): p2})
rng = np.random.default_rng(0)
xs = random_unit_vectors(rng, 5000, joined.source.dim)
norms = np.linalg.norm(joined.evaluator(xs), axis=1)
print("join source weights:", joined.source.items())
print("max |norm - 1| over 5000 sphere samples:", float(np.max(np.abs(norms - 1.0))))
print(verify_equivariance(joined, samples=5000, seed=1).to_text())
print()

# The torus bound calculators use the same weight tables.
print(bound_torus(RepT(1, {(1,): 2}), RepT(1, {(5,): 1}), variant="interior").to_text())
print()
print(bound_torus(RepT(1, {(1,): 2}), RepT(1, {(1,): 1}), variant="annulus").to_text())
