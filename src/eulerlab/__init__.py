"""eulerlab: exact Euler-class computations and certified zero-set bounds.

The package computes, over F2 and Q, the polynomial Euler classes of
representations of elementary abelian 2-groups and tori, decides their
survival in quotient cohomology presentations by triangular normal forms,
constructs the flags and subgroups the bound theorems ask for, and emits
machine-checkable lower bounds on zero-set dimensions of equivariant maps.

Everything is pure Python except the sampling of torus sphere maps in
`torusmaps`, which imports numpy on its first sampling call; importing the
package does not load numpy.
"""

from .bounds import bound_free_zero_set, bound_stiefel, bound_torus
from .cohomology import (
    QuotientClass,
    euler_nonvanishing,
    flag_ring,
    presentation,
    verify_flag_ring,
)
from .errors import EulerlabError, HypothesisError, InputError, ResourceLimitError
from .flagsearch import (
    ReducedFlagSearch,
    best_fixed_subgroup,
    find_flag,
    find_rational_flag,
    gap_table,
    reduced_flag_search,
)
from .polyring import (
    F2,
    Q,
    Poly,
    TriangularSystem,
    format_poly,
    parse_poly,
    quotient_basis,
    reduce,
)
from .reps import (
    FlagDecomposition,
    FlagE,
    RationalFlag,
    RepE,
    RepT,
    Subgroup,
    decompose,
    euler_poly,
    fixed_subrep,
    flag_from_doc,
    flag_to_doc,
    rep_from_doc,
    spanning_flag_from_support,
)
from .report import Report
from .sympow import min_embedding_k, sym_multiplicities
from .torusmaps import (
    MapDescription,
    circle_example,
    embed_on_line,
    join_assemble,
    normalize_to_sphere,
    verify_equivariance,
)

__version__ = "0.1.0"
