"""Torus-equivariant sphere maps: the circle example, joins, equivariance checks.

Map evaluators operate on complex coordinate vectors laid out weight by
weight (ascending weight order, multiplicity slots adjacent) and accept
batches along the leading axis.  Verification is numeric for equivariance
(seeded sampling) and symbolic for the zero-set structure of the circle maps.

numpy is imported on the first call that builds or samples an array (an
evaluator, `random_unit_vectors`, `join_assemble`, `verify_equivariance`),
not at import; map descriptions are pure Python.  The rational-line blocks
of a torus table are `reps.line_blocks`.
"""

from math import gcd, isfinite

from . import linalg
from .errors import InputError, require_count, require_int
from .report import Report
from .reps import RepT, rep_entries_doc, require_tables

DEFAULT_EQUIVARIANCE_TOL = 1e-9
# float64 rounds a sampled phase 2*pi*theta.w by up to about this much per unit
# of |w|_1, and an equivariant map's residual grows with it: circle maps read
# at most 6.4 * 2^-52 per unit of their largest weight, and this is ten times
# that.  A weight above 2^53 is not a float64 integer.
PHASE_ROUNDING = 2.0 ** -46
MAX_SAMPLED_WEIGHT = 2 ** 53
# Largest sample count verify_equivariance draws; each sample costs a few
# complex vectors of the source and target dimension.
MAX_EQUIVARIANCE_SAMPLES = 200_000
# Samples join_assemble draws per part to check that it is a sphere map.
JOIN_CHECK_SAMPLES = 32


def coordinate_weights(rep):
    """Weights repeated by multiplicity in ascending order; the coordinate layout."""
    out = []
    for w in sorted(rep.multiplicities()):
        out.extend([w] * rep.multiplicity(w))
    return out


class MapDescription:
    """A concrete equivariant map carried by its weight tables and evaluator.

    `source` and `target` are `RepT` tables, `tag` names the construction and
    `params` its parameters (a new dict when none is given).  The evaluator
    takes arrays of shape (..., dim source) to (..., dim target) and must be
    total on the unit sphere.  Equivariance is never assumed; it is checked
    by verify_equivariance.
    """

    def __init__(self, source, target, evaluator, tag, params=None):
        self.source = source
        self.target = target
        self.evaluator = evaluator
        self.tag = tag
        self.params = {} if params is None else params

    def to_doc(self):
        return {
            "tag": self.tag,
            "params": dict(self.params),
            "source": {"rank": self.source.rank, "entries": rep_entries_doc(self.source)},
            "target": {"rank": self.target.rank, "entries": rep_entries_doc(self.target)},
        }


def _minimal_cofactors(a, b):
    """Smallest a', b' >= 1 with a*a' - b*b' = 1 (a' minimal first)."""
    a_prime = pow(a, -1, b)
    while a_prime < 1 or (a * a_prime - 1) // b < 1:
        a_prime += b
    return a_prime, (a * a_prime - 1) // b


def _two_slots(layout, w1, w2):
    i1 = layout.index(w1)
    if w2 == w1:
        return i1, i1 + 1
    return i1, layout.index(w2)


def circle_example(a, b, c):
    """The explicit circle map (x, y) -> (x^b + y^a, x^a' * conj(y)^b').

    Source weights (ac, bc), target weights (abc, c); requires coprime a, b.
    The evaluator maps the whole source to the target, not sphere to sphere.
    """
    a, b, c = require_int(a, "a"), require_int(b, "b"), require_int(c, "c")
    if min(a, b, c) < 1:
        raise InputError("a, b, c must be positive")
    if gcd(a, b) != 1:
        raise InputError("gcd(a,b) must be 1")
    a_prime, b_prime = _minimal_cofactors(a, b)
    source = RepT(1, {(a * c,): 2} if a == b else {(a * c,): 1, (b * c,): 1})
    target = RepT(1, {(c,): 2} if a * b == 1 else {(a * b * c,): 1, (c,): 1})
    ix, iy = _two_slots(coordinate_weights(source), (a * c,), (b * c,))
    oz, ow = _two_slots(coordinate_weights(target), (a * b * c,), (c,))

    def evaluator(z):
        import numpy as np

        z = np.asarray(z, dtype=complex)
        x = z[..., ix]
        y = z[..., iy]
        out = np.empty(z.shape[:-1] + (2,), dtype=complex)
        out[..., oz] = x ** b + y ** a
        out[..., ow] = x ** a_prime * np.conj(y) ** b_prime
        return out

    return MapDescription(
        source=source,
        target=target,
        evaluator=evaluator,
        tag="circle-example",
        params={"a": a, "b": b, "c": c, "a_prime": a_prime, "b_prime": b_prime},
    )


def embed_on_line(m, line):
    """Relabel a rank-1 map onto the given line of a higher-rank torus.

    Weight k becomes k * line; the evaluator is unchanged.  The line must be
    primitive with positive leading entry, and all weights of m positive so
    the coordinate order is preserved.
    """
    line = tuple(require_int(x, "line entry") for x in line)
    if linalg.primitive(line) != line:
        raise InputError("line must be a primitive, sign-normalized vector")
    if m.source.rank != 1 or m.target.rank != 1:
        raise InputError("embed_on_line relabels rank-1 maps")

    def lift(rep):
        table = {}
        for (k,), mult in rep.items():
            if k <= 0:
                raise InputError("embed_on_line requires positive weights")
            table[tuple(k * x for x in line)] = mult
        return RepT(len(line), table)

    return MapDescription(lift(m.source), lift(m.target), m.evaluator, m.tag, {**m.params, "line": list(line)})


def normalize_to_sphere(m):
    """Compose with radial normalization; valid when the map misses zero on S(U)."""
    inner = m.evaluator

    def evaluator(z):
        import numpy as np

        out = np.asarray(inner(z), dtype=complex)
        norms = np.linalg.norm(out, axis=-1, keepdims=True)
        return out / norms

    return MapDescription(m.source, m.target, evaluator, m.tag, {**m.params, "normalized": True})


def random_unit_vectors(rng, count, dim):
    import numpy as np

    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms


def _slot_indices(sub_rep, full_layout):
    """The slots of `full_layout` that carry `sub_rep`'s weights; the parts
    of a join have disjoint weights, each part's on its own line."""
    import numpy as np

    weights = set(sub_rep.support())
    return np.array([i for i, w in enumerate(full_layout) if w in weights], dtype=int)


def join_assemble(parts):
    """Assemble sphere maps blockwise: f(sum t_l u_l) = sum t_l f_l(u_l).

    `parts` maps primitive lines to MapDescriptions whose source and target
    weights lie on that line.  Each part must send unit vectors to unit
    vectors; this is checked at assembly time on JOIN_CHECK_SAMPLES samples
    drawn with seed 0, to within DEFAULT_EQUIVARIANCE_TOL.  Blocks with zero
    radial coordinate are skipped, so the output always has unit norm.
    """
    if not parts:
        raise InputError("join needs at least one part")
    require_tables(RepT, *(rep for part in parts.values() for rep in (part.source, part.target)))
    for lam, part in parts.items():
        lam = tuple(require_int(x, "line entry") for x in lam)
        if linalg.primitive(lam) != lam:
            raise InputError(f"line {lam} is not primitive and sign-normalized")
        for w in part.source.support() + part.target.support():
            if linalg.primitive(w) != lam:
                raise InputError(f"part for line {lam} carries the off-line weight {w}")

    import numpy as np

    rng = np.random.default_rng(0)
    for lam, part in sorted(parts.items()):
        dim = part.source.dim
        samples = random_unit_vectors(rng, JOIN_CHECK_SAMPLES, dim)
        norms = np.linalg.norm(np.asarray(part.evaluator(samples), dtype=complex), axis=-1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > DEFAULT_EQUIVARIANCE_TOL:
            raise InputError(
                f"assembly error: part for line {lam} is not a sphere map "
                f"(sampled norm deviates by {worst:.3e})"
            )

    source = None
    target = None
    for _, part in sorted(parts.items()):
        source = part.source if source is None else source.direct_sum(part.source)
        target = part.target if target is None else target.direct_sum(part.target)
    src_layout = coordinate_weights(source)
    tgt_layout = coordinate_weights(target)
    pieces = [
        (_slot_indices(part.source, src_layout), _slot_indices(part.target, tgt_layout), part.evaluator)
        for _, part in sorted(parts.items())
    ]
    tgt_dim = len(tgt_layout)

    def evaluator(z):
        z = np.asarray(z, dtype=complex)
        single = z.ndim == 1
        zz = z[None, :] if single else z
        out = np.zeros(zz.shape[:-1] + (tgt_dim,), dtype=complex)
        for src_idx, tgt_idx, f in pieces:
            block = zz[..., src_idx]
            radius = np.linalg.norm(block, axis=-1)
            mask = radius > 0
            if np.any(mask):
                unit = block[mask] / radius[mask][..., None]
                mapped = np.asarray(f(unit), dtype=complex)
                rows = np.flatnonzero(mask)
                out[np.ix_(rows, tgt_idx)] = radius[mask][..., None] * mapped
        return out[0] if single else out

    return MapDescription(
        source=source,
        target=target,
        evaluator=evaluator,
        tag="join",
        params={"lines": [list(lam) for lam in sorted(parts)]},
    )


def _circle_zero_set_isolated(params):
    # Second coordinate x^a' * conj(y)^b' vanishes only on the axes when both
    # exponents are >= 1; the first coordinate then reduces to a pure power of
    # the remaining variable, which vanishes only at zero when its exponent is
    # >= 1.  Exact integer logic on the exponent data.
    a, b, a_prime, b_prime = (
        require_int(params.get(k, 0), k) for k in ("a", "b", "a_prime", "b_prime")
    )
    axes_only = a_prime >= 1 and b_prime >= 1
    first_kills_rest = a >= 1 and b >= 1
    return axes_only and first_kills_rest


def verify_equivariance(m, samples=10000, tol=DEFAULT_EQUIVARIANCE_TOL, seed=0):
    """Sample the equivariance residual max |f(t.x) - t.f(x)| on the unit sphere.

    The group elements and sample points come from a seeded generator, so
    reports are reproducible.  circle-example maps additionally report the
    minimum output norm over the sphere samples and the exact exponent-level
    check that the zero set is the origin alone.  Weights so large that
    float64 rounding of the phases alone can reach `tol` (PHASE_ROUNDING per
    unit of weight), or above MAX_SAMPLED_WEIGHT, are an input error raised
    before anything is sampled.  The rule is conservative: it bounds the
    rounding by the largest weight 1-norm of the source and target tables,
    not by the phases the map forms, which a user map does not state.  So
    `circle_example(1, 1, c)` reads a residual of about 3e-16 for every c up
    to 10^6, yet c >= 70,369 is refused at the default tol.
    """
    from numbers import Real

    # a bool is a Real, but no tolerance
    if isinstance(tol, bool) or not isinstance(tol, Real) or not isfinite(tol) or tol <= 0:
        raise InputError(f"tolerance must be a finite positive number, got {tol!r}")
    samples = require_count(samples, "sample count", MAX_EQUIVARIANCE_SAMPLES, positive=True)
    seed = require_int(seed, "seed")
    rank = m.source.rank
    dim_s = m.source.dim
    if dim_s == 0:
        raise InputError("the source representation is zero")
    # refuse weights whose phase rounding alone can reach tol; a tol that
    # rounding reaches already at weight 1 cannot be met at any weight, and
    # the check runs and fails
    widest = max(sum(map(abs, w)) for w in m.source.support() + m.target.support())
    if widest > MAX_SAMPLED_WEIGHT or 1 < tol / PHASE_ROUNDING <= widest:
        raise InputError(
            f"weights up to {widest} (1-norm) are too large to sample at tolerance {float(tol)}: "
            f"float64 phase rounding, about {PHASE_ROUNDING:.1e} per unit of weight, can reach it"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = random_unit_vectors(rng, samples, dim_s)
    thetas = rng.random((samples, rank))
    src_w = np.array(coordinate_weights(m.source), dtype=float)
    tgt_w = np.array(coordinate_weights(m.target), dtype=float)
    src_phase = np.exp(2j * np.pi * (thetas @ src_w.T))
    tgt_phase = np.exp(2j * np.pi * (thetas @ tgt_w.T))
    fx = np.asarray(m.evaluator(xs), dtype=complex)
    f_tx = np.asarray(m.evaluator(src_phase * xs), dtype=complex)
    residuals = np.linalg.norm(f_tx - tgt_phase * fx, axis=-1)
    max_residual = float(np.max(residuals))
    equivariant = max_residual < tol
    rows = [
        ("tag", "map", m.tag),
        ("samples", None, samples),
        ("tol", None, float(tol)),
        ("seed", None, seed),
        (None, None, f"samples: {samples}  tol: {float(tol)}  seed: {seed}"),
        ("max_residual", None, max_residual),
        (None, "max residual", f"{max_residual:.3e}"),
        ("equivariant", "equivariant", equivariant),
    ]
    min_norm = zero_set_isolated = None
    if m.tag == "circle-example":
        min_norm = float(np.min(np.linalg.norm(fx, axis=-1)))
        zero_set_isolated = _circle_zero_set_isolated(m.params)
        rows += [
            (None, "min |f| on sphere samples", f"{min_norm:.6e}"),
            (None, "zero set reduced to the origin (symbolic)", zero_set_isolated),
        ]
    passed = equivariant and zero_set_isolated is not False
    rows += [
        ("min_norm", None, min_norm),
        ("zero_set_isolated", None, zero_set_isolated),
        ("passed", "passed", passed),
    ]
    return Report(rows, None if passed else "hypothesis failure: equivariance verification failed")
