"""Torus-equivariant sphere maps: line decompositions, joins, the circle example.

Map evaluators operate on complex coordinate vectors laid out weight by
weight (ascending weight order, multiplicity slots adjacent) and accept
batches along the leading axis.  Verification is numeric for equivariance
(seeded sampling) and symbolic for the zero-set structure of the circle maps.

numpy is imported on the first call that builds or samples an array (an
evaluator, `random_unit_vectors`, `join_assemble`, `verify_equivariance`),
not at import; line decompositions and map descriptions are pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isfinite
from numbers import Real

from . import linalg
from .errors import InputError, require_count, require_int
from .reps import RepT, line_blocks, rep_entries_doc

DEFAULT_EQUIVARIANCE_TOL = 1e-9
# Largest sample count verify_equivariance draws; each sample costs a few
# complex vectors of the source and target dimension.
MAX_EQUIVARIANCE_SAMPLES = 200_000
# Samples join_assemble draws per part to check that it is a sphere map.
JOIN_CHECK_SAMPLES = 32


@dataclass(frozen=True)
class LineDecomposition:
    """Torus table split along rational lines, with the fixed part kept aside."""

    rank: int
    lines: dict
    fixed_dim: int

    @property
    def total_dim(self):
        return sum(block.dim for block in self.lines.values()) + self.fixed_dim

    def to_doc(self):
        return {
            "fixed_dim": self.fixed_dim,
            "lines": [
                {"line": list(lam), "dim": block.dim, "entries": rep_entries_doc(block)}
                for lam, block in sorted(self.lines.items())
            ],
        }


def line_decomposition(U):
    """Group the weights of U by primitive line representative."""
    if not isinstance(U, RepT):
        raise InputError("expected a torus representation")
    return LineDecomposition(rank=U.rank, lines=line_blocks(U), fixed_dim=U.fixed_dim)


def coordinate_weights(rep):
    """Weights repeated by multiplicity in ascending order; the coordinate layout."""
    out = []
    for w in sorted(rep.multiplicities()):
        out.extend([w] * rep.multiplicity(w))
    return out


@dataclass
class MapDescription:
    """A concrete equivariant map carried by its weight tables and evaluator.

    The evaluator takes arrays of shape (..., dim source) to (..., dim target)
    and must be total on the unit sphere.  Equivariance is never assumed; it
    is checked by verify_equivariance.
    """

    source: RepT
    target: RepT
    evaluator: object
    tag: str
    params: dict = field(default_factory=dict)

    def to_doc(self):
        return {
            "tag": self.tag,
            "params": dict(self.params),
            "source": {"rank": self.source.rank, "entries": rep_entries_doc(self.source)},
            "target": {"rank": self.target.rank, "entries": rep_entries_doc(self.target)},
        }


def identity_map(U):
    if not isinstance(U, RepT):
        raise InputError("expected a torus representation")

    def evaluator(z):
        import numpy as np

        return np.array(z, dtype=complex, copy=True)

    return MapDescription(source=U, target=U, evaluator=evaluator, tag="user", params={"identity": True})


def _minimal_cofactors(a, b):
    """Smallest a', b' >= 1 with a*a' - b*b' = 1 (a' minimal first)."""
    if b == 1:
        a0 = 1
    else:
        a0 = pow(a, -1, b)
        if a0 == 0:
            a0 = b
    a_prime = a0
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

    return MapDescription(
        source=lift(m.source),
        target=lift(m.target),
        evaluator=m.evaluator,
        tag=m.tag,
        params={**m.params, "line": list(line)},
    )


def normalize_to_sphere(m):
    """Compose with radial normalization; valid when the map misses zero on S(U)."""
    inner = m.evaluator

    def evaluator(z):
        import numpy as np

        out = np.asarray(inner(z), dtype=complex)
        norms = np.linalg.norm(out, axis=-1, keepdims=True)
        return out / norms

    return MapDescription(
        source=m.source,
        target=m.target,
        evaluator=evaluator,
        tag=m.tag,
        params={**m.params, "normalized": True},
    )


def random_unit_vectors(rng, count, dim):
    import numpy as np

    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms


def _slot_indices(sub_rep, full_layout):
    import numpy as np

    used = [False] * len(full_layout)
    idx = []
    for w in coordinate_weights(sub_rep):
        for i, fw in enumerate(full_layout):
            if not used[i] and fw == w:
                used[i] = True
                idx.append(i)
                break
        else:
            raise InputError(f"weight {w} missing from the assembled layout")
    return np.array(idx, dtype=int)


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
    rank = None
    for lam, part in parts.items():
        lam = tuple(require_int(x, "line entry") for x in lam)
        if linalg.primitive(lam) != lam:
            raise InputError(f"line {lam} is not primitive and sign-normalized")
        if rank is None:
            rank = part.source.rank
        if part.source.rank != rank or part.target.rank != rank:
            raise InputError("all parts must share the torus rank")
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


@dataclass
class EquivarianceReport:
    """Numeric equivariance residuals plus the circle-specific symbolic check."""

    tag: str
    samples: int
    tol: float
    seed: int
    max_residual: float
    equivariant: bool
    min_norm: object = None
    zero_set_isolated: object = None

    @property
    def passed(self):
        return self.equivariant and self.zero_set_isolated is not False

    @property
    def failure(self):
        """None when the map passed, else the hypothesis-failure line."""
        return None if self.passed else "hypothesis failure: equivariance verification failed"

    def to_text(self):
        lines = [
            f"map: {self.tag}",
            f"samples: {self.samples}  tol: {self.tol}  seed: {self.seed}",
            f"max residual: {self.max_residual:.3e}",
            f"equivariant: {'yes' if self.equivariant else 'no'}",
        ]
        if self.min_norm is not None:
            lines.append(f"min |f| on sphere samples: {self.min_norm:.6e}")
        if self.zero_set_isolated is not None:
            lines.append(
                "zero set reduced to the origin (symbolic): "
                + ("yes" if self.zero_set_isolated else "no")
            )
        lines.append(f"passed: {'yes' if self.passed else 'no'}")
        return "\n".join(lines)

    def to_doc(self):
        return {
            "tag": self.tag,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "equivariant": self.equivariant,
            "min_norm": self.min_norm,
            "zero_set_isolated": self.zero_set_isolated,
            "passed": self.passed,
        }


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
    check that the zero set is the origin alone.
    """
    # a bool is a Real, but no tolerance
    if isinstance(tol, bool) or not isinstance(tol, Real) or not isfinite(tol) or tol <= 0:
        raise InputError(f"tolerance must be a finite positive number, got {tol!r}")
    samples = require_count(samples, "sample count", MAX_EQUIVARIANCE_SAMPLES, positive=True)
    seed = require_int(seed, "seed")
    rank = m.source.rank
    dim_s = m.source.dim
    if dim_s == 0:
        raise InputError("the source representation is zero")
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
    report = EquivarianceReport(
        tag=m.tag,
        samples=samples,
        tol=float(tol),
        seed=seed,
        max_residual=max_residual,
        equivariant=max_residual < tol,
    )
    if m.tag == "circle-example":
        report.min_norm = float(np.min(np.linalg.norm(fx, axis=-1)))
        report.zero_set_isolated = _circle_zero_set_isolated(m.params)
    return report
