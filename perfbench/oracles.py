"""Independent references for the benchmark's correctness checks.

Nothing here imports the package under test: grid references are plain
numpy on the input matrices, closed-form references are the textbook
formulas of each family, and exact values are constants.  A check raises
:class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import numpy as np

#: permutations mixed into one random doubly stochastic matrix
MIXED_PERMUTATIONS = 12
#: Sinkhorn balancing stops at this row-sum error
SINKHORN_TOL = 1e-14
SINKHORN_MAX_ITER = 10_000
#: blocks per axis of the chi-square check of grid samples
SAMPLE_BINS = 8
#: largest accepted sqrt(n) * Kolmogorov-Smirnov distance (about p = 1e-5)
KS_LIMIT = 2.5
#: panels per axis of the midpoint D1 reference
MIDPOINT_PANELS = 2048
#: lattice points per axis of the package's closed-form sup and SI audits
MESH_POINTS = 257
SI_V_POINTS = 65


class CheckFailed(AssertionError):
    """A task's output disagrees with its oracle."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(value, reference, tol, what):
    value = float(value)
    expect(
        abs(value - reference) <= tol,
        f"{what}: {value!r} differs from reference {reference!r} by more than {tol:g}",
    )


def close_arrays(value, reference, tol, what):
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    expect(value.shape == reference.shape, f"{what}: shape {value.shape} != {reference.shape}")
    gap = float(np.max(np.abs(value - reference))) if value.size else 0.0
    expect(gap <= tol, f"{what}: max abs gap {gap:.3g} exceeds {tol:g}")


def same_intervals(value, reference, tol, what):
    value = [tuple(map(float, ab)) for ab in value]
    reference = [tuple(map(float, ab)) for ab in reference]
    expect(len(value) == len(reference), f"{what}: {value} != {reference}")
    for got, want in zip(value, reference):
        expect(
            max(abs(got[0] - want[0]), abs(got[1] - want[1])) <= tol,
            f"{what}: interval {got} != {want} within {tol:g}",
        )


# ---------------------------------------------------------------------------
# input generators (the package receives only their output)
# ---------------------------------------------------------------------------


def permutation_mixture(rng, n):
    """Random doubly stochastic matrix: a Dirichlet mixture of permutations."""
    m = np.zeros((n, n))
    rows = np.arange(n)
    for w in rng.dirichlet(np.ones(MIXED_PERMUTATIONS)):
        m[rows, rng.permutation(n)] += w
    return m


def sinkhorn(kernel):
    a = np.array(kernel, dtype=float)
    for _ in range(SINKHORN_MAX_ITER):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if np.max(np.abs(a.sum(axis=1) - 1.0)) <= SINKHORN_TOL:
            return a
    raise RuntimeError("Sinkhorn balancing did not converge")


def tp2_kernel(n, width):
    """Doubly stochastic Sinkhorn balance of a Gaussian kernel.

    The Gaussian kernel is totally positive of order 2 and diagonal scaling
    keeps it so; TP2 rows are stochastically ordered, so the checkerboard is
    stochastically increasing in both components and, with full support,
    ergodic (its iterates converge to independence).
    """
    x = (np.arange(n) + 0.5) / n
    return sinkhorn(np.exp(-(((x[:, None] - x[None, :]) / width) ** 2)))


def block_layout(rng, n, fractions):
    """Cell ranges of fixed sizes ``fractions * n`` in random order and places.

    The sizes are the same for every seed, so the cost of iterating or
    decomposing the layout is too; the seed moves the blocks and the
    identity gaps between them.
    """
    sizes = [max(2, int(round(f * n))) for f in fractions]
    spare = n - sum(sizes)
    gaps = rng.multinomial(spare, np.ones(len(sizes) + 1) / (len(sizes) + 1))
    ranges, start = [], 0
    for size, gap in zip(rng.permutation(sizes), gaps):
        start += int(gap)
        ranges.append((start, start + int(size)))
        start += int(size)
    return ranges


def separated_blocks(rng):
    """Two disjoint intervals of (0, 1) whose ends lie at least 0.03 apart.

    The spacing keeps every block and every gap wider than the 1/1024 scan
    that locates them on closed forms.
    """
    ends = np.sort(rng.choice(np.arange(1, 20), size=4, replace=False)) / 20
    ends = ends + rng.uniform(-0.01, 0.01, size=4)
    return [(float(ends[0]), float(ends[1])), (float(ends[2]), float(ends[3]))]


def block_diagonal(n, ranges, fill):
    """Identity off the blocks; ``fill(size)`` on each diagonal block."""
    a = np.eye(n)
    for start, stop in ranges:
        a[start:stop, start:stop] = fill(stop - start)
    return a


def block_average(n, ranges):
    return block_diagonal(n, ranges, lambda s: np.full((s, s), 1.0 / s))


def ranges_to_intervals(n, ranges):
    return [(start / n, stop / n) for start, stop in ranges]


def ranges_to_partition(n, ranges):
    """Cells grouped into the blocks, every other cell on its own."""
    parts = [tuple(range(start, stop)) for start, stop in ranges]
    covered = {i for part in parts for i in part}
    parts.extend((i,) for i in range(n) if i not in covered)
    return sorted(parts)


def refine(a, r):
    return np.kron(a, np.full((r, r), 1.0 / r))


# ---------------------------------------------------------------------------
# grid references
# ---------------------------------------------------------------------------


def corners(a):
    """n*C on the (n+1)x(n+1) corner lattice of the checkerboard of ``a``."""
    n = a.shape[0]
    p = np.zeros((n + 1, n + 1))
    p[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    return p


def corner_sup(a, b):
    """Exact sup distance between two equal-resolution checkerboards."""
    return float(np.max(np.abs(corners(a) - corners(b)))) / a.shape[0]


def corner_signed(a, b):
    """max (C_a - C_b) over the corner lattice."""
    return float(np.max(corners(a) - corners(b))) / a.shape[0]


def grid_d1(a, b):
    """Exact D1 of two equal-resolution checkerboards.

    On u-cell k the derivative gap is linear across each v-cell, between the
    running row sums of a - b; integrate |.| segment by segment.
    """
    n = a.shape[0]
    run = np.concatenate([np.zeros((n, 1)), np.cumsum(a - b, axis=1)], axis=1)
    y0, y1 = np.abs(run[:, :-1]), np.abs(run[:, 1:])
    crossing = (run[:, :-1] * run[:, 1:]) < 0
    total = y0 + y1
    seg = np.where(
        crossing,
        (y0 * y0 + y1 * y1) / np.where(crossing, 2.0 * total, 1.0),
        0.5 * total,
    )
    return float(seg.sum()) / (n * n)


def grid_si(a):
    """(si, sd, max_violation) of the checkerboard of ``a``, component 1."""
    steps = np.diff(np.cumsum(a, axis=1), axis=0)
    if steps.size == 0:
        return True, True, 0.0
    return bool(steps.max() <= 1e-9), bool(-steps.min() <= 1e-9), max(float(steps.max()), 0.0)


def grid_diagonal_sobolev(a):
    """2 * integral of C(u, u) for the checkerboard of ``a``.

    On cell k the diagonal section is the bilinear interpolant of four
    corner values with equal weights f, so its cell integral is
    P[k,k]/3 + (P[k+1,k] + P[k,k+1])/6 + P[k+1,k+1]/3.
    """
    n = a.shape[0]
    p = corners(a)
    k = np.arange(n)
    cell = p[k, k] / 3 + (p[k + 1, k] + p[k, k + 1]) / 6 + p[k + 1, k + 1] / 3
    return 2.0 * float(cell.sum()) / (n * n)


def grid_sample_check(a, pairs):
    """Support and coarse chi-square check of checkerboard samples."""
    n = a.shape[0]
    pairs = np.asarray(pairs, dtype=float)
    expect(pairs.ndim == 2 and pairs.shape[1] == 2, f"sample shape {pairs.shape}")
    u, v = pairs[:, 0], pairs[:, 1]
    expect(np.all((u >= 0) & (u <= 1) & (v >= 0) & (v <= 1)), "sample outside the unit square")
    k = np.minimum((u * n).astype(int), n - 1)
    m = np.minimum((v * n).astype(int), n - 1)
    # a point on a cell edge may round into the empty neighbour
    edge = np.abs(v * n - np.rint(v * n)) <= 1e-7
    beside = (a[k, np.maximum(m - 1, 0)] > 0) | (a[k, np.minimum(m + 1, n - 1)] > 0)
    inside = (a[k, m] > 0) | (edge & beside)
    expect(bool(np.all(inside)), f"{int(np.sum(~inside))} samples in cells without mass")
    bins = SAMPLE_BINS
    r = n // bins
    prob = a.reshape(bins, r, bins, r).sum(axis=(1, 3)) / n  # entries are n * cell mass
    bi = np.minimum((u * bins).astype(int), bins - 1)
    bj = np.minimum((v * bins).astype(int), bins - 1)
    counts = np.bincount(bi * bins + bj, minlength=bins * bins).reshape(bins, bins)
    expected = prob * len(u)
    live = expected > 0
    chi2 = float(np.sum((counts[live] - expected[live]) ** 2 / expected[live]))
    dof = int(live.sum()) - 1
    expect(np.all(counts[~live] == 0), "samples in blocks without mass")
    expect(chi2 <= dof + 10.0 * np.sqrt(2.0 * dof), f"chi-square {chi2:.1f} on {dof} dof")


def ks_uniform(x, what):
    """Kolmogorov-Smirnov distance to U(0, 1), scaled by sqrt(n)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - x)), float(np.max(x - (grid - 1.0 / n))))
    expect(d * np.sqrt(n) <= KS_LIMIT, f"{what}: KS statistic sqrt(n)*D = {d * np.sqrt(n):.2f}")


# ---------------------------------------------------------------------------
# closed-form references (textbook formulas, not the package's evaluators)
# ---------------------------------------------------------------------------


def clayton_cdf(theta, u, v):
    with np.errstate(divide="ignore", over="ignore"):
        s = np.power(u, -theta) + np.power(v, -theta) - 1.0
        return np.where((u == 0) | (v == 0), 0.0, np.power(s, -1.0 / theta))


def clayton_d1(theta, u, v):
    s = np.power(u, -theta) + np.power(v, -theta) - 1.0
    return np.power(u, -theta - 1.0) * np.power(s, -1.0 / theta - 1.0)


def frank_cdf(theta, u, v):
    num = np.expm1(-theta * u) * np.expm1(-theta * v)
    return -np.log1p(num / np.expm1(-theta)) / theta


def frank_d1(theta, u, v):
    eu, ev = np.expm1(-theta * u), np.expm1(-theta * v)
    return (eu + 1.0) * ev / (np.expm1(-theta) + eu * ev)


def gumbel_ev_cdf(theta, u, v):
    with np.errstate(divide="ignore"):
        x, y = -np.log(u), -np.log(v)
        return np.exp(-np.power(np.power(x, theta) + np.power(y, theta), 1.0 / theta))


def gumbel_ev_d1(theta, u, v):
    x, y = -np.log(u), -np.log(v)
    s = np.power(x, theta) + np.power(y, theta)
    c = np.exp(-np.power(s, 1.0 / theta))
    return c * np.power(s, 1.0 / theta - 1.0) * np.power(x, theta - 1.0) / u


def independence_d1(u, v):
    return np.broadcast_to(v, np.broadcast_shapes(np.shape(u), np.shape(v)))


def discretized(cdf, n):
    """Checkerboard matrix of a closed-form cdf at resolution n."""
    g = np.linspace(0.0, 1.0, n + 1)
    c = cdf(g[:, None], g[None, :])
    return n * np.diff(np.diff(c, axis=0), axis=1)


def midpoint_d1(d1_a, d1_b):
    """Midpoint-rule D1 from two derivative formulas on a square lattice."""
    panels = MIDPOINT_PANELS
    t = (np.arange(panels) + 0.5) / panels
    total = 0.0
    for start in range(0, panels, 256):
        u = t[start : start + 256, None]
        total += float(np.abs(d1_a(u, t[None, :]) - d1_b(u, t[None, :])).sum())
    return total / panels**2


def mesh_sup(cdf_a, cdf_b, signed=False):
    g = np.linspace(0.0, 1.0, MESH_POINTS)
    diff = cdf_a(g[:, None], g[None, :]) - cdf_b(g[:, None], g[None, :])
    return float(np.max(diff if signed else np.abs(diff)))


def section_second_difference(cdf):
    """Largest second difference of u -> C(u, v) on the certification lattice."""
    u = np.linspace(0.0, 1.0, MESH_POINTS)
    v = np.linspace(0.0, 1.0, SI_V_POINTS)
    c = cdf(u[:, None], v[None, :])
    return float(np.max(c[:-2] + c[2:] - 2.0 * c[1:-1]))
