"""Metamorphic identities of the half-grid pipeline.

Known transformations of the input have exact, known effects on every
output, so each identity checks the index conventions of the stored
half grid (theta_1 <= 0 rows, zero frequency last) without a reference
implementation:

* reversing the time axis negates theta_3, so it reverses grid axis 2
  of the mirrored estimate and reverses the time axis of chi_hat;
* x -> a x scales the spectral eigenvalues by a^2 and chi_hat by a and
  leaves every factor-count estimate of the scan unchanged, for a large
  and a tiny a;
* permuting the series gives P Sigma P^T and the permuted chi_hat;
* swapping S1 and S2, with the bandwidths and truncations swapped,
  swaps grid axes 0 and 1 of the mirrored estimate and the two spatial
  axes of chi_hat.

Each holds to rounding, bounded at 1e-14 of the largest entry.  The
Gram (dual) route commutes with the same transformations: its
eigenvalues and projectors on a transformed panel equal the
transformed ones of the standard route on the original panel, to the
rounding that separates the two routes.
"""

import numpy as np
import pytest

from stfactor import (
    LatticeField,
    SimConfig,
    demean,
    eigendecompose_all,
    eigensystem_from_field,
    estimate_common_component,
    estimate_spectral_density,
    simulate_field,
    stability_scan,
)
from oracles import full_rows, mirror, projector_stack

RTOL = 1e-14
# a tiny scale puts every eigenvalue far below any absolute threshold
SCALES = [7.5, 1e-7]

# (n, dims, bandwidths, truncation); one factor, model_b
CASES = {
    "b1_zero": (4, (1, 6, 16), (0, 2, 3), (0, 1, 2)),  # one first-axis row of the grid
    "odd": (5, (7, 5, 9), (2, 2, 3), (2, 1, 3)),  # odd n and odd extents
    "even": (6, (8, 6, 12), (3, 2, 4), (1, 2, 4)),
    "gram": (20, (2, 3, 3), (1, 1, 2), (1, 1, 1)),  # more series than lattice points
}
# the scan's penalty needs every bandwidth >= 2
SCAN_CASES = ["odd", "even"]


def case_field(name):
    n, dims, bw, trunc = CASES[name]
    x, _ = simulate_field(SimConfig(model="model_b", n=n, dims=dims, q=1, seed=5))
    return demean(x), bw, trunc


def transformed(field, values):
    return LatticeField(values, demeaned=True)


def assert_close(actual, expected):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= RTOL * np.abs(expected).max()


def full_grid(field, bw):
    """Mirrored estimate with the grid axes unflattened, (F1, F2, F3, n, n)."""
    est = estimate_spectral_density(field, "ep", bw)
    return mirror(est.matrices).reshape(est.grid.shape + (field.n, field.n))


def chi_hat(field, bw, trunc):
    return estimate_common_component(field, 1, "ep", bw, trunc).chi


@pytest.mark.parametrize("case", CASES)
class TestTimeReversal:
    def test_reverses_grid_axis_2(self, case):
        field, bw, _ = case_field(case)
        flipped = transformed(field, field.values[..., ::-1])
        assert_close(full_grid(flipped, bw), full_grid(field, bw)[:, :, ::-1])

    def test_reverses_chi(self, case):
        field, bw, trunc = case_field(case)
        flipped = transformed(field, field.values[..., ::-1])
        assert_close(chi_hat(flipped, bw, trunc), chi_hat(field, bw, trunc)[..., ::-1])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case", CASES)
class TestScaling:
    def test_eigenvalues_scale_by_square(self, case, scale):
        field, bw, _ = case_field(case)
        scaled = transformed(field, scale * field.values)
        base = eigensystem_from_field(field, "ep", bw).eigenvalues
        assert_close(eigensystem_from_field(scaled, "ep", bw).eigenvalues, scale**2 * base)

    def test_chi_scales(self, case, scale):
        field, bw, trunc = case_field(case)
        scaled = transformed(field, scale * field.values)
        assert_close(chi_hat(scaled, bw, trunc), scale * chi_hat(field, bw, trunc))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case", SCAN_CASES)
def test_scaling_leaves_qhat_table(case, scale):
    field, bw, _ = case_field(case)
    scaled = transformed(field, scale * field.values)
    c_grid = np.arange(0, 301) / 50.0
    sizes = list(range(3, field.n))
    scans = [stability_scan(f, 2, c_grid, subsample_sizes=sizes, bw=bw, seed=3, c_manual=0.0)
             for f in (field, scaled)]
    assert np.array_equal(scans[0].qhat_table, scans[1].qhat_table)


@pytest.mark.parametrize("case", CASES)
class TestPermutation:
    def test_congruent_estimate(self, case):
        field, bw, _ = case_field(case)
        perm = np.random.default_rng(9).permutation(field.n)
        permuted = transformed(field, field.values[perm])
        base = estimate_spectral_density(field, "ep", bw).matrices
        assert_close(estimate_spectral_density(permuted, "ep", bw).matrices,
                     base[:, perm][:, :, perm])

    def test_permutes_chi(self, case):
        field, bw, trunc = case_field(case)
        perm = np.random.default_rng(9).permutation(field.n)
        permuted = transformed(field, field.values[perm])
        assert_close(chi_hat(permuted, bw, trunc), chi_hat(field, bw, trunc)[perm])


def swapped(triple):
    return (triple[1], triple[0], triple[2])


@pytest.mark.parametrize("case", CASES)
class TestSpatialSwap:
    def test_swaps_grid_axes(self, case):
        field, bw, _ = case_field(case)
        swap = transformed(field, field.values.transpose(0, 2, 1, 3))
        assert_close(full_grid(swap, swapped(bw)), full_grid(field, bw).transpose(1, 0, 2, 3, 4))

    def test_swaps_chi_axes(self, case):
        field, bw, trunc = case_field(case)
        swap = transformed(field, field.values.transpose(0, 2, 1, 3))
        assert_close(chi_hat(swap, swapped(bw), swapped(trunc)),
                     chi_hat(field, bw, trunc).transpose(0, 2, 1, 3))


ORDER = np.arange(CASES["gram"][0])
PERM = np.random.default_rng(9).permutation(ORDER)
# (values map, bandwidth map, map of a full-grid array with its grid axes unflattened,
#  eigenvalue factor, series order)
GRAM_TRANSFORMS = {
    "identity": (lambda v: v, lambda b: b, lambda a: a, 1.0, ORDER),
    "time_reversal": (lambda v: v[..., ::-1], lambda b: b, lambda a: a[:, :, ::-1], 1.0, ORDER),
    "spatial_swap": (lambda v: v.transpose(0, 2, 1, 3), swapped, lambda a: a.swapaxes(0, 1),
                     1.0, ORDER),
    "scaling": (lambda v: 7.5 * v, lambda b: b, lambda a: a, 7.5**2, ORDER),
    "permutation": (lambda v: v[PERM], lambda b: b, lambda a: a, 1.0, PERM),
}


@pytest.mark.parametrize("name", GRAM_TRANSFORMS)
def test_gram_route_commutes_with_standard_route(name):
    """Gram route after a transformation = the transformation after the standard route."""
    field, bw, _ = case_field("gram")
    values_map, bw_map, grid_map, factor, order = GRAM_TRANSFORMS[name]
    moved = transformed(field, values_map(field.values))
    assert moved.lattice_size < moved.n  # the Gram route
    gram = eigensystem_from_field(moved, "ep", bw_map(bw), q_keep=1)
    std = eigendecompose_all(estimate_spectral_density(field, "ep", bw), 1)

    def on_grid(system, values):
        return values.reshape(system.grid.shape + values.shape[1:])

    vals = factor * grid_map(on_grid(std, mirror(std.eigenvalues)))
    proj = grid_map(on_grid(std, projector_stack(full_rows(std, 1))))[..., order, :][..., order]
    # the windowed estimate may have negative eigenvalues: compare as sets
    gram_vals = on_grid(gram, mirror(gram.eigenvalues))
    assert np.abs(np.sort(gram_vals) - np.sort(vals)).max() <= 1e-12 * np.abs(vals).max()
    gram_proj = on_grid(gram, projector_stack(full_rows(gram, 1)))
    assert np.abs(gram_proj - proj).max() <= 1e-10
