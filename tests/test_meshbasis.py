"""Mesh, nodal basis, projection, evaluation and norms."""

import math

import numpy as np
import pytest

from ddgfrac.meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    eval_field,
    global_mass_matrix,
    l2_error,
    l2_norm,
    project,
)

# fine-quadrature oracle (GL(40) per cell) for the projection error of
# (x^2-1)^4 with N=4, K=16 on [-1,1]
PROJ_ERR_BUMP8 = 5.083103871491959e-07


def test_build_mesh_basics():
    mesh = build_mesh(-1.0, 1.0, 2)
    assert mesh.boundaries == pytest.approx([-1.0, 0.0, 1.0])
    assert build_mesh(0.0, 1.0, 10).dx == pytest.approx(0.1)
    soliton = build_mesh(-25.0, 25.0, 200)
    assert soliton.boundaries.size == 201
    assert soliton.dx == pytest.approx(0.25)


def test_build_mesh_errors():
    with pytest.raises(ValueError):
        build_mesh(1.0, -1.0, 4)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 0)


def test_basis_degree_zero():
    b = build_basis(0)
    assert b.mass.ravel() == pytest.approx([2.0])
    assert b.diff.ravel() == pytest.approx([0.0])


def test_basis_linear():
    b = build_basis(1)
    assert b.ref_nodes == pytest.approx([-1.0, 1.0])
    u = np.array([3.0, 7.0])
    assert b.diff @ u == pytest.approx([2.0, 2.0])  # slope (u+ - u-)/2


def test_basis_differentiation_quartic():
    b = build_basis(4)
    x4 = b.ref_nodes**4
    assert b.diff @ x4 == pytest.approx(4.0 * b.ref_nodes**3, abs=1e-12)


def test_basis_mass_spd_and_diff_nullspace():
    for N in range(9):
        b = build_basis(N)
        eigs = np.linalg.eigvalsh(b.mass)
        assert eigs.min() > 0
        assert np.abs(b.diff.sum(axis=1)).max() <= 1e-13


def test_basis_traces_exact_for_polynomials():
    for N in (1, 3, 5):
        b = build_basis(N)
        coeffs = np.arange(1.0, N + 2.0)
        vals = np.polynomial.polynomial.polyval(b.ref_nodes, coeffs)
        d1 = np.polynomial.polynomial.polyval(-1.0, np.polynomial.polynomial.polyder(coeffs))
        d2 = np.polynomial.polynomial.polyval(1.0, np.polynomial.polynomial.polyder(coeffs, 2))
        assert b.trace_left[1] @ vals == pytest.approx(d1, rel=1e-12, abs=1e-12)
        assert b.trace_right[2] @ vals == pytest.approx(d2, rel=1e-12, abs=1e-12)


def test_basis_range_error():
    with pytest.raises(ValueError):
        build_basis(9)
    with pytest.raises(ValueError):
        build_basis(-1)


def test_project_zero_and_linear():
    mesh, basis = build_mesh(0.0, 2.0, 5), build_basis(2)
    z = project(lambda x: 0.0 * x, mesh, basis)
    assert np.abs(z.values).max() == 0.0
    u = project(lambda x: x, mesh, basis)
    from ddgfrac.meshbasis import cell_centers_and_points

    nodes = cell_centers_and_points(mesh, basis.ref_nodes)
    assert u.by_cell == pytest.approx(nodes, abs=1e-13)


def test_projection_error_oracle():
    mesh, basis = build_mesh(-1.0, 1.0, 16), build_basis(4)
    u = project(lambda x: (x**2 - 1.0) ** 4, mesh, basis)
    err = l2_error(u, lambda x: (x**2 - 1.0) ** 4)
    assert err == pytest.approx(PROJ_ERR_BUMP8, rel=1e-5)


def test_projection_idempotent():
    mesh, basis = build_mesh(-1.0, 1.0, 8), build_basis(3)
    u = project(lambda x: np.sin(2.0 * x) + x**2, mesh, basis)
    again = project(lambda x: eval_field(u, x.ravel()).reshape(x.shape), mesh, basis)
    assert again.values == pytest.approx(u.values, abs=1e-12)


def test_eval_field_constant_and_quadratic():
    mesh, basis = build_mesh(-1.0, 1.0, 4), build_basis(2)
    c = project(lambda x: 0.0 * x + 3.25, mesh, basis)
    assert eval_field(c, [-0.73, 0.0, 0.9]) == pytest.approx([3.25] * 3, abs=1e-13)
    q = project(lambda x: x**2, mesh, basis)
    assert eval_field(q, [0.3])[0] == pytest.approx(0.09, abs=1e-14)


def test_eval_field_matches_direct_lagrange():
    rng = np.random.default_rng(11)
    mesh, basis = build_mesh(0.0, 1.0, 6), build_basis(4)
    u = FieldVector(rng.standard_normal(6 * 5), mesh, basis)
    cheb = np.cos(np.linspace(0.1, 3.0, 9))  # interior points of each cell
    cells = np.repeat(np.arange(6), cheb.size)
    pts = mesh.boundaries[cells] + 0.5 * mesh.dx * (np.tile(cheb, 6) * 0.98 + 1.0)
    got = eval_field(u, pts)   # all cells in one call
    # direct Lagrange product formula, cell by cell
    t = 2.0 * (pts - mesh.boundaries[cells]) / mesh.dx - 1.0
    want = np.zeros_like(pts)
    for i, ti in enumerate(basis.ref_nodes):
        li = np.ones_like(t)
        for j, tj in enumerate(basis.ref_nodes):
            if j != i:
                li *= (t - tj) / (ti - tj)
        want += u.by_cell[cells, i] * li
    assert got == pytest.approx(want, abs=1e-13)


def test_eval_field_domain_error_and_interface_ownership():
    mesh, basis = build_mesh(0.0, 1.0, 4), build_basis(1)
    vals = np.zeros(8)
    vals[:2] = [0.0, 1.0]    # cell 0 rises to 1 at x=0.25
    vals[2:4] = [5.0, 5.0]   # cell 1 constant 5
    u = FieldVector(vals, mesh, basis)
    # interior boundary evaluates the left cell
    assert eval_field(u, [0.25])[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        eval_field(u, [1.0000001])


def test_l2_error_basics():
    mesh, basis = build_mesh(0.0, 1.0, 5), build_basis(2)
    u = project(lambda x: x**2, mesh, basis)
    assert l2_error(u, lambda x: x**2) <= 1e-13
    zero = FieldVector(np.zeros(15), mesh, basis)
    assert l2_error(zero, lambda x: np.ones_like(x)) == pytest.approx(1.0, rel=1e-13)


def test_project_and_l2_error_of_a_complex_function():
    # both act on the real and imaginary parts; l2_error combines them as
    # sqrt(err_re^2 + err_im^2)
    mesh, basis = build_mesh(-1.0, 1.0, 6), build_basis(2)
    re, im = (lambda x: np.cos(3.0 * x)), (lambda x: x**3 - x)
    u = project(lambda x: re(x) + 1j * im(x), mesh, basis)
    u_re, u_im = project(re, mesh, basis), project(im, mesh, basis)
    assert u.values.dtype == complex
    assert u.values.real == pytest.approx(u_re.values, rel=1e-14, abs=1e-15)
    assert u.values.imag == pytest.approx(u_im.values, rel=1e-14, abs=1e-15)
    g_re, g_im = np.exp, np.sin
    err = l2_error(u, lambda x: g_re(x) + 1j * g_im(x))
    want = math.hypot(l2_error(u_re, g_re), l2_error(u_im, g_im))
    assert want > 0.1 and err == pytest.approx(want, rel=1e-13)


def test_parseval_consistency():
    rng = np.random.default_rng(5)
    mesh, basis = build_mesh(-2.0, 1.0, 7), build_basis(3)
    u = FieldVector(rng.standard_normal(28), mesh, basis)
    via_quad = l2_error(u, lambda x: 0.0 * x)
    M = global_mass_matrix(mesh, basis)
    via_mass = math.sqrt(u.values @ M @ u.values)
    assert via_quad == pytest.approx(via_mass, rel=1e-12)
    assert l2_norm(u) == pytest.approx(via_mass, rel=1e-12)


def test_field_tag_checks():
    mesh, basis = build_mesh(0.0, 1.0, 4), build_basis(1)
    FieldVector(np.zeros(8), mesh, basis)
    with pytest.raises(ValueError):
        FieldVector(np.zeros(7), mesh, basis)
