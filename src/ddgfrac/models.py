"""Semi-discrete right-hand sides for the four problem families.

The state is one (m, n) array, a row per physical field (``_LAYOUT``),
each element-major: ``diffusion``, ``convection_diffusion`` and ``nls`` hold
(u) and ``coupled_nls`` holds (u1, u2).  The rows are real for the first two
families and complex for the Schrodinger ones, so the right-hand side, the
norms, the errors, the row names and the snapshot files act on each field
directly.  As in the paper's coupled system and its manufactured tests,
every field shares one fractional coefficient, one forcing and one lift,
and two matrices couple the fields and their densities.  One right-hand
side serves every family, in the state's own arithmetic.  E stays real:
each E path maps real columns (``E_columns``), and only ``apply_E`` turns
rows into columns, a complex row as the float columns of its (re, im) pairs;
the unfolded dense E on a real row also carries the forcing (``E_forced``).

The fractional Laplacian enters every family through the same composition
F c = E c with E = M^-1 B M^-1 A, with no boundary term; alpha = 2 swaps B
for the mass matrix (classical limit).  ``BlockOperator`` applies E from the
blocks of A (block tridiagonal) and B (block Toeplitz, through FFTs) without
forming it, so no size cap remains; at alpha = 2 it runs only the DDG stage
at every size, and no dense E is formed.  For alpha < 2 below
``MATRIX_FREE_MIN_DOF`` DOFs per field, E is dense; it is centrosymmetric (a
uniform mesh, a symmetric nodal basis, a two-sided integral), so only its
top half is fused, and from ``FOLD_MIN_DOF`` on E is kept as that folded
half.  The paths agree to round-off.  Nonlinear products are formed at Gauss
points and projected back, and manufactured forcing terms are separable
T(t) h(x) pairs whose spatial profiles are projected once at setup.

The lift is the one Dirichlet path: problems with inhomogeneous data evolve
u - T(t) l(x), l linear in x, which has the zero data E's closure assumes.
The fractional Laplacian annihilates l, so the lift only shifts the forcing
and the arguments of nonlinear and convective terms.  Boundary vectors
added to F c instead lose order under RK4 (stiff time-dependent boundary
forcing): ex2 at alpha = 1.1, N = 5, K = 10-25, same dt, gave L2 errors
5.5e-7 .. 5.9e-8 that way against 4.2e-8 .. 5.9e-10 with the lift.

``make_example`` is the one entry point to the named ``EXAMPLES``.  The six
manufactured ones (ex1-ex4, ex7, ex8) are one ``_MANUFACTURED`` row each,
from which ``_manufactured`` derives eps, the exact solution, the forcing
and the lift; the profile, soliton and collision runs are short branches
with their initial data inline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import numpy.fft     # numpy loads fft and random on first use; importing them
import numpy.random  # here keeps that cost out of the first build_problem
from numpy.polynomial import polynomial as P

from .ddg_spatial import (
    ConvectionFlux,
    DdgOperators,
    FluxParams,
    assemble_q_operator,
    convection_rhs,
    default_flux,
)
from .fracops import (
    FracOperator,
    assemble_frac_operator,
    project_riesz_poly,
)
from .meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    cell_centers_and_points,
    l2_error,
    mass_solve_mat,
    project,
)
from .specfun import gamma_fn, gauss_legendre

# (number of physical fields = state rows, whether they are complex) per family
_LAYOUT = {"diffusion": (1, False), "convection_diffusion": (1, False),
           "nls": (1, True), "coupled_nls": (2, True)}

# Crossover in DOFs per component, used for alpha < 2 only (alpha = 2 always
# applies the BlockOperator DDG stage).  In an erk4_step loop of the whole RHS
# (2-core x86 host, 2 MB L2 per core; N = 1..3; 1, 2 or 4 real rows),
# BlockOperator takes 1.42-1.68x the folded dense time at n = 512, 1.12-1.66x
# at 576-600, and at 608-640 0.90-1.35x (1-2 rows) or 0.57-0.73x (4 rows,
# whose halves leave L2).  576 stays: 608 raised manakov_soliton's peak RSS 8%.
MATRIX_FREE_MIN_DOF = 576

# From here the dense E is applied as its folded half, unfolded at build below:
# in the same sweep plus one complex row, the folded RHS takes 0.33-1.15x the
# unfolded time at n = 352-384 and wins every case from 400 on (0.61-0.99x).
FOLD_MIN_DOF = 400

# RK4's stability radius for a family's spectrum, keyed by is_complex
RK4_RADIUS = {False: 2.6155, True: 2.0 * math.sqrt(2.0)}


@dataclass(frozen=True)
class ForcingProfile:
    """Spatial profile poly(x) + frac_scale * (-lap)^(alpha/2) base(x).

    Carrying the polynomial structure lets the setup project the weakly
    singular fractional part exactly (endpoint Gauss-Jacobi rules) instead
    of hitting the quadrature floor of a plain Legendre rule; a ``poly``
    past ``gauss_legendre``'s point limit raises its ValueError.
    """

    poly: np.ndarray
    frac_scale: float = 0.0
    base: Optional[np.ndarray] = None

    def project_onto(self, mesh, basis, alpha: float) -> np.ndarray:
        n_quad = max(basis.N + 2, (self.poly.size + basis.N) // 2 + 2)
        dofs = project(_polyval(self.poly), mesh, basis, n_quad=n_quad).values
        if self.base is not None and self.frac_scale != 0.0:
            dofs = dofs + self.frac_scale * project_riesz_poly(alpha, self.base, mesh, basis)
        return dofs


@dataclass(frozen=True)
class ProblemSpec:
    """Everything needed to assemble one semi-discrete problem.

    A real family solves u_t = -eps (-lap)^(alpha/2) u - f(u)_x + g; field
    j of a complex family solves

        i (u_j)_t = eps (-lap)^(alpha/2) u_j - sum_k coupling[j][k] u_k
                    - (sum_k nl_coupling[j][k] rho_k) u_j + i g

    with densities rho_k = |u_k|^2.  ``eps`` > 0 (|eps| > 0 for a complex family)
    is shared by every field; ``coupling`` and ``nl_coupling`` (the density
    weights, required by the complex families and rejected by the real ones)
    are fields x fields matrices, kept as read-only float arrays.  ``conv`` is
    given exactly for ``convection_diffusion``.  ``flux=None`` is
    ``default_flux(N)`` at assembly.

    ``ic`` and ``exact`` hold one callable per field, ``n_components`` of
    them (checked), complex valued for the complex families.  ``forcing`` is
    one tuple of separable terms (time_fn, ForcingProfile), g = sum T(t) h(x),
    added to every field.  ``lift`` is one (time_fn, linear poly coeffs) pair
    for problems posed with inhomogeneous Dirichlet data; every evolved field is
    then the field minus T(t) l(x), with zero data.  ``bcs`` is not an
    input: it is derived from ``lift``, one function per field of t giving
    (T(t) l(a), T(t) l(b)), or (0.0, 0.0) without a lift.  The spec is
    frozen: edit it with ``dataclasses.replace``, which runs every check.
    """

    family: str
    alpha: float
    domain: tuple
    K: int
    N: int
    T: float
    flux: Optional[FluxParams] = None
    eps: float = 1.0                 # fractional coefficient
    coupling: Optional[np.ndarray] = None     # fields x fields, linear
    nl_coupling: Optional[np.ndarray] = None  # fields x fields, on densities
    conv: Optional[ConvectionFlux] = None
    ic: Optional[tuple] = None       # per-field callables of x
    forcing: tuple = ()              # (time_fn, ForcingProfile) terms
    exact: Optional[tuple] = None    # per-field callables of (x, t)
    lift: Optional[tuple] = None     # (time_fn, linear poly coeffs)
    cfl_c: Optional[float] = None
    bcs: tuple = field(init=False)   # per-field t -> boundary data, from lift

    def __post_init__(self):
        if self.family not in _LAYOUT:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not 0 < (abs(self.eps) if self.is_complex else self.eps) < np.inf:
            raise ValueError(f"eps must be > 0 (|eps| for a complex family) and finite, "
                             f"got {self.eps}")
        if (self.conv is None) == (self.family == "convection_diffusion"):
            raise ValueError(f"{self.family} {'takes no' if self.conv else 'requires a'} "
                             "convective flux")
        if self.is_complex and self.nl_coupling is None:
            raise ValueError(f"{self.family} requires nl_coupling")
        if not self.is_complex and (self.coupling is not None or self.nl_coupling is not None):
            raise ValueError(f"{self.family} takes no coupling or nl_coupling")
        m, couplings = self.n_components, []
        for name in ("coupling", "nl_coupling"):
            w = None if getattr(self, name) is None else np.array(getattr(self, name), float)
            if w is not None and (w.shape != (m, m) or not np.isfinite(w).all()):
                raise ValueError(f"{name} must be a finite ({m}, {m}) matrix, got {w.tolist()}")
            if w is not None:
                w.flags.writeable = False
            couplings.append(w)
        for name, value in (("ic", self.ic), ("exact", self.exact)):
            if value is not None and len(value) != m:
                raise ValueError(f"{name} must hold one callable per field ({m}), got {len(value)}")
        bc = lambda t: (0.0, 0.0)
        if self.lift is not None:
            (a, b), (f, c) = self.domain, self.lift
            va, vb = float(P.polyval(a, c)), float(P.polyval(b, c))
            bc = lambda t: (f(t) * va, f(t) * vb)
        cfl_c = (0.05 if self.is_complex else 0.1) if self.cfl_c is None else self.cfl_c
        ic = None if self.ic is None else tuple(self.ic)
        for name, value in zip(("eps", "cfl_c", "coupling", "nl_coupling", "ic", "bcs"),
                               (float(self.eps), cfl_c, *couplings, ic, (bc,) * m)):
            object.__setattr__(self, name, value)

    @property
    def n_components(self) -> int:
        """Number of physical fields, one state row each."""
        return _LAYOUT[self.family][0]

    @property
    def is_complex(self) -> bool:
        return _LAYOUT[self.family][1]


@dataclass
class SemiDiscreteProblem:
    """Assembled operators and the method-of-lines right-hand side."""

    spec: ProblemSpec
    mesh: object
    basis: object
    qop: DdgOperators
    E_columns: Callable = field(repr=False)  # E on every column of a real (n, c) array
    forcing: tuple = field(repr=False)     # (time_fns, H: projected profiles)
    c_eps: complex = field(repr=False)     # eps, or i eps for the complex families
    quad_eval: np.ndarray = field(repr=False)  # nodal -> Gauss-point values
    quad_back: np.ndarray = field(repr=False)  # i P: Gauss points -> nodal DOFs
    lift_nodal: Optional[np.ndarray] = field(repr=False, default=None)
    # [E | H^T / eps], (n, n + m), where E is unfolded dense and the rows real
    E_forced: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.mesh.K * self.basis.n_nodes

    @property
    def roles(self) -> tuple:
        """Names of the state rows: u for a single field, else u1, u2."""
        m = self.spec.n_components
        return ("u",) if m == 1 else tuple(f"u{j + 1}" for j in range(m))

    @property
    def E(self):
        """Dense E (unfolded from a folded half), else a scipy LinearOperator."""
        if not isinstance(self.E_columns, BlockOperator):
            return self.E_columns(np.eye(self.n))
        from scipy.sparse.linalg import LinearOperator
        return LinearOperator((self.n, self.n), matvec=self.apply_E, dtype=float,
                              matmat=lambda V: self.apply_E(V.T).T)

    def apply_E(self, X: np.ndarray) -> np.ndarray:
        """E on every row of X, (n,) or (m, n): real rows as the columns X.T,
        complex ones as the float columns of their (re, im) pairs."""
        if not np.iscomplexobj(X):
            return self.E_columns(X.T).T
        V = np.ascontiguousarray(X.T, complex).view(float).reshape(self.n, -1)
        return np.ascontiguousarray(self.E_columns(V)).view(complex).T.reshape(X.shape)

    def stable_dt_cap(self) -> float:
        """Step bound 0.9 r / rho from the stiff part's spectral radius rho.

        rho is |eps| times the spectral radius of E, estimated by 30
        power-iteration steps from a fixed-seed random vector, plus, with a
        convective flux, the advective rate 1.5 max |f'(u0)| (N + 1)^2 / dx
        of the physical initial data (lift added back) at the nodes.  r is
        RK4's stability radius for the family's spectrum (``RK4_RADIUS``):
        E has a real spectrum, so i eps E lies on the imaginary axis, where
        |R(z)| <= 1 up to 2 sqrt(2); convection makes the real families'
        spectrum complex, so they get the largest left half-disc in the
        region, 2.61559 at arg z = 122.7 deg (not the real-axis 2.785),
        rounded down.  The 0.9 covers the power iteration's underestimate
        (0.954-1.003 of the exact radius on the ``configs/`` sizes) and the
        nonlinear and coupling terms rho leaves out.  Runs without a dt
        override step with the smaller of this cap and the CFL step
        c dx^alpha, and ``dt_bound`` in the diagnostics names the one that
        set dt.
        """
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.n)
        for _ in range(30):
            w = self.apply_E(v)
            rho = np.linalg.norm(w)
            v = w / rho
        spec = self.spec
        rho_eff = abs(spec.eps) * rho
        if spec.conv is not None and spec.ic is not None:
            nodes = cell_centers_and_points(self.mesh, self.basis.ref_nodes)
            u0 = self.full_fields(spec.ic[0](nodes).ravel(), 0.0)
            speed = 1.5 * float(np.abs(spec.conv.df(u0)).max())
            rho_eff += speed * (self.basis.N + 1) ** 2 / self.mesh.dx
        return 0.9 * RK4_RADIUS[spec.is_complex] / rho_eff

    def initial_state(self) -> np.ndarray:
        """The state: one row of DOFs per physical field, shape (m, n)."""
        if self.spec.ic is None:
            raise ValueError("problem has no initial data")
        return np.array([project(f, self.mesh, self.basis).values for f in self.spec.ic])

    def full_fields(self, comps: np.ndarray, t: float) -> np.ndarray:
        """Physical fields, adding the boundary lift back when present."""
        if self.lift_nodal is None:
            return comps
        return comps + self.spec.lift[0](t) * self.lift_nodal

    def rhs(self, t: float, comps: np.ndarray) -> np.ndarray:
        """d/dt of the (m, n) state, which is only read, in the state's own
        arithmetic: u_t = c_eps F + i P(f u) + i coupling u + g - f(u)_x, with
        c_eps = eps (real families) or i eps (complex ones), f = nl_coupling
        rho.  The terms are added in this order.  With ``E_forced`` the first
        two real terms are one product, eps [E | H^T / eps] [u; T(t)]."""
        spec = self.spec
        time_fns, H = self.forcing
        full = self.full_fields(comps, t)
        if self.E_forced is not None:
            d = np.dot(self.E_forced, np.concatenate((comps[0], [f(t) for f in time_fns])))[None]
            d *= spec.eps
        else:
            d = self.c_eps * self.apply_E(comps)
            if spec.nl_coupling is not None:
                # f u is formed at quadrature points and L2-projected back (P):
                # keeps Re <u, i P(f u)> = 0 exact and avoids the nodal aliasing
                # of high-degree products
                U = full.reshape(-1, len(self.quad_eval)) @ self.quad_eval
                f = np.dot(spec.nl_coupling, (U * U.conj()).real.reshape(len(comps), -1))
                d += ((f.reshape(U.shape) * U) @ self.quad_back).reshape(d.shape)
            if spec.coupling is not None:
                d += 1j * np.dot(spec.coupling, full)
            # g = sum T_i(t) h_i, shared by every field.  As (1, n) rows, g and
            # the convection term add to one field without numpy's broadcast
            # path, 0.8 us more per add at n = 192
            if time_fns:
                d += np.dot([f(t) for f in time_fns], H)[None]
        if spec.conv is not None:
            # convection_rhs already carries the -d/dx f(u) sign
            u = FieldVector(full[0], self.mesh, self.basis)
            d += convection_rhs(u, spec.conv, spec.bcs[0], t)[None]
        return d

    def field_errors(self, comps: np.ndarray, t: float) -> list:
        """L2 error per physical field of the (m, n) state."""
        if self.spec.exact is None:
            raise ValueError("problem has no exact solution")
        return [l2_error(FieldVector(u, self.mesh, self.basis), lambda x, g=g: g(x, t))
                for u, g in zip(self.full_fields(comps, t), self.spec.exact)]

    def l2_norms_squared(self, comps: np.ndarray, t: float = 0.0) -> list:
        """Discrete squared L2 norm per physical field of the (m, n) state."""
        c = self.full_fields(comps, t).reshape(-1, self.mesh.K, self.basis.n_nodes)
        mass = 0.5 * self.mesh.dx * self.basis.mass
        return (c.conj() @ mass * c).real.sum(axis=(1, 2)).tolist()


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, where numpy's real FFT is fastest: for
    each odd part q = 3^b 5^c, the least power of two 2^a >= n / q."""
    e = range(n.bit_length())
    return min(3**b * 5**c << (-(-n // (3**b * 5**c)) - 1).bit_length() for b in e for c in e)


class BlockOperator:
    """E = M^-1 B M^-1 A on real columns, applied from its blocks, unformed.

    Both stages act along the cell axis of one (n, columns, K) copy of the
    columns.  The DDG stage M^-1 A is block tridiagonal: one (5n, n) product
    by ``stencil`` (``DdgOperators.solved``) gives every cell's terms, the
    boundary cells' from their own blocks and the lower and upper ones added
    one cell over.  The fractional stage M^-1 B is block Toeplitz, applied as
    a circulant of length L = ``fft_len`` = ``_fast_len(2K - 1)``: rfft, one
    n x n product per frequency (``symbol``, (n, n, L // 2 + 1)), irfft.  At
    alpha = 2 only the DDG stage runs.
    """

    def __init__(self, qop: DdgOperators, fop: Optional[FracOperator]):
        mesh, basis = qop.mesh, qop.basis
        self.K, self.n = K, n = mesh.K, basis.n_nodes
        self.stencil, self.symbol = qop.solved.reshape(5 * n, n), None
        self.fft_len = L = _fast_len(2 * K - 1)
        if fop is not None:
            # M^-1 B's blocks and their FFT in long double (80-bit on x86):
            # rounding either to float64 adds to the apply's round-off for
            # alpha -> 1 (small high-frequency symbol, cancelling products)
            T = fop.toeplitz_blocks().astype(np.longdouble)   # offsets 1-K .. K-1
            circ = np.concatenate([T[K - 1:], np.zeros((L - 2 * K + 1, n, n)), T[:K - 1]])
            symbol = np.fft.rfft(mass_solve_mat(mesh, basis, circ), axis=0)
            self.symbol = np.ascontiguousarray(symbol.transpose(1, 2, 0), dtype=complex)

    def __call__(self, V: np.ndarray) -> np.ndarray:
        """E applied to every column of the real V, shape (K*n,) or (K*n, c)."""
        c = np.ascontiguousarray(V.reshape(self.K, self.n, -1).transpose(1, 2, 0))
        return self._frac(self._ddg(c)).transpose(2, 0, 1).reshape(V.shape)

    def _ddg(self, c: np.ndarray) -> np.ndarray:
        G = (self.stencil @ c.reshape(self.n, -1)).reshape(5, -1, self.K)
        q = G[0]
        q[:, 0], q[:, -1] = G[3, :, 0], G[4, :, -1]
        G[1, :, -1] = G[2, :, 0] = 0.0     # else the flat shifts cross rows
        q.reshape(-1)[1:] += G[1].reshape(-1)[:-1]
        q.reshape(-1)[:-1] += G[2].reshape(-1)[1:]
        return q.reshape(c.shape)

    def _frac(self, q: np.ndarray) -> np.ndarray:
        if self.symbol is None:
            return q
        qh = np.fft.rfft(q, n=self.fft_len)         # (n, rows, L // 2 + 1)
        ph = (self.symbol[:, :, None] * qh[None]).sum(axis=1)
        return np.fft.irfft(ph, n=self.fft_len)[..., :self.K]


def _folded_E(top: np.ndarray, n: int) -> Callable:
    """E on every real column from its top h = ceil(n / 2) rows: as J E J = E
    (J reverses the DOFs), E u is P s + Q d on top and, reversed, P s - Q d
    below, with s, d = u1 +- J u2 (an odd n's middle DOF only in s) and the
    h x h halves P, Q = (E11 +- E12 J) / 2."""
    h = len(top)
    mirror = np.pad(top[:, :h - 1:-1], ((0, 0), (0, 2 * h - n)))   # E12 J
    P, Q = 0.5 * (top[:, :h] + mirror), 0.5 * (top[:, :h] - mirror)

    def columns(V):
        ps, qd = P @ (V[:h] + V[::-1][:h]), Q @ (V[:h] - V[::-1][:h])
        return np.concatenate([ps + qd, (ps - qd)[:n - h][::-1]])
    return columns


def build_problem(spec: ProblemSpec) -> SemiDiscreteProblem:
    """Assemble mesh, basis, DDG and fractional operators, and forcing DOFs.

    ``E_columns``: for alpha < 2 below ``MATRIX_FREE_MIN_DOF`` DOFs per field,
    E's top half is fused from M^-1 B and the blocks of M^-1 A (``compose``),
    unfolded into E @ V below ``FOLD_MIN_DOF`` and folded (``_folded_E``) from
    it; from there on, and at alpha = 2 at every size, a ``BlockOperator``.
    Unfolded E on real rows is the first n columns of one (n, n + m) array
    ``E_forced`` = [E | H^T / eps], whose last m columns are the forcing
    profiles H, so ``rhs`` forms eps E u + g as one product; ``E_columns``
    and ``E`` read the first n columns as a view.
    """
    a, b = spec.domain
    mesh = build_mesh(a, b, spec.K)
    basis = build_basis(spec.N)
    qop = assemble_q_operator(mesh, basis, spec.flux or default_flux(spec.N))
    fop = None if spec.alpha == 2.0 else assemble_frac_operator(mesh, basis, spec.alpha)

    n, m, E_forced = mesh.K * basis.n_nodes, len(spec.forcing), None
    if fop is not None and n < MATRIX_FREE_MIN_DOF:
        K, p, h = mesh.K, basis.n_nodes, (n + 1) // 2
        T = mass_solve_mat(mesh, basis, fop.toeplitz_blocks())
        k, i, l, j = np.ogrid[:(K + 1) // 2, :p, :K, :p]   # M^-1 B's top cell rows
        top = qop.compose(T[k - l + K - 1, i, j].reshape(-1, n))[:h]
        if n < FOLD_MIN_DOF:
            # real rows carry the forcing as E's last m columns, H^T / eps
            EH = np.empty((n, n if spec.is_complex else n + m))
            E = EH[:, :n]
            E[:h], E[h:] = top, top[:n - h, ::-1][::-1]    # J E J = E
            E_columns = lambda V: E @ V
            E_forced = None if spec.is_complex else EH
        else:
            E_columns = _folded_E(top, n)
    else:
        E_columns = BlockOperator(qop, fop)

    forcing = (tuple(f for f, _h in spec.forcing),
               np.array([h.project_onto(mesh, basis, spec.alpha) for _f, h in spec.forcing],
                        dtype=complex if spec.is_complex else float).reshape(m, n))
    if E_forced is not None:
        E_forced[:, n:] = forcing[1].T / spec.eps

    lift_nodal = None
    if spec.lift is not None:
        nodes = cell_centers_and_points(mesh, basis.ref_nodes)
        lift_nodal = P.polyval(nodes, spec.lift[1]).ravel()

    # enough points for exact projection of cubic products of the fields
    t, w = gauss_legendre(2 * basis.N + 3)
    L = basis.eval_matrix(t)
    back = (w[:, None] * L) @ basis.mass_inv.T

    return SemiDiscreteProblem(spec=spec, mesh=mesh, basis=basis, qop=qop,
                               E_columns=E_columns, forcing=forcing,
                               c_eps=1j * spec.eps if spec.is_complex else spec.eps,
                               quad_eval=L.T, quad_back=1j * back, lift_nodal=lift_nodal,
                               E_forced=E_forced)


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------

def _polyval(coeffs):
    return lambda x: P.polyval(np.asarray(x, dtype=float), coeffs)


_BURGERS = ConvectionFlux(f=lambda u: 0.5 * u * u, df=lambda u: u)
_V0, _D = 0.4, 10.0  # speed and initial offset of the solitons of _manakov_exact

# Manufactured examples u_j = T(t) u0(x) on every field j, one row each:
# family, domain, default T, u0, the residual coefficients (c1, c3) and the
# family's own terms.  The residual R = c1 u0 + c3 u0^3 collects what the
# equation makes of T u0 besides the fractional term: u_t alone for the
# real families; for ex7 also |u|^2 u, for ex8 also the coupling u1 + u2
# and the total density (so 3 u0 + 2 u0^3).
_MANUFACTURED = {
    "ex1": ("diffusion", (-1.0, 1.0), 0.5, P.polypow([-1.0, 0.0, 1.0], 4), (1.0, 0.0), {}),
    "ex2": ("diffusion", (0.0, 1.0), 0.5, P.polyfromroots([0.0] * 11), (1.0, 0.0), {}),
    "ex3": ("convection_diffusion", (-1.0, 1.0), 1.0,
            P.polypow([-1.0, 0.0, 1.0], 4) / 100.0, (1.0, 0.0), {"conv": _BURGERS}),
    "ex4": ("convection_diffusion", (0.0, 1.0), 1.0,
            P.polyfromroots([0.0] * 4) / 100.0, (1.0, 0.0), {"conv": _BURGERS}),
    "ex7": ("nls", (-1.0, 1.0), 0.5, P.polypow([-1.0, 0.0, 1.0], 5), (1.0, 1.0),
            {"nl_coupling": ((1.0,),)}),
    "ex8": ("coupled_nls", (0.0, 1.0), 0.5, P.polyfromroots([0.0] * 5), (3.0, 2.0),
            {"nl_coupling": np.ones((2, 2)), "coupling": np.ones((2, 2))}),
}

EXAMPLES = (*_MANUFACTURED, "ex5", "ex6", "nls_soliton", "nls_two_soliton",
            "coupled_strong", "manakov")
# the examples that read make_example's cross_coupling
CROSS_COUPLED = ("coupled_strong", "manakov")

# time factor T(t) of the manufactured solutions, and T'(t)
_TIME_REAL = (lambda t: math.exp(-t), lambda t: -math.exp(-t))
_TIME_OSC = (lambda t: cmath.exp(-1j * t), lambda t: -1j * cmath.exp(-1j * t))


def _manufactured(family: str, domain: tuple, u0: np.ndarray, residual: tuple,
                  alpha: float) -> dict:
    """eps, exact solution, forcing, IC and lift of u_j = T(t) u0(x).

    eps = Gamma(d + 1 - alpha) / Gamma(d + 1) with d = deg u0, halved for
    the coupled system.  T' = -T (real) or -i T (complex) turns the
    residual of T u0 into the separable forcing T'(t) (R(u0) - eps
    (-lap)^(alpha/2) u0), plus T^2 u0 u0' for the Burgers term.  Data that
    exceeds Horner's rounding bound 2 d eps_mach sum |c_k| |x|^k at an end
    is lifted by its linear interpolant.
    """
    m, oscillatory = _LAYOUT[family]
    tf, tf_prime = _TIME_OSC if oscillatory else _TIME_REAL
    d = u0.size - 1
    eps = gamma_fn(d + 1.0 - alpha) / gamma_fn(d + 1.0)
    if family == "coupled_nls":
        eps /= 2.0
    u0_fn = _polyval(u0)
    exact = (lambda x, t: tf(t) * u0_fn(x),) * m

    c1, c3 = residual
    forcing = ((tf_prime, ForcingProfile(P.polyadd(c1 * u0, c3 * P.polypow(u0, 3)), -eps, u0)),)
    if family == "convection_diffusion":
        forcing += ((lambda t: math.exp(-2.0 * t), ForcingProfile(P.polymul(u0, P.polyder(u0)))),)

    a, b = domain
    ends = P.polyval(np.array(domain, dtype=float), u0)
    ends[np.abs(ends) <= 2 * d * np.finfo(float).eps * P.polyval(np.abs(domain), np.abs(u0))] = 0.0
    va, vb = map(float, ends)
    ic, lift = [lambda x: exact[0](x, 0.0)] * m, None
    if va != 0.0 or vb != 0.0:
        lift_c = np.array([(va * b - vb * a) / (b - a), (vb - va) / (b - a)])
        tilde = P.polysub(u0, lift_c)
        ic = [lambda x: tf(0.0) * P.polyval(np.asarray(x, float), tilde)] * m
        lift = (tf, lift_c)
        forcing += ((lambda t: -tf_prime(t), ForcingProfile(lift_c)),)
    return dict(family=family, domain=domain, eps=eps, ic=ic, lift=lift,
                forcing=forcing, exact=exact)


def _manakov_exact() -> tuple:
    """Two unit-amplitude single solitons of the coupled cubic system moving
    toward each other, one per field (alpha = 2, cross coupling 1).  They
    solve the system up to the overlap of their tails, so this is a
    reference only before they collide near t = 12.5."""
    def u1(x, t):
        amp = math.sqrt(2.0) / np.cosh(x - 2.0 * _V0 * t + _D)
        return amp * np.exp(1j * (_V0 * x + (1.0 - _V0**2) * t))

    def u2(x, t):
        # left-moving partner: momentum -v0 pairs with center D - 2 v0 t
        amp = math.sqrt(2.0) / np.cosh(x + 2.0 * _V0 * t - _D)
        return amp * np.exp(1j * (-_V0 * x + (1.0 - _V0**2) * t))

    return u1, u2


def _step_ramp(x):
    x = np.asarray(x, dtype=float)
    return np.where((x >= -1) & (x < 0), x + 1.0,
                    np.where((x >= 0) & (x <= 1), 2.0 * x, 0.0))


def _sech_wave(x, c, x0):
    """sech(x - x0) carrying the phase exp(i c (x - x0) / 2)."""
    x = np.asarray(x, dtype=float)
    return np.exp(0.5j * c * (x - x0)) * (1.0 / np.cosh(x - x0))


def make_example(name: str, alpha: float, K: int, N: int,
                 flux: Optional[FluxParams] = None,
                 T: Optional[float] = None,
                 cfl_c: Optional[float] = None,
                 cross_coupling: Optional[float] = None) -> ProblemSpec:
    """One of the named ``EXAMPLES`` as a full ProblemSpec.

    ``cross_coupling`` (default 1) is the one coefficient that couples the
    two fields: the linear w2 of ``coupled_strong`` (coupling matrix
    [[1, w2], [w2, 1]]) and the nonlinear beta of ``manakov`` (the fields
    feel |u1|^2 + beta |u2|^2 and beta |u1|^2 + |u2|^2).
    """
    def spec(T_default, **terms):
        return ProblemSpec(alpha=alpha, K=K, N=N, T=T_default if T is None else T,
                           flux=flux, cfl_c=cfl_c, **terms)

    if name in _MANUFACTURED:
        family, domain, T_default, u0, residual, terms = _MANUFACTURED[name]
        return spec(T_default, **_manufactured(family, domain, u0, residual, alpha),
                    **terms)
    if name in ("ex5", "ex6"):
        ic = _step_ramp if name == "ex5" else (
            lambda x: np.exp(-2.0 * np.asarray(x, dtype=float) ** 2))
        return spec(3.0, family="convection_diffusion", domain=(-10.0, 10.0),
                    conv=_BURGERS, ic=[ic])
    if name == "nls_soliton":
        return spec(1.0, family="nls", domain=(-25.0, 25.0), eps=2.0,
                    nl_coupling=((2.0,),), ic=[lambda x: _sech_wave(x, 4.0, 0.0)])
    if name == "nls_two_soliton":
        return spec(1.0, family="nls", domain=(-25.0, 25.0), nl_coupling=((2.0,),),
                    ic=[lambda x: _sech_wave(x, 4.0, -10.0) + _sech_wave(x, -4.0, 10.0)])
    beta = 1.0 if cross_coupling is None else cross_coupling
    cross = ((1.0, beta), (beta, 1.0))
    pair = [lambda x, g=g: g(np.asarray(x, dtype=float), 0.0)
            for g in _manakov_exact()]
    if name == "coupled_strong":
        return spec(20.0, family="coupled_nls", domain=(-40.0, 40.0),
                    coupling=cross, nl_coupling=np.ones((2, 2)), ic=pair)
    if name == "manakov":
        return spec(5.0, family="coupled_nls", domain=(-40.0, 40.0),
                    nl_coupling=cross, ic=pair,
                    # valid before the collision only; the bench's T = 5 check reads it
                    exact=_manakov_exact() if beta == 1.0 and alpha == 2.0 else None)
    raise KeyError(f"unknown example {name!r}")
