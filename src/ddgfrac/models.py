"""Semi-discrete right-hand sides for the four problem families.

The state holds one row per physical field (``_LAYOUT``), each
element-major: ``diffusion``, ``convection_diffusion`` and ``nls`` hold (u)
and ``coupled_nls`` holds (u1, u2).  The rows are real for the first two
families and complex for the Schrodinger ones, so the right-hand side, the
norms, the errors, the row names and the snapshot files act on each field
directly.  As in the paper's coupled system and its manufactured tests,
every field shares one fractional and one nonlinear coefficient, one
forcing and one lift.  E stays real: a complex block goes through it as
its real rows stacked over its imaginary rows, so E is never copied to
complex.

The fractional Laplacian enters every family through the same composition
F c = E c with E = M^-1 B M^-1 A, with no boundary term; alpha = 2 swaps B
for the mass matrix (classical limit).  ``BlockOperator`` applies E from the
blocks of A (block tridiagonal) and B (block Toeplitz, through FFTs)
without forming it, so no size cap remains; at alpha = 2 it runs only the
DDG stage at every size, and no dense E is formed.  For alpha < 2, E is
fused into one dense matrix below ``MATRIX_FREE_MIN_DOF`` DOFs per field.
Both paths agree to round-off.  Nonlinear products are formed at Gauss
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
from numpy.polynomial import polynomial as P
from scipy.sparse.linalg import LinearOperator

from .ddg_spatial import (
    BoundarySpec,
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
FAMILIES = tuple(_LAYOUT)

# Crossover in DOFs per component for one apply of E, used for alpha < 2
# only (alpha = 2 always applies the BlockOperator DDG stage).  Measured on
# a 2-core x86 host (numpy 2.4, OpenBLAS) over N = 1..3, alpha in
# {1.1, 1.6, 2} and 1, 2 or 4 components: the dense matrix wins at n = 512
# (by up to 2x for alpha < 2), n = 600 is a tie, and BlockOperator wins
# every case from n = 768 on (1.2-7.7x; 2.2-5.6x at n = 1024).
MATRIX_FREE_MIN_DOF = 768


@dataclass(frozen=True)
class ForcingProfile:
    """Spatial profile poly(x) + frac_scale * (-lap)^(alpha/2) base(x).

    Carrying the polynomial structure lets the setup project the weakly
    singular fractional part exactly (endpoint Gauss-Jacobi rules) instead
    of hitting the quadrature floor of a plain Legendre rule.
    """

    poly: np.ndarray
    frac_scale: float = 0.0
    base: Optional[np.ndarray] = None

    def project_onto(self, mesh, basis, alpha: float) -> np.ndarray:
        n_quad = min(max(basis.N + 2, (self.poly.size + basis.N) // 2 + 2), 64)
        dofs = project(_polyval(self.poly), mesh, basis, n_quad=n_quad).values
        if self.base is not None and self.frac_scale != 0.0:
            dofs = dofs + self.frac_scale * project_riesz_poly(alpha, self.base, mesh, basis)
        return dofs


@dataclass
class ProblemSpec:
    """Everything needed to assemble one semi-discrete problem.

    A real family solves u_t = -eps (-lap)^(alpha/2) u - f(u)_x + g; field
    j of a complex family solves

        i (u_j)_t = eps (-lap)^(alpha/2) u_j - sum_k coupling[j][k] u_k
                    - nl_eps nonlinearity(rho)_j u_j + i g

    with densities rho_k = |u_k|^2.  ``eps`` and ``nl_eps`` are scalars
    shared by every field; ``nonlinearity`` maps the list of densities to
    one factor per field.

    ``ic`` and ``exact`` hold one callable per field (``n_components``),
    complex valued for the complex families.  ``forcing`` is one tuple of
    separable terms (time_fn, ForcingProfile), g = sum T(t) h(x), added to
    every field.  ``lift`` is one (time_fn, linear poly coeffs) pair for
    problems posed with inhomogeneous Dirichlet data; every evolved field is
    then the field minus T(t) l(x), with zero data.  ``bcs`` is not an
    input: it is derived from ``lift``, one ``BoundarySpec`` per field
    holding T(t) l(a) and T(t) l(b), or zero data without a lift.
    """

    family: str
    alpha: float
    domain: tuple
    K: int
    N: int
    T: float
    flux: Optional[FluxParams] = None
    eps: float = 1.0                 # fractional coefficient
    nl_eps: float = 1.0              # nonlinear coefficient
    nonlinearity: Optional[Callable] = None
    coupling: Optional[tuple] = None  # fields x fields linear coupling
    conv: Optional[ConvectionFlux] = None
    ic: Optional[list] = None        # per-field callables of x
    forcing: tuple = ()              # (time_fn, ForcingProfile) terms
    exact: Optional[tuple] = None    # per-field callables of (x, t)
    lift: Optional[tuple] = None     # (time_fn, linear poly coeffs)
    cfl_c: Optional[float] = None
    bcs: list = field(init=False)    # per-field BoundarySpec, from lift

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.cfl_c is None:
            self.cfl_c = 0.05 if self.is_complex else 0.1
        if self.flux is None:
            self.flux = default_flux(self.N)
        self.eps, self.nl_eps = float(self.eps), float(self.nl_eps)
        if self.family == "convection_diffusion" and self.conv is None:
            raise ValueError("convection_diffusion requires a convective flux")
        if self.is_complex and self.nonlinearity is None:
            raise ValueError(f"{self.family} requires a nonlinearity")
        bc = BoundarySpec()
        if self.lift is not None:
            (a, b), (f, c) = self.domain, self.lift
            bc = BoundarySpec(left=lambda t, v=float(P.polyval(a, c)): f(t) * v,
                              right=lambda t, v=float(P.polyval(b, c)): f(t) * v)
        self.bcs = [bc] * self.n_components

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
    E: object = field(repr=False)          # dense (alpha < 2) or LinearOperator
    apply_E: Callable = field(repr=False)  # E applied to every row of an array
    forcing: tuple = field(repr=False)     # (time_fns, H: projected profiles)
    lift_nodal: Optional[np.ndarray] = field(repr=False, default=None)
    quad_eval: Optional[np.ndarray] = field(repr=False, default=None)
    quad_back: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.mesh.K * self.basis.n_nodes

    @property
    def roles(self) -> tuple:
        """Names of the state rows: u for a single field, else u1, u2."""
        m = self.spec.n_components
        return ("u",) if m == 1 else tuple(f"u{j + 1}" for j in range(m))

    def stable_dt_cap(self) -> float:
        """Step bound 2 / (1.15 rho) from the stiff part's spectral radius rho.

        rho is |eps| times the spectral radius of E, estimated by 30
        power-iteration steps from a fixed-seed random vector, plus, with a
        convective flux, the advective rate 1.5 max |f'(u0)| (N + 1)^2 / dx
        of the physical initial data (lift added back) at the nodes.  Runs
        without a dt override step with the smaller of this cap and the CFL
        step c dx^alpha, and ``dt_bound`` in the diagnostics names the one
        that set dt.
        """
        rng = np.random.default_rng(0)
        v = rng.standard_normal(self.n)
        rho = 1.0
        for _ in range(30):
            w = self.apply_E(v)
            rho = np.linalg.norm(w)
            if rho == 0.0:
                return math.inf
            v = w / rho
        spec = self.spec
        rho_eff = abs(spec.eps) * rho
        if spec.conv is not None and spec.ic is not None:
            nodes = cell_centers_and_points(self.mesh, self.basis.ref_nodes)
            u0 = self.full_fields(spec.ic[0](nodes).ravel(), 0.0)
            speed = 1.5 * float(np.abs(spec.conv.df(u0)).max()) + 1e-30
            rho_eff += speed * (self.basis.N + 1) ** 2 / self.mesh.dx
        return 2.0 / (1.15 * rho_eff)

    def initial_state(self) -> np.ndarray:
        if self.spec.ic is None:
            raise ValueError("problem has no initial data")
        return np.concatenate(
            [project(f, self.mesh, self.basis).values for f in self.spec.ic]
        )

    def _frac_apply(self, comps: np.ndarray) -> np.ndarray:
        """F applied to every complex row of comps, shape (ncomp, n), as its
        real rows over its imaginary rows through the real E."""
        m = len(comps)
        X = self.apply_E(np.concatenate([comps.real, comps.imag]))
        out = np.empty(comps.shape, dtype=complex)
        out.real, out.imag = X[:m], X[m:]
        return out

    def full_fields(self, comps: np.ndarray, t: float) -> np.ndarray:
        """Physical fields, adding the boundary lift back when present."""
        if self.lift_nodal is None:
            return comps
        return comps + self.spec.lift[0](t) * self.lift_nodal

    def rhs(self, t: float, flat: np.ndarray) -> np.ndarray:
        spec = self.spec
        time_fns, H = self.forcing
        # g = sum T_i(t) h_i, shared by every field
        g = np.array([f(t) for f in time_fns]) @ H if time_fns else 0.0

        if not spec.is_complex:  # one real field: flat is its row
            out = spec.eps * self.apply_E(flat) + g
            if spec.conv is not None:
                # convection_rhs already carries the -d/dx f(u) sign
                u = FieldVector(self.full_fields(flat, t), self.mesh, self.basis)
                out += convection_rhs(u, spec.conv, spec.bcs[0], t).values
            return out

        comps = flat.reshape(spec.n_components, self.n)
        F = self._frac_apply(comps)
        full = self.full_fields(comps, t)
        out = np.empty_like(F)

        # u_t = i (eps F + sum_k coupling u_k + nl_eps P(f u)) + g, with the
        # nonlinear product formed at quadrature points and projected back
        # (P): keeps Re <u, i P(f u)> = 0 exact and avoids the nodal aliasing
        # of high-degree products; quad_back is that L2 projection
        at_quad = [u.reshape(self.mesh.K, -1) @ self.quad_eval.T for u in full]
        factors = spec.nonlinearity([(u * u.conj()).real for u in at_quad])
        for j, (u, f) in enumerate(zip(at_quad, factors)):
            d = spec.eps * F[j] + spec.nl_eps * ((f * u) @ self.quad_back).ravel()
            if spec.coupling is not None:
                d = d + sum(w * full[k] for k, w in enumerate(spec.coupling[j]))
            out[j] = 1j * d + g
        return out.ravel()

    def field_errors(self, flat: np.ndarray, t: float) -> list:
        """L2 error per physical field."""
        if self.spec.exact is None:
            raise ValueError("problem has no exact solution")
        full = self.full_fields(flat.reshape(self.spec.n_components, self.n), t)
        return [l2_error(FieldVector(u, self.mesh, self.basis), lambda x, g=g: g(x, t))
                for u, g in zip(full, self.spec.exact)]

    def l2_norms_squared(self, flat: np.ndarray, t: float = 0.0) -> list:
        """Discrete squared L2 norm per physical field."""
        full = self.full_fields(flat.reshape(self.spec.n_components, self.n), t)
        mass = 0.5 * self.mesh.dx * self.basis.mass
        return [float(np.einsum("ki,ij,kj->", c.reshape(self.mesh.K, -1).conj(), mass,
                                c.reshape(self.mesh.K, -1)).real) for c in full]


class BlockOperator:
    """E = M^-1 B M^-1 A applied from its blocks, without forming E.

    The DDG stage M^-1 A is block tridiagonal: one (K, n) @ (n, 3n) product
    gives the diagonal, lower and upper terms, and the two boundary cells
    add a correction.  The fractional stage M^-1 B is block Toeplitz and is
    applied as its length-2K circulant embedding: rfft over cells, one
    n x n product per frequency (``symbol``, shape (n, n, K + 1)), irfft.
    At alpha = 2 only the DDG stage runs.
    """

    def __init__(self, qop: DdgOperators, fop: Optional[FracOperator]):
        mesh, basis = qop.mesh, qop.basis
        K, n = mesh.K, basis.n_nodes
        fix_last = qop.last - qop.diag if K > 1 else np.zeros((n, n))
        blocks = np.stack([qop.diag, qop.lower, qop.upper,
                           qop.first - qop.diag, fix_last])
        MA = mass_solve_mat(mesh, basis, blocks.reshape(-1, n)).reshape(5, n, n)
        self.K, self.n = K, n
        self.band = np.hstack([b.T for b in MA[:3]])
        self.fix_first, self.fix_last = MA[3].T, MA[4].T
        self.symbol = None
        if fop is not None:
            T = fop.toeplitz_blocks()               # offsets 1-K .. K-1
            circ = np.concatenate([T[K - 1:], np.zeros((1, n, n)), T[:K - 1]])
            circ = mass_solve_mat(mesh, basis, circ.reshape(-1, n))
            # the symbol is small at high frequencies, where a float64 FFT
            # leaves it eps * max|symbol| off; a long double FFT (80-bit on
            # x86) removes that share of the apply's round-off for alpha -> 1
            symbol = np.fft.rfft(circ.reshape(2 * K, n, n).astype(np.longdouble), axis=0)
            self.symbol = np.ascontiguousarray(symbol.transpose(1, 2, 0), dtype=complex)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """E applied to every row of X, shape (K*n,) or (m, K*n)."""
        return self.frac(self.ddg(X))

    def ddg(self, X: np.ndarray) -> np.ndarray:
        """M^-1 A applied to every row of X."""
        K, n = self.K, self.n
        c = X.reshape(-1, K, n)
        Y = (c.reshape(-1, n) @ self.band).reshape(-1, K, 3, n)
        q = Y[:, :, 0].copy()
        q[:, 1:] += Y[:, :-1, 1]
        q[:, :-1] += Y[:, 1:, 2]
        q[:, 0] += c[:, 0] @ self.fix_first
        q[:, -1] += c[:, -1] @ self.fix_last
        return q.reshape(X.shape)

    def frac(self, q: np.ndarray) -> np.ndarray:
        """M^-1 B applied to every row of q (identity at alpha = 2)."""
        if self.symbol is None:
            return q
        K, n = self.K, self.n
        # frequencies on the last axis: (m, n, K + 1) per component and node
        qh = np.fft.rfft(q.reshape(-1, K, n).transpose(0, 2, 1), n=2 * K)
        ph = (self.symbol[None] * qh[:, None]).sum(axis=2)
        p = np.fft.irfft(ph, n=2 * K)[:, :, :K]
        return p.transpose(0, 2, 1).reshape(q.shape)


def build_problem(spec: ProblemSpec) -> SemiDiscreteProblem:
    """Assemble mesh, basis, DDG and fractional operators, and forcing DOFs.

    For alpha < 2, E is fused into a dense matrix below
    ``MATRIX_FREE_MIN_DOF`` DOFs per field; from there on, and at alpha = 2
    at every size, a ``BlockOperator`` applies it and no dense E is formed.
    """
    a, b = spec.domain
    mesh = build_mesh(a, b, spec.K)
    basis = build_basis(spec.N)
    qop = assemble_q_operator(mesh, basis, spec.flux)
    fop = None if spec.alpha == 2.0 else assemble_frac_operator(mesh, basis, spec.alpha)

    ndof = mesh.K * basis.n_nodes
    if fop is not None and ndof < MATRIX_FREE_MIN_DOF:
        MB = mass_solve_mat(mesh, basis, fop.B)
        E = MB @ mass_solve_mat(mesh, basis, qop.A)
        apply_E = lambda X: X @ E.T
    else:
        apply_E = BlockOperator(qop, fop)
        E = LinearOperator((ndof, ndof), matvec=apply_E, dtype=float,
                           matmat=lambda V: apply_E(V.T).T)

    forcing = (tuple(f for f, _h in spec.forcing),
               np.array([h.project_onto(mesh, basis, spec.alpha) for _f, h in spec.forcing]))

    lift_nodal = None
    if spec.lift is not None:
        nodes = cell_centers_and_points(mesh, basis.ref_nodes)
        lift_nodal = P.polyval(nodes, spec.lift[1]).ravel()

    quad_eval = quad_back = None
    if spec.is_complex:
        # enough points for exact projection of cubic products of the fields
        rule = gauss_legendre(min(2 * basis.N + 3, 64))
        quad_eval = basis.eval_matrix(rule.nodes)
        quad_back = (rule.weights[:, None] * quad_eval) @ basis.mass_inv.T

    return SemiDiscreteProblem(spec=spec, mesh=mesh, basis=basis, qop=qop,
                               E=E, apply_E=apply_E, forcing=forcing,
                               lift_nodal=lift_nodal, quad_eval=quad_eval,
                               quad_back=quad_back)


# ---------------------------------------------------------------------------
# named examples
# ---------------------------------------------------------------------------

def _polyval(coeffs):
    return lambda x: P.polyval(np.asarray(x, dtype=float), coeffs)


def _cubic(rho):
    """|u|^2 u nonlinearity: each field's factor is its own density."""
    return rho


def _total_density(rho):
    """Both fields feel rho_1 + rho_2."""
    total = rho[0] + rho[1]
    return total, total


_BURGERS = ConvectionFlux(f=lambda u: 0.5 * u * u, df=lambda u: u)

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
            {"nonlinearity": _cubic}),
    "ex8": ("coupled_nls", (0.0, 1.0), 0.5, P.polyfromroots([0.0] * 5), (3.0, 2.0),
            {"nonlinearity": _total_density, "coupling": ((1.0, 1.0), (1.0, 1.0))}),
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
    does not vanish at the boundary is lifted by its linear interpolant.
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
    va, vb = float(P.polyval(a, u0)), float(P.polyval(b, u0))
    ic, lift = [lambda x: exact[0](x, 0.0)] * m, None
    if va != 0.0 or vb != 0.0:
        lift_c = np.array([(va * b - vb * a) / (b - a), (vb - va) / (b - a)])
        tilde = P.polysub(u0, lift_c)
        ic = [lambda x: tf(0.0) * P.polyval(np.asarray(x, float), tilde)] * m
        lift = (tf, lift_c)
        forcing += ((lambda t: -tf_prime(t), ForcingProfile(lift_c)),)
    return dict(family=family, domain=domain, eps=eps, ic=ic, lift=lift,
                forcing=forcing, exact=exact)


def _manakov_exact(r1: float = 1.0, r2: float = 1.0, v0: float = 0.4,
                   D: float = 10.0) -> tuple:
    """Two single solitons of the coupled cubic system moving toward each
    other, one per field (alpha = 2, cross coupling 1).  They solve the
    system up to the overlap of their tails, so this is a reference only
    before they collide near t = 12.5."""
    def u1(x, t):
        amp = math.sqrt(2.0) * r1 / np.cosh(r1 * x - 2.0 * r1 * v0 * t + D)
        return amp * np.exp(1j * (v0 * x + (r1**2 - v0**2) * t))

    def u2(x, t):
        # left-moving partner: momentum -v0 pairs with center D - 2 v0 t
        amp = math.sqrt(2.0) * r2 / np.cosh(r2 * x + 2.0 * r2 * v0 * t - D)
        return amp * np.exp(1j * (-v0 * x + (r2**2 - v0**2) * t))

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
        return spec(1.0, family="nls", domain=(-25.0, 25.0), eps=2.0, nl_eps=2.0,
                    nonlinearity=_cubic, ic=[lambda x: _sech_wave(x, 4.0, 0.0)])
    if name == "nls_two_soliton":
        return spec(1.0, family="nls", domain=(-25.0, 25.0), nl_eps=2.0,
                    nonlinearity=_cubic,
                    ic=[lambda x: _sech_wave(x, 4.0, -10.0) + _sech_wave(x, -4.0, 10.0)])
    beta = 1.0 if cross_coupling is None else cross_coupling
    pair = [lambda x, g=g: g(np.asarray(x, dtype=float), 0.0)
            for g in _manakov_exact()]
    if name == "coupled_strong":
        return spec(20.0, family="coupled_nls", domain=(-40.0, 40.0),
                    coupling=((1.0, beta), (beta, 1.0)), nonlinearity=_total_density,
                    ic=pair)
    if name == "manakov":
        return spec(5.0, family="coupled_nls", domain=(-40.0, 40.0),
                    nonlinearity=lambda rho: (rho[0] + beta * rho[1], beta * rho[0] + rho[1]),
                    ic=pair,
                    # valid before the collision only; the bench's T = 5 check reads it
                    exact=_manakov_exact() if beta == 1.0 and alpha == 2.0 else None)
    raise KeyError(f"unknown example {name!r}")
