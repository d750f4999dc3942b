"""Semi-discrete right-hand sides for the four problem families.

The state holds one row per physical field (``_LAYOUT``), each
element-major: ``diffusion``, ``convection_diffusion`` and ``nls`` hold (u)
and ``coupled_nls`` holds (u1, u2).  The rows are real for the first two
families and complex for the Schrodinger ones, so the right-hand side, the
norms, the errors, the row names and the snapshot files act on each field
directly.  E stays real: a complex block goes through it as its real rows
stacked over its imaginary rows, so E is never copied to complex.

The fractional Laplacian enters every family through the same composition
F c = E c + boundary data with E = M^-1 B M^-1 A; alpha = 2 swaps B for
the mass matrix (classical limit).  How E is applied depends on the size:
below ``MATRIX_FREE_MIN_DOF`` DOFs per field it is fused into one dense
matrix; from there on ``BlockOperator`` applies it from the blocks of A
(block tridiagonal) and B (block Toeplitz, through FFTs) without forming
it, so no size cap remains.  Both paths share one block representation
and agree to round-off.  Nonlinear products are formed at Gauss points and
projected back, and manufactured forcing terms are separable T(t) h(x)
pairs whose spatial profiles are projected once at setup.

Problems with inhomogeneous Dirichlet data evolve the lifted variable
u - l(x, t), where l interpolates the boundary values linearly in x.  The
fractional Laplacian annihilates linear polynomials (discretely as well),
so the lift only shifts the time-derivative forcing and the arguments of
nonlinear terms while the evolved field keeps homogeneous boundary data.
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
    riesz_frac_deriv_poly,
)
from .meshbasis import (
    FieldVector,
    build_basis,
    build_mesh,
    cell_centers_and_points,
    l2_error,
    mass_solve,
    mass_solve_mat,
    project,
)
from .specfun import gamma_fn, gauss_legendre

# (number of physical fields = state rows, whether they are complex) per family
_LAYOUT = {"diffusion": (1, False), "convection_diffusion": (1, False),
           "nls": (1, True), "coupled_nls": (2, True)}
FAMILIES = tuple(_LAYOUT)

# Crossover in DOFs per component for one apply of E, measured on a 2-core
# x86 host (numpy 2.4, OpenBLAS) over N = 1..3, alpha in {1.1, 1.6, 2} and
# 1, 2 or 4 components: the dense matrix wins at n = 512 (by up to 2x for
# alpha < 2), n = 600 is a tie, and BlockOperator wins every case from
# n = 768 on (1.2-7.7x; 2.2-5.6x at n = 1024).
MATRIX_FREE_MIN_DOF = 768


@dataclass(frozen=True)
class ExactSolution:
    """Space-time reference solution, one callable per field."""

    components: tuple


@dataclass(frozen=True)
class ForcingProfile:
    """Spatial profile poly(x) + frac_scale * (-lap)^(alpha/2) base(x).

    Carrying the polynomial structure lets the setup project the weakly
    singular fractional part exactly (endpoint Gauss-Jacobi rules) instead
    of hitting the quadrature floor of a plain Legendre rule.
    """

    poly: np.ndarray
    frac_scale: float
    base: Optional[np.ndarray]
    alpha: float
    domain: tuple

    def __call__(self, x):
        val = P.polyval(np.asarray(x, dtype=float), self.poly)
        if self.base is not None and self.frac_scale != 0.0:
            a, b = self.domain
            val = val + self.frac_scale * riesz_frac_deriv_poly(
                self.alpha, self.base, a, b, x
            )
        return val

    def project_onto(self, mesh, basis) -> np.ndarray:
        n_quad = min(max(basis.N + 2, (self.poly.size + basis.N) // 2 + 2), 64)
        dofs = project(_polyval(self.poly), mesh, basis, n_quad=n_quad).values
        if self.base is not None and self.frac_scale != 0.0:
            dofs = dofs + self.frac_scale * project_riesz_poly(
                self.alpha, self.base, mesh, basis
            )
        return dofs


@dataclass(frozen=True)
class ForcingTerms:
    """Separable forcing sum_i T_i(t) h_i(x) of u_t for every field."""

    components: tuple  # tuple over fields of tuples of (time_fn, space_fn)


@dataclass
class ProblemSpec:
    """Everything needed to assemble one semi-discrete problem.

    Field j of a real family solves u_t = -eps_j (-lap)^(alpha/2) u
    - f(u)_x + g; of a complex family

        i (u_j)_t = eps_j (-lap)^(alpha/2) u_j - sum_k coupling[j][k] u_k
                    - nl_eps_j nonlinearity(rho)_j u_j + i g_j

    with densities rho_k = |u_k|^2.  ``eps`` and ``nl_eps`` take one value
    per field (a scalar is shared by all fields); ``nonlinearity`` maps the
    list of densities to one factor per field.

    ``ic``, ``bcs``, ``forcing``, ``exact`` and ``lift`` hold one entry per
    field (``n_components``), complex valued for the complex families.
    ``lift`` holds (time_fn, linear poly coeffs) pairs for problems posed
    with inhomogeneous Dirichlet data; the evolved state is then the lifted
    (homogeneous) field.
    """

    family: str
    alpha: float
    domain: tuple
    K: int
    N: int
    T: float
    label: str = "custom"
    flux: Optional[FluxParams] = None
    eps: float | tuple = 1.0         # fractional coefficient per field
    nl_eps: float | tuple = 1.0      # nonlinear coefficient per field
    nonlinearity: Optional[Callable] = None
    coupling: Optional[tuple] = None  # fields x fields linear coupling
    conv: Optional[ConvectionFlux] = None
    ic: Optional[list] = None        # per-field callables of x
    bcs: Optional[list] = None       # per-field BoundarySpec
    forcing: Optional[ForcingTerms] = None
    exact: Optional[ExactSolution] = None
    lift: Optional[list] = None      # per-field (time_fn, poly coeffs)
    cfl_c: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if self.cfl_c is None:
            self.cfl_c = 0.05 if self.is_complex else 0.1
        if self.flux is None:
            self.flux = default_flux(self.N)
        if self.bcs is None:
            self.bcs = [BoundarySpec()] * self.n_components
        m = self.n_components
        self.eps, self.nl_eps = (tuple(v) if isinstance(v, (tuple, list)) else (v,) * m
                                 for v in (self.eps, self.nl_eps))
        if len(self.eps) != m or len(self.nl_eps) != m:
            raise ValueError(f"{self.family} takes {m} coefficient(s) per term")
        if self.family == "convection_diffusion" and self.conv is None:
            raise ValueError("convection_diffusion requires a convective flux")
        if self.is_complex and self.nonlinearity is None:
            raise ValueError(f"{self.family} requires a nonlinearity")
        if self.lift is not None and len(self.lift) != self.n_components:
            raise ValueError("lift data must cover every field")

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
    E: object = field(repr=False)          # dense matrix or LinearOperator
    apply_E: Callable = field(repr=False)  # E applied to every row of an array
    wL: np.ndarray = field(repr=False)
    wR: np.ndarray = field(repr=False)
    forcing_dofs: list = field(repr=False, default_factory=list)
    lift_nodal: Optional[list] = field(repr=False, default=None)
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

    def stable_dt_cap(self, safety: float = 2.0) -> float:
        """Step bound from the measured spectral radius of the stiff part.

        The CFL rule dt = c dx^alpha carries an O(1) constant that is left
        open; for a few configurations (alpha near 2 on wide cells,
        strong convection) the default constant lands marginally outside the
        RK4 stability region, so runs cap the step with this bound.
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
        rho_eff = max(abs(e) for e in spec.eps) * rho
        if spec.conv is not None and spec.ic is not None:
            nodes = cell_centers_and_points(self.mesh, self.basis.ref_nodes)
            u0 = spec.ic[0](nodes)
            speed = 1.5 * float(np.abs(spec.conv.df(u0)).max()) + 1e-30
            rho_eff += speed * (self.basis.N + 1) ** 2 / self.mesh.dx
        return safety / (1.15 * rho_eff)

    def _product_dofs(self, vals: np.ndarray) -> np.ndarray:
        """L2 projection of pointwise quadrature values back onto the space."""
        return (vals @ self.quad_back).ravel()

    def _at_quad(self, flat_comp: np.ndarray) -> np.ndarray:
        return flat_comp.reshape(self.mesh.K, -1) @ self.quad_eval.T

    def initial_state(self) -> np.ndarray:
        if self.spec.ic is None:
            raise ValueError("problem has no initial data")
        return np.concatenate(
            [project(f, self.mesh, self.basis).values for f in self.spec.ic]
        )

    def _frac_apply(self, comps: np.ndarray, t: float) -> np.ndarray:
        """F applied to all rows at once; comps has shape (ncomp, n)."""
        if self.spec.is_complex:  # real rows over imaginary rows through the real E
            m = len(comps)
            X = self.apply_E(np.concatenate([comps.real, comps.imag]))
            out = np.empty(comps.shape, dtype=complex)
            out.real, out.imag = X[:m], X[m:]
        else:
            out = self.apply_E(comps)
        if self.lift_nodal is None:  # lifted fields carry homogeneous data
            for i, bc in enumerate(self.spec.bcs):
                gl, gr = bc.left_at(t), bc.right_at(t)
                if gl != 0.0:
                    out[i] += gl * self.wL
                if gr != 0.0:
                    out[i] += gr * self.wR
        return out

    def _forcing(self, t: float, i: int):
        acc = 0.0
        for time_fn, h in self.forcing_dofs[i]:
            acc = acc + time_fn(t) * h
        return acc

    def full_fields(self, comps: np.ndarray, t: float) -> np.ndarray:
        """Physical fields, adding the boundary lift back when present."""
        if self.lift_nodal is None:
            return comps
        full = comps.copy()
        for i, (time_fn, _c) in enumerate(self.spec.lift):
            full[i] += time_fn(t) * self.lift_nodal[i]
        return full

    def rhs(self, t: float, flat: np.ndarray) -> np.ndarray:
        spec = self.spec
        comps = flat.reshape(spec.n_components, self.n)
        F = self._frac_apply(comps, t)
        full = self.full_fields(comps, t)
        out = np.empty_like(F)

        if not spec.is_complex:
            out[0] = spec.eps[0] * F[0] + self._forcing(t, 0)
            if spec.conv is not None:
                # convection_rhs already carries the -d/dx f(u) sign
                u = FieldVector(full[0], self.mesh, self.basis)
                out[0] += convection_rhs(u, spec.conv, spec.bcs[0], t).values
            return out.ravel()

        # u_t = i (eps F + sum_k coupling u_k + nl_eps P(f u)) + g, with the
        # nonlinear product formed at quadrature points and projected back
        # (P): keeps Re <u, i P(f u)> = 0 exact and avoids the nodal aliasing
        # of high-degree products
        at_quad = [self._at_quad(u) for u in full]
        factors = spec.nonlinearity([(u * u.conj()).real for u in at_quad])
        for j, (u, f) in enumerate(zip(at_quad, factors)):
            d = spec.eps[j] * F[j] + spec.nl_eps[j] * self._product_dofs(f * u)
            if spec.coupling is not None:
                d = d + sum(w * full[k] for k, w in enumerate(spec.coupling[j]))
            out[j] = 1j * d + self._forcing(t, j)
        return out.ravel()

    def field_errors(self, flat: np.ndarray, t: float) -> list:
        """L2 error per physical field."""
        if self.spec.exact is None:
            raise ValueError("problem has no exact solution")
        full = self.full_fields(flat.reshape(self.spec.n_components, self.n), t)
        return [l2_error(FieldVector(u, self.mesh, self.basis), lambda x, g=g: g(x, t))
                for u, g in zip(full, self.spec.exact.components)]

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

    E is fused into a dense matrix below ``MATRIX_FREE_MIN_DOF`` DOFs per
    field and applied by a ``BlockOperator`` from there on.
    """
    a, b = spec.domain
    mesh = build_mesh(a, b, spec.K)
    basis = build_basis(spec.N)
    qop = assemble_q_operator(mesh, basis, spec.flux)
    fop = None if spec.alpha == 2.0 else assemble_frac_operator(mesh, basis, spec.alpha)

    ndof = mesh.K * basis.n_nodes
    if ndof < MATRIX_FREE_MIN_DOF:
        E = mass_solve_mat(mesh, basis, qop.A)
        frac = lambda v: v
        if fop is not None:
            MB = mass_solve_mat(mesh, basis, fop.B)
            E = MB @ E
            frac = lambda v: MB @ v
        apply_E = lambda X: X @ E.T
    else:
        apply_E = BlockOperator(qop, fop)
        frac = apply_E.frac
        E = LinearOperator((ndof, ndof), matvec=apply_E, dtype=float,
                           matmat=lambda V: apply_E(V.T).T)
    wL = frac(mass_solve(mesh, basis, qop.bc_left))
    wR = frac(mass_solve(mesh, basis, qop.bc_right))

    forcing_dofs = []
    for i in range(spec.n_components):
        terms = []
        if spec.forcing is not None:
            for time_fn, space_fn in spec.forcing.components[i]:
                if isinstance(space_fn, ForcingProfile):
                    terms.append((time_fn, space_fn.project_onto(mesh, basis)))
                else:
                    terms.append((time_fn, project(space_fn, mesh, basis).values))
        forcing_dofs.append(terms)

    lift_nodal = None
    if spec.lift is not None:
        nodes = cell_centers_and_points(mesh, basis.ref_nodes)
        lift_nodal = [P.polyval(nodes, c).ravel() for _fn, c in spec.lift]

    quad_eval = quad_back = None
    if spec.is_complex:
        # enough points for exact projection of cubic products of the fields
        rule = gauss_legendre(min(2 * basis.N + 3, 64))
        quad_eval = basis.eval_matrix(rule.nodes)
        quad_back = (rule.weights[:, None] * quad_eval) @ basis.mass_inv.T

    return SemiDiscreteProblem(spec=spec, mesh=mesh, basis=basis, qop=qop,
                               E=E, apply_E=apply_E, wL=wL, wR=wR, forcing_dofs=forcing_dofs,
                               lift_nodal=lift_nodal, quad_eval=quad_eval,
                               quad_back=quad_back)


# ---------------------------------------------------------------------------
# example library: manufactured solutions, forcings and soliton initial data
# ---------------------------------------------------------------------------

def _polyval(coeffs):
    return lambda x: P.polyval(np.asarray(x, dtype=float), coeffs)


_POLY_IC = {
    "ex1": P.polypow([-1.0, 0.0, 1.0], 4),
    "ex2": P.polyfromroots([0.0] * 11),
    "ex3": P.polypow([-1.0, 0.0, 1.0], 4) / 100.0,
    "ex4": P.polyfromroots([0.0] * 4) / 100.0,
    "ex7": P.polypow([-1.0, 0.0, 1.0], 5),
    "ex8": P.polyfromroots([0.0] * 5),
}

_DOMAINS = {
    "ex1": (-1.0, 1.0), "ex2": (0.0, 1.0), "ex3": (-1.0, 1.0),
    "ex4": (0.0, 1.0), "ex7": (-1.0, 1.0), "ex8": (0.0, 1.0),
}


def example_epsilon(name: str, alpha: float) -> float:
    """Diffusion constant of each manufactured run."""
    if name in ("ex1", "ex3"):
        return gamma_fn(9.0 - alpha) / gamma_fn(9.0)
    if name == "ex2":
        return gamma_fn(12.0 - alpha) / gamma_fn(12.0)
    if name == "ex4":
        return gamma_fn(5.0 - alpha) / gamma_fn(5.0)
    if name == "ex7":
        return gamma_fn(11.0 - alpha) / gamma_fn(11.0)
    if name == "ex8":
        return gamma_fn(6.0 - alpha) / (2.0 * gamma_fn(6.0))
    raise KeyError(f"unknown example {name!r}")


def exact_solution_library(name: str, alpha: float = 2.0) -> ExactSolution:
    """Reference solutions for error measurement.

    ``ex9`` is the colliding two-soliton pair of the coupled cubic system,
    exact only in the classical integrable case (alpha = 2, cross coupling 1).
    """
    if name in ("ex1", "ex2", "ex3", "ex4"):
        u0 = _polyval(_POLY_IC[name])
        return ExactSolution(components=(lambda x, t, f=u0: math.exp(-t) * f(x),))
    if name in ("ex7", "ex8"):
        u = lambda x, t, f=_polyval(_POLY_IC[name]): cmath.exp(-1j * t) * f(x)
        return ExactSolution(components=(u,) if name == "ex7" else (u, u))
    if name == "ex9":
        return _manakov_exact()
    raise KeyError(f"no exact solution registered for {name!r}")


def _manakov_exact(r1: float = 1.0, r2: float = 1.0, v0: float = 0.4,
                   D: float = 10.0) -> ExactSolution:
    def u1(x, t):
        amp = math.sqrt(2.0) * r1 / np.cosh(r1 * x - 2.0 * r1 * v0 * t + D)
        return amp * np.exp(1j * (v0 * x + (r1**2 - v0**2) * t))

    def u2(x, t):
        # left-moving partner: momentum -v0 pairs with center D - 2 v0 t
        amp = math.sqrt(2.0) * r2 / np.cosh(r2 * x + 2.0 * r2 * v0 * t - D)
        return amp * np.exp(1j * (-v0 * x + (r2**2 - v0**2) * t))

    return ExactSolution(components=(u1, u2))


def forcing_library(name: str, alpha: float) -> ForcingTerms:
    """Separable forcing terms that make the library solutions exact."""
    if name not in _POLY_IC:
        raise KeyError(f"unknown forcing {name!r}")
    dom = _DOMAINS[name]
    u0c = _POLY_IC[name]
    eps = example_epsilon(name, alpha)

    if name in ("ex1", "ex2"):
        # u_t + eps (-lap)^(a/2) u = g for u = exp(-t) u0
        h = ForcingProfile(poly=-u0c, frac_scale=eps, base=u0c,
                           alpha=alpha, domain=dom)
        return ForcingTerms(components=(((lambda t: math.exp(-t), h),),))
    if name in ("ex3", "ex4"):
        # adds the Burgers term u u_x of the decaying profile
        h1 = ForcingProfile(poly=-u0c, frac_scale=eps, base=u0c,
                            alpha=alpha, domain=dom)
        h2 = ForcingProfile(poly=P.polymul(u0c, P.polyder(u0c)),
                            frac_scale=0.0, base=None, alpha=alpha, domain=dom)
        return ForcingTerms(components=(
            ((lambda t: math.exp(-t), h1), (lambda t: math.exp(-2.0 * t), h2)),
        ))
    # residual g of exp(-it) u0 in i u_t - eps (-lap)^(a/2) u + f u = i g
    # (ex7: f = |u|^2; ex8: f = |u1|^2 + |u2|^2 and the coupling adds u1 + u2)
    poly = (P.polyadd(u0c, P.polypow(u0c, 3)) if name == "ex7"
            else P.polyadd(3.0 * u0c, 2.0 * P.polypow(u0c, 3)))
    h = ForcingProfile(poly=poly, frac_scale=-eps, base=u0c, alpha=alpha, domain=dom)
    per_field = ((lambda t: -1j * cmath.exp(-1j * t), h),)
    return ForcingTerms(components=(per_field,) if name == "ex7" else (per_field, per_field))


def _linear_lift(u0c: np.ndarray, domain: tuple) -> Optional[np.ndarray]:
    """Degree-1 interpolant of u0 at the endpoints; None if data vanishes."""
    a, b = domain
    va, vb = float(P.polyval(a, u0c)), float(P.polyval(b, u0c))
    if va == 0.0 and vb == 0.0:
        return None
    return np.array([(va * b - vb * a) / (b - a), (vb - va) / (b - a)])


# time factor T(t) of the manufactured solutions T(t) u0(x), and T'(t)
_TIME_REAL = (lambda t: math.exp(-t), lambda t: -math.exp(-t))
_TIME_OSC = (lambda t: cmath.exp(-1j * t), lambda t: -1j * cmath.exp(-1j * t))


def _lifted_setup(name: str, alpha: float, oscillatory: bool):
    """IC, BC, lift and extra forcing terms for one manufactured example.

    Every field of an example is T(t) u0(x), so all fields share them.
    """
    dom = _DOMAINS[name]
    u0c = _POLY_IC[name]
    lift_c = _linear_lift(u0c, dom)
    tf, tf_prime = _TIME_OSC if oscillatory else _TIME_REAL
    exact = exact_solution_library(name, alpha)
    m = len(exact.components)
    forcing = forcing_library(name, alpha)
    va, vb = (float(P.polyval(x, u0c)) for x in dom)
    bcs = [BoundarySpec(left=lambda t: tf(t) * va, right=lambda t: tf(t) * vb)] * m

    if lift_c is None:
        ic = [lambda x, g=g: g(x, 0.0) for g in exact.components]
        return ic, bcs, None, forcing, exact

    tilde = P.polysub(u0c, lift_c)
    ic = [lambda x: tf(0.0) * P.polyval(np.asarray(x, float), tilde)] * m
    extra = (lambda t: -tf_prime(t), ForcingProfile(poly=lift_c, frac_scale=0.0, base=None,
                                                    alpha=alpha, domain=dom))
    forcing = ForcingTerms(components=tuple(c + (extra,) for c in forcing.components))
    return ic, bcs, [(tf, lift_c)] * m, forcing, exact


def burgers_flux() -> ConvectionFlux:
    return ConvectionFlux(f=lambda u: 0.5 * u * u, df=lambda u: u)


def _cubic(rho):
    """|u|^2 u nonlinearity: each field's factor is its own density."""
    return rho


def _total_density(rho):
    """Both fields feel rho_1 + rho_2."""
    total = rho[0] + rho[1]
    return total, total


def _sech(x):
    return 1.0 / np.cosh(x)


def initial_condition_library(name: str) -> list:
    """Per-field initial data for the non-manufactured runs."""
    if name == "step_ramp":
        def ic(x):
            x = np.asarray(x, dtype=float)
            return np.where((x >= -1) & (x < 0), x + 1.0,
                            np.where((x >= 0) & (x <= 1), 2.0 * x, 0.0))
        return [ic]
    if name == "gauss2":
        return [lambda x: np.exp(-2.0 * np.asarray(x, dtype=float) ** 2)]
    if name == "nls_soliton":
        return [lambda x: np.exp(2j * np.asarray(x, dtype=float)) * _sech(np.asarray(x))]
    if name == "nls_two_soliton":
        def u(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros_like(x, dtype=complex)
            for cj, xj in ((4.0, -10.0), (-4.0, 10.0)):
                total += np.exp(0.5j * cj * (x - xj)) * _sech(x - xj)
            return total
        return [u]
    if name == "colliding_sech_pair":
        return [lambda x, g=g: g(np.asarray(x, dtype=float), 0.0)
                for g in _manakov_exact().components]
    raise KeyError(f"unknown initial condition {name!r}")


def make_example(name: str, alpha: float, K: int, N: int,
                 flux: Optional[FluxParams] = None,
                 T: Optional[float] = None,
                 cfl_c: Optional[float] = None,
                 varpi1: Optional[float] = None,
                 cross_coupling: Optional[float] = None) -> ProblemSpec:
    """Wire up one of the library problems as a full ProblemSpec."""
    if name in ("ex1", "ex2"):
        ic, bcs, lift, forcing, exact = _lifted_setup(name, alpha, oscillatory=False)
        return ProblemSpec(
            family="diffusion", alpha=alpha, domain=_DOMAINS[name], K=K, N=N,
            T=0.5 if T is None else T, label=name, flux=flux,
            eps=example_epsilon(name, alpha),
            ic=ic, bcs=bcs, lift=lift, forcing=forcing, exact=exact, cfl_c=cfl_c,
        )
    if name in ("ex3", "ex4"):
        ic, bcs, lift, forcing, exact = _lifted_setup(name, alpha, oscillatory=False)
        return ProblemSpec(
            family="convection_diffusion", alpha=alpha, domain=_DOMAINS[name],
            K=K, N=N, T=1.0 if T is None else T, label=name, flux=flux,
            eps=example_epsilon(name, alpha), conv=burgers_flux(),
            ic=ic, bcs=bcs, lift=lift, forcing=forcing, exact=exact, cfl_c=cfl_c,
        )
    if name in ("ex5", "ex6"):
        ic = initial_condition_library("step_ramp" if name == "ex5" else "gauss2")
        return ProblemSpec(
            family="convection_diffusion", alpha=alpha, domain=(-10.0, 10.0),
            K=K, N=N, T=3.0 if T is None else T, label=name, flux=flux,
            eps=1.0, conv=burgers_flux(), ic=ic, cfl_c=cfl_c,
        )
    if name == "ex7":
        ic, bcs, lift, forcing, exact = _lifted_setup(name, alpha, oscillatory=True)
        return ProblemSpec(
            family="nls", alpha=alpha, domain=_DOMAINS[name], K=K, N=N,
            T=0.5 if T is None else T, label=name, flux=flux,
            eps=example_epsilon(name, alpha), nonlinearity=_cubic,
            ic=ic, bcs=bcs, lift=lift, forcing=forcing, exact=exact, cfl_c=cfl_c,
        )
    if name == "ex8":
        ic, bcs, lift, forcing, exact = _lifted_setup(name, alpha, oscillatory=True)
        eps = example_epsilon(name, alpha)
        return ProblemSpec(
            family="coupled_nls", alpha=alpha, domain=_DOMAINS[name], K=K, N=N,
            T=0.5 if T is None else T, label=name, flux=flux,
            eps=eps, coupling=((1.0, 1.0), (1.0, 1.0)), nonlinearity=_total_density,
            ic=ic, bcs=bcs, lift=lift, forcing=forcing, exact=exact, cfl_c=cfl_c,
        )
    if name == "nls_soliton":
        return ProblemSpec(
            family="nls", alpha=alpha, domain=(-25.0, 25.0), K=K, N=N,
            T=1.0 if T is None else T, label=name, flux=flux,
            eps=2.0, nl_eps=2.0, nonlinearity=_cubic,
            ic=initial_condition_library("nls_soliton"), cfl_c=cfl_c,
        )
    if name == "nls_two_soliton":
        return ProblemSpec(
            family="nls", alpha=alpha, domain=(-25.0, 25.0), K=K, N=N,
            T=1.0 if T is None else T, label=name, flux=flux,
            eps=1.0, nl_eps=2.0, nonlinearity=_cubic,
            ic=initial_condition_library("nls_two_soliton"), cfl_c=cfl_c,
        )
    if name == "coupled_strong":
        # linearly coupled cubic system; varpi1 sets the cross coupling w2
        # (the self coupling w1 is 1), not the paper's varpi1
        w2 = 1.0 if varpi1 is None else varpi1
        return ProblemSpec(
            family="coupled_nls", alpha=alpha, domain=(-40.0, 40.0), K=K, N=N,
            T=20.0 if T is None else T, label=name, flux=flux,
            coupling=((1.0, w2), (w2, 1.0)), nonlinearity=_total_density,
            ic=initial_condition_library("colliding_sech_pair"), cfl_c=cfl_c,
        )
    if name == "manakov":
        beta = 1.0 if cross_coupling is None else cross_coupling
        return ProblemSpec(
            family="coupled_nls", alpha=alpha, domain=(-40.0, 40.0), K=K, N=N,
            T=5.0 if T is None else T, label=name, flux=flux,
            nonlinearity=lambda rho, b=beta: (rho[0] + b * rho[1], b * rho[0] + rho[1]),
            ic=initial_condition_library("colliding_sech_pair"),
            exact=_manakov_exact() if beta == 1.0 and alpha == 2.0 else None,
            cfl_c=cfl_c,
        )
    raise KeyError(f"unknown example {name!r}")
