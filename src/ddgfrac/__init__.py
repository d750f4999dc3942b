"""1D direct discontinuous Galerkin solver for fractional convection-diffusion
and (coupled) Schrodinger equations with a Riesz fractional Laplacian of order
alpha in (1, 2]."""

from .ddg_spatial import (
    ConvectionFlux,
    DdgOperators,
    FluxParams,
    check_admissibility,
    convection_rhs,
    default_flux,
    assemble_q_operator,
)
from .fracops import (
    FracOperator,
    assemble_frac_operator,
    riesz_frac_deriv_poly,
)
from .meshbasis import (
    ElementBasis,
    FieldVector,
    Mesh1D,
    build_basis,
    build_mesh,
    eval_field,
    l2_error,
    project,
)
from .models import (
    ProblemSpec,
    SemiDiscreteProblem,
    build_problem,
    make_example,
)
from .specfun import gamma_fn, gauss_jacobi, gauss_legendre
from .timestep import IntegrationError, RunControl, erk4_step, integrate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
