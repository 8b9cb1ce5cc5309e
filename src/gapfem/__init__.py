"""Crouzeix-Raviart / Raviart-Thomas toolkit with primal-dual gap error control.

Solves the incompressible Stokes and Navier-Lame problems on 2-D simplicial
meshes, reconstructs equilibrated stresses by Marini-type post-processing,
and certifies errors through primal-dual gap identities that drive an
adaptive refinement loop.
"""

from .adaptive import AdaptiveConfig, IterationRecord, RunReport, eoc, mark_max, run_adaptive
from .duality import (
    AdmissibilityError,
    ElasticitySolution,
    ElasticityTensor,
    StokesSolution,
    energies_stokes,
    gap_indicator_elasticity,
    gap_indicator_stokes,
    gap_indicator_stokes_discrete,
    marini_elasticity,
    marini_stokes,
    oscillation_indicator,
    random_divfree_cr,
    random_divfree_rt,
    strong_convexity_stokes,
)
from .forms import (
    AssemblyError,
    LinearSolveReport,
    NumericalFailure,
    SingularSystemError,
    assemble_elasticity,
    assemble_stokes,
    solve_lifting,
    solve_sparse,
)
from .mesh import (
    DIRICHLET,
    INTERIOR,
    NEUMANN,
    MeshError,
    Triangulation,
    build_triangulation,
    refine_bisection,
    structured_square_mesh,
)
from .problems import (
    ProblemSpec,
    apriori_identity_check_stokes,
    cook_membrane,
    discretize_elasticity,
    discretize_stokes,
    exact_errors,
    get_problem,
    lshape_stokes,
    manufactured_elasticity,
    taylor_green_stokes,
)
from .spaces import (
    CRField,
    P1ConformingField,
    RTField,
    broken_gradient,
    cr_interpolate,
    dev,
    nodal_average,
    pi0,
    rt_interpolate,
)

__version__ = "0.1.0"
