"""Band structures of one-dimensional periodic potentials and their
supersymmetric (Darboux) partner potentials.

The library computes Floquet discriminants and band edges by transfer-matrix
propagation, builds Bloch and general seed solutions at arbitrary
factorization energies, applies first- and second-order Darboux transforms,
and verifies the spectral claims: band-structure preservation, bound states
created inside gaps, and the displaced-copy (Darboux invariance) phenomenon.
"""

from .analysis import (
    BoundState,
    InvarianceReport,
    bound_states_in_gaps,
    compare_band_structure,
    displacement_fit,
    invariance_test,
    shooting_eigenvalue,
)
from .darboux import (
    KernelState,
    TransformResult,
    apply_intertwiner,
    factorization_residual,
    susy1,
    susy2,
)
from .elliptic import complete_k, jacobi_sncndn, sn_squared
from .errors import (
    BandEnergyError,
    ConfluentTransformError,
    EllipticDomainError,
    PeriodMismatchError,
    SeedConsistencyError,
    SingularSeedError,
    SingularTransformError,
    StiffIntegrationError,
    WindowOverflowError,
)
from .floquet import (
    BandStructure,
    EnergyClass,
    TransferMatrix,
    band_edges,
    classify,
    discriminant,
    discriminants,
    propagate,
    transfer_matrices,
    transfer_matrix,
)
from .potentials import (
    ConstantPotential,
    LamePotential,
    Potential,
    ShiftedPotential,
    TabulatedPotential,
    lame,
    potential_from_dict,
    potential_from_json,
)
from .scenarios import SCENARIOS, ScenarioRun, run_scenario
from .seeds import (
    SeedSolution,
    SuperpotentialTrace,
    bloch_seed,
    general_seed,
    node_scan,
    nodeless_mixing,
    superpotential,
)

__version__ = "0.1.0"
