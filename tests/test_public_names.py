"""The public surface: every module's ``__all__``, sorted.  Adding or removing
a public name needs an edit here."""

import importlib
import pkgutil

import susyband

NAMES = {
    "analysis": (
        "BoundState", "InvarianceReport", "bound_states_in_gaps", "compare_band_structure",
        "displacement_fit", "invariance_test", "shooting_eigenvalue",
    ),
    "cli": ("main", "run"),
    "darboux": (
        "KernelState", "TransformResult", "apply_intertwiner", "factorization_residual", "susy1",
        "susy2", "write_transform_csv",
    ),
    "elliptic": ("complete_k", "jacobi_sncndn", "sn_squared"),
    "floquet": (
        "BandStructure", "DEFAULT_ATOL", "DEFAULT_RTOL", "EDGE_TOL", "EnergyClass",
        "TransferMatrix", "band_edges", "bloch_vectors", "cell_matrices", "classify",
        "classify_discriminant", "discriminant", "discriminants", "growing_multiplier",
        "multipliers_from_discriminant", "propagate", "transfer_matrices", "transfer_matrix",
        "write_discriminant_csv",
    ),
    "numdiff": (
        "BOUNDARY_CELLS", "cell_max", "derivative", "itp_root", "local_max", "second_derivative",
        "sign_changes",
    ),
    "potentials": (
        "ConstantPotential", "LamePotential", "Potential", "ShiftedPotential",
        "TabulatedPotential", "lame", "potential_from_dict", "potential_from_json",
    ),
    "scenarios": ("SCENARIOS", "Scenario", "ScenarioRun", "band_structure_for", "run_scenario"),
    "seeds": (
        "DEFAULT_PERIODS", "RICCATI_GATE", "SeedSolution", "SuperpotentialTrace", "bloch_seed",
        "general_seed", "node_scan", "nodeless_mixing", "superpotential", "window_grid",
        "write_seed_csv",
    ),
}


def test_public_names():
    found = {}
    for info in pkgutil.iter_modules(susyband.__path__):
        module = importlib.import_module(f"susyband.{info.name}")
        if hasattr(module, "__all__"):
            found[info.name] = tuple(sorted(module.__all__))
            assert all(hasattr(module, name) for name in module.__all__), info.name
    assert found == NAMES
