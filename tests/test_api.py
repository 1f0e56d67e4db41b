"""The package's public surface: what `rvlbm` exports and what README imports from it."""

import importlib
import pathlib
import re

import pytest

import rvlbm

EXPORTS = (
    "BranchAmbiguity", "DimensionMismatch", "MomentPolynomial", "NonConstantShift",
    "NonLatticeVelocity", "OrderUnavailable", "PoorFit", "SchemaError", "SchemeError",
    "SchemeSpec", "SingularMatrix", "ValidationError", "VelocitySet", "VelocityShift",
    "amplification_matrix", "analyze_payload", "build_moment_matrix", "collide",
    "compare_with_prediction", "conservation_defaults", "convergence_payload",
    "derive_equivalent_equation", "dhumieres_crosscheck", "dispersion_payload",
    "dominant_eigenvalue", "equilibrium_state", "extract_symbol_series",
    "fourier_mode_state", "geometric_dt_sequence", "initial_state", "load_config",
    "make_state", "reference_config", "refinement_study", "residual_pair", "run",
    "simulate_payload", "sine_density", "step", "stream", "transition_prediction",
    "verify_report",
)

# Names the package does not export, each reached through the module that defines it.
MODULE_NAMES = {
    "config": ("ExperimentConfig", "InitialData", "default_k_samples"),
    "dispersion": ("AmplificationMatrix", "ComparisonReport", "SymbolSeries",
                   "predicted_symbols", "von_neumann_radius"),
    "equivalent": ("EquivalentEquation", "XiPrediction", "advection_vector",
                   "momentum_velocity_tensor"),
    "experiments": ("save_snapshot",),
    "lattice": ("MomentMatrix", "default_basis", "validate_basis"),
    "scheme": ("StateField", "density", "moment_field"),
}

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> set[str]:
    """Every name that a `from rvlbm import` line in README's code blocks imports."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    names = set()
    for block in blocks:
        for grouped, single in re.findall(r"^from rvlbm import (?:\(([^)]*)\)|([^\n(]+))$",
                                          block, re.M):
            names.update(n.strip() for n in (grouped or single).split(",") if n.strip())
    return names


def test_exports_are_the_documented_api():
    assert sorted(rvlbm.__all__) == sorted(EXPORTS)
    assert len(EXPORTS) == 42
    assert [name for name in EXPORTS if not hasattr(rvlbm, name)] == []


def test_readme_imports_only_exported_names():
    names = readme_imports()
    assert {"SchemeSpec", "derive_equivalent_equation", "run"} <= names
    assert names <= set(rvlbm.__all__)


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_unexported_names_import_from_their_module(module):
    names = MODULE_NAMES[module]
    assert [n for n in names if not hasattr(importlib.import_module(f"rvlbm.{module}"), n)] == []
    assert set(names).isdisjoint(rvlbm.__all__)
