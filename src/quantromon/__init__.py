"""Modeling and analysis toolkit for the quantromon qubit-resonator circuit.

Closed-form and exact-diagonalization spectra of the two-mode quartic
Hamiltonian, flux tuning of the junction energies, T1 budgets with the
equivalent-transmon Purcell comparison, and simulated dispersive single-shot
readout with double-Gaussian histogram analysis.
"""

from .analytic import (
    BareModes,
    SpectrumResult,
    asymmetric_corrections,
    bare_modes,
    dressed_spectrum,
    invert_chi,
)
from .coherence import (
    CoherenceConfig,
    CoherenceReport,
    coherence_report,
    combine,
    t1_dielectric,
    t1_purcell,
    transmon_equivalent_g,
)
from .flux import (
    FluxConfig,
    FluxMode,
    SweepRow,
    evaluate_flux_point,
    fit_both_squids_area,
    fit_one_squid,
    sweep,
    tuned_junctions,
)
from .numeric import (
    Truncation,
    build_hamiltonian,
    eigensolve,
    extract_observables,
    label_states,
    numeric_spectrum,
    parity_sectors,
)
from .params import (
    CODATA2018,
    CircuitParams,
    ModeEnergies,
    PhysicalConstants,
    ValidationReport,
    derive_energies,
    validate,
)
from .readout import (
    FidelityReport,
    GaussianMixtureFit,
    ReadoutParams,
    ShotSet,
    error_vs_integration,
    export_shots_csv,
    fidelity_report,
    fit_double_gaussian,
    import_shots_csv,
    phase_separation,
    reflection_coefficient,
    simulate_shots,
    threshold,
)

__version__ = "0.1.0"
