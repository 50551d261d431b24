"""Modeling and analysis toolkit for the quantromon qubit-resonator circuit.

Closed-form and exact-diagonalization spectra of the two-mode quartic
Hamiltonian, flux tuning of the junction energies, T1 budgets with the
equivalent-transmon Purcell comparison, and simulated dispersive single-shot
readout with double-Gaussian histogram analysis.
"""

__version__ = "0.1.0"
