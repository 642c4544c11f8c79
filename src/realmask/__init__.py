"""Masking a real ququart into path/polarization correlations.

Callers import its modules, which the package does not re-export: `qcore`
(states and exact algebra), `masker` (the masking isometry), `walk` (the
coined-walk realization and the dense, batched rail engine), `optics` (the
Jones-calculus table, run on that engine), `measure` (Pauli probability tables
and finite-shot sampling), `estimate` (fidelity verification, tomography,
correlation decoding), `experiments`/`cli` (figure pipelines).
"""
