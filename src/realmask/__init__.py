"""Masking a real ququart into path/polarization correlations.

Subpackages: `qcore` (states and exact algebra), `masker` (the masking
isometry), `walk` (the coined-walk realization and the dense, batched rail
engine), `optics` (the Jones-calculus table, run on that engine), `measure`
(Pauli probability tables and finite-shot sampling), `estimate` (fidelity
verification, tomography, correlation decoding), `experiments`/`cli` (figure
pipelines).
"""
from .estimate import agresti_coull, decode_real_state, qsv_run
from .masker import hr_unitaries, mask_pure, masker_matrix
from .measure import derive_seed, derive_seeds, generator, sample_counts
from .qcore import fidelity_with_pure, partial_trace, purity
from .walk import encode_input, extract_two_qubit, masking_schedule

__version__ = "0.1.0"

__all__ = [
    "agresti_coull",
    "decode_real_state",
    "derive_seed",
    "derive_seeds",
    "encode_input",
    "extract_two_qubit",
    "fidelity_with_pure",
    "generator",
    "hr_unitaries",
    "mask_pure",
    "masker_matrix",
    "masking_schedule",
    "partial_trace",
    "purity",
    "qsv_run",
    "sample_counts",
    "__version__",
]
