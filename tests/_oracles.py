"""Test-side oracles that the library does not carry."""

import numpy as np


def psd_root(cov):
    """Hermitian PSD square root of ``cov.entries``: eigendecomposition with
    negative rounding-level eigenvalues clipped to zero."""
    w, v = np.linalg.eigh(cov.entries)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
