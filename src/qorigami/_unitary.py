"""exp and log of unitaries by eigendecomposition, for `interferometry`.
Kept outside the traced layer modules, so that `perfbench/tracer.py` wraps
each kernel once, as `interferometry.expm` or `interferometry.logm`."""
import numpy as np


class InterferometryError(ValueError):
    """Raised for identity violations, bad systems, or missing data."""


def expm(gen: np.ndarray) -> np.ndarray:
    """exp(gen) = v diag(e^{-iw}) v^dag, where w, v = eigh(i gen); gen must
    be anti-Hermitian to within 1e-12 of its largest entry."""
    defect = np.max(np.abs(gen + gen.conj().T))
    if defect > 1e-12 * np.max(np.abs(gen)):
        raise InterferometryError(
            f"generator is not anti-Hermitian (defect {defect:.2e})")
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def logm(u: np.ndarray) -> np.ndarray:
    """v diag(log w) v^-1, where w, v = eig(u); phases within 1e-12 of -pi
    become +pi, so that a degenerate eigenvalue -1 gets one logarithm."""
    w, v = np.linalg.eig(u)
    log = np.log(w)
    log.imag[log.imag < 1e-12 - np.pi] += 2 * np.pi
    return (v * log) @ np.linalg.inv(v)
