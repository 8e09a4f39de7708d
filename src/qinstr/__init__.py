"""Quantum instruments, measurement entropies and information bounds."""

from .qstate import Ensemble
from .instrument import Instrument, KrausMap

__version__ = "0.1.0"
EIG_BACKEND = "lapack+closed2+trig3"  # matcore: LAPACK, but eigvalsh in closed form at d = 2 and on large 3 x 3 stacks

__all__ = [
    "EIG_BACKEND",
    "Ensemble",
    "Instrument",
    "KrausMap",
]
