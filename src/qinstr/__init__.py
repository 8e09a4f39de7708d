"""Quantum instruments, measurement entropies and information bounds."""

from .qstate import Ensemble
from .instrument import Instrument, KrausMap

__version__ = "0.1.0"
EIG_BACKEND = "lapack"  # matcore.herm_eig is numpy.linalg.eigh

__all__ = [
    "EIG_BACKEND",
    "Ensemble",
    "Instrument",
    "KrausMap",
]
