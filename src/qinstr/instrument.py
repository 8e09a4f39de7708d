"""Completely positive instruments in Kraus form: channel action, POV measure,
outcome probabilities, a posteriori states and seeded random generation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matcore
from .errors import (
    DimensionMismatch,
    SingularNormalizer,
    UnknownOutcome,
)
from .qstate import (
    ClassicalDist,
    DensityMatrix,
    Povm,
    maximally_mixed,
    validate_density,
)

NORMALIZATION_TOL = 1e-9
ZERO_PROB_TOL = 1e-12


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map rho -> sum_k K_k rho K_k^dag, H1 -> H2."""

    dim_in: int
    dim_out: int
    kraus: tuple

    def __post_init__(self):
        kraus = tuple(matcore.as_matrix(k) for k in self.kraus)
        for k in kraus:
            if k.shape != (self.dim_out, self.dim_in):
                raise DimensionMismatch(
                    f"Kraus operator shape {k.shape}, expected ({self.dim_out},{self.dim_in})"
                )
        object.__setattr__(self, "kraus", kraus)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim_out, self.dim_out), dtype=np.complex128)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def effect(self) -> np.ndarray:
        """sum_k K_k^dag K_k on H1."""
        out = np.zeros((self.dim_in, self.dim_in), dtype=np.complex128)
        for k in self.kraus:
            out += k.conj().T @ k
        return out


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed family of Kraus maps, jointly trace-preserving."""

    outcomes: tuple
    maps: tuple

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        maps = tuple(self.maps)
        if len(outcomes) != len(maps) or not maps:
            raise DimensionMismatch("need one Kraus map per outcome")
        d1 = maps[0].dim_in
        d2 = maps[0].dim_out
        if any(m.dim_in != d1 or m.dim_out != d2 for m in maps):
            raise DimensionMismatch("Kraus maps have inconsistent dimensions")
        total = sum(m.effect() for m in maps)
        dev = np.max(np.abs(total - np.eye(d1)))
        if dev > NORMALIZATION_TOL:
            raise DimensionMismatch(
                f"sum of effects deviates from identity by {dev:.3e}"
            )
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "maps", maps)

    @property
    def dim_in(self) -> int:
        return self.maps[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.maps[0].dim_out

    def map_for(self, outcome) -> KrausMap:
        try:
            return self.maps[self.outcomes.index(outcome)]
        except ValueError:
            raise UnknownOutcome(f"no outcome {outcome!r}") from None


@dataclass(frozen=True)
class AposterioriFamily:
    """Outcome probabilities plus normalized conditional states."""

    probs: ClassicalDist
    states: tuple
    default_state: DensityMatrix


def apply_outcome(ins: Instrument, rho: DensityMatrix, outcome) -> np.ndarray:
    """Unnormalized positive output for a single outcome."""
    if rho.dim != ins.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    return ins.map_for(outcome).apply(rho.mat)


def povm_of(ins: Instrument) -> Povm:
    return Povm(ins.outcomes, tuple(m.effect() for m in ins.maps))


def outcome_probs(ins: Instrument, rho: DensityMatrix) -> ClassicalDist:
    if rho.dim != ins.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    probs = np.array(
        [float(np.trace(m.effect() @ rho.mat).real) for m in ins.maps]
    )
    probs = np.maximum(probs, 0.0)
    return ClassicalDist(ins.outcomes, probs / probs.sum())


def a_posteriori(
    ins: Instrument, rho: DensityMatrix, default: Optional[DensityMatrix] = None
) -> AposterioriFamily:
    """Normalized conditional states; the fixed default on null outcomes."""
    if default is None:
        default = maximally_mixed(ins.dim_out)
    if default.dim != ins.dim_out:
        raise DimensionMismatch(f"default dim {default.dim} vs dim_out {ins.dim_out}")
    probs = []
    states = []
    for outcome, m in zip(ins.outcomes, ins.maps):
        out = m.apply(rho.mat)
        tr = float(np.trace(out).real)
        probs.append(max(tr, 0.0))
        if tr > ZERO_PROB_TOL:
            states.append(validate_density(out / tr))
        else:
            states.append(default)
    probs = np.array(probs)
    dist = ClassicalDist(ins.outcomes, probs / probs.sum())
    return AposterioriFamily(dist, tuple(states), default)


def _apply_to_stack(ins: Instrument, rhos: np.ndarray) -> np.ndarray:
    """Unnormalized outputs [outcome, n] of every map on an (n, d1, d1) stack."""
    return np.stack([
        np.einsum("kij,njl,kml->nim", k, rhos, k.conj())
        for k in (np.stack(m.kraus) for m in ins.maps)
    ])


def a_posteriori_stack(ins: Instrument, rhos: np.ndarray) -> tuple:
    """a_posteriori for each state of an (n, d1, d1) stack: outcome probabilities
    and conditional states, both indexed [outcome, n], maximally mixed on null
    outcomes. The states are not validated here."""
    outs = _apply_to_stack(ins, rhos)
    tr = np.trace(outs, axis1=-2, axis2=-1).real
    live = tr > ZERO_PROB_TOL
    d2 = ins.dim_out
    states = np.where(
        live[..., None, None],
        outs / np.where(live, tr, 1.0)[..., None, None],
        np.eye(d2) / d2,
    )
    probs = np.maximum(tr, 0.0)
    return probs / probs.sum(axis=0), states


def min_output_purity(ins: Instrument, kets: np.ndarray) -> float:
    """Least purity of the normalized non-null outputs, over every outcome and
    every unit ket of an (n, d1) stack; 1 when there are none."""
    outs = _apply_to_stack(ins, np.einsum("ni,nj->nij", kets, kets.conj()))
    tr = np.trace(outs, axis1=-2, axis2=-1).real
    live = tr > ZERO_PROB_TOL
    purity = np.einsum("onij,onji->on", outs, outs).real[live] / tr[live] ** 2
    return float(np.min(purity, initial=1.0))


def total_channel(ins: Instrument, rho: DensityMatrix) -> DensityMatrix:
    """Non-selective post-measurement state."""
    if rho.dim != ins.dim_in:
        raise DimensionMismatch(f"state dim {rho.dim} vs instrument dim_in {ins.dim_in}")
    out = sum(m.apply(rho.mat) for m in ins.maps)
    return validate_density(out)


def channel_roundtrip(ins: Instrument) -> Instrument:
    """Rebuild the instrument from its channel action on the matrix units.

    For each outcome, the action is sampled on the matrix-unit basis of H1,
    assembled into the Choi matrix and refactored into Kraus form; the result
    acts identically on all inputs.
    """
    d1, d2 = ins.dim_in, ins.dim_out
    new_maps = []
    for m in ins.maps:
        choi = np.zeros((d1 * d2, d1 * d2), dtype=np.complex128)
        for j in range(d1):
            for k in range(d1):
                unit = np.zeros((d1, d1), dtype=np.complex128)
                unit[j, k] = 1.0
                block = m.apply(unit)
                choi[j * d2 : (j + 1) * d2, k * d2 : (k + 1) * d2] = block
        vals, vecs = matcore.herm_eig(choi)
        kraus = []
        for lam, vec in zip(vals, vecs.T):
            if lam > ZERO_PROB_TOL:
                kraus.append(np.sqrt(lam) * vec.reshape(d1, d2).T)
        new_maps.append(KrausMap(d1, d2, tuple(kraus)))
    return Instrument(ins.outcomes, tuple(new_maps))


def random_instrument(
    d1: int, d2: int, n_outcomes: int, kraus_per_outcome: int, seed: int
) -> Instrument:
    """Ginibre-drawn Kraus operators, right-normalized by S^{-1/2}."""
    if min(d1, d2, n_outcomes, kraus_per_outcome) < 1:
        raise DimensionMismatch("all dimensions and counts must be positive")
    rng = np.random.default_rng(seed)
    raw = [
        [
            (rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1)))
            / np.sqrt(2.0)
            for _ in range(kraus_per_outcome)
        ]
        for _ in range(n_outcomes)
    ]
    s = sum(k.conj().T @ k for group in raw for k in group)
    spec = matcore.herm_eig(s)
    if spec.eigenvalues[0] < 1e-12:
        raise SingularNormalizer(f"normalizer eigenvalue {spec.eigenvalues[0]:.3e} too small")
    s_inv_sqrt = matcore.spectral_apply(spec, lambda x: x ** -0.5)
    maps = tuple(
        KrausMap(d1, d2, tuple(k @ s_inv_sqrt for k in group)) for group in raw
    )
    return Instrument(tuple(range(n_outcomes)), maps)


def instrument_to_json(ins: Instrument) -> dict:
    return {
        "dim_in": ins.dim_in,
        "dim_out": ins.dim_out,
        "outcomes": list(ins.outcomes),
        "kraus": [[matcore.matrix_to_json(k) for k in m.kraus] for m in ins.maps],
    }


def instrument_from_json(obj: dict) -> Instrument:
    d1 = int(obj["dim_in"])
    d2 = int(obj["dim_out"])
    maps = tuple(
        KrausMap(d1, d2, tuple(matcore.matrix_from_json(k) for k in group))
        for group in obj["kraus"]
    )
    return Instrument(tuple(obj["outcomes"]), maps)
