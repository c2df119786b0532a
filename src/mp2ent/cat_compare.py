"""Schroedinger-cat reference computations: cat-projected entanglement
probabilities on the circle, density matrices for cat and Mp(2) bases, and
purity.

The cat pair probability is defined by direct analogy with the Mp(2) case:
the same symmetrized combination and control phase, with cat projection
coefficients in place of the sector projections (and the same circle sign
convention, so coincident-angle pairs cancel at rho = 0).

Density matrices are built over a truncated Fock basis and renormalized to
unit trace; the pre-renormalization trace deficit is kept on the object so
purity checks stay honest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .entangle_circle import (
    CoefficientMatrix,
    SectorPair,
    check_convention,
    entangled_pair,
    grouped_slot,
)
from .numerics import DEFAULT_TERMS, SeriesValue, power_terms, stable_norm_sq
from .states import CircleLabel, CoefficientSequence, Parity, cat_projection

DEFAULT_FOCK_DIM = 32

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class CatPairParams:
    """Parameter bundle for an entangled pair projected onto cat states."""

    alpha: complex
    beta: complex
    phi: CircleLabel
    phi_prime: CircleLabel
    rho: float

    def __post_init__(self) -> None:
        alpha, beta = complex(self.alpha), complex(self.beta)
        if not (math.isfinite(abs(alpha)) and math.isfinite(abs(beta))):
            raise ValueError("cat displacements must be finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def delta(self) -> float:
        return self.phi.phi - self.phi_prime.phi


def cat_coefficient_matrix(
    params: CatPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> CoefficientMatrix:
    full = check_convention(convention)
    if pair in (SectorPair.PM, SectorPair.MM) and (
        params.alpha == 0 or params.beta == 0
    ):
        raise ValueError(
            "odd-sector cat projections need nonzero displacements "
            "(the odd cat component is null at alpha = 0)"
        )

    def slot(alpha: complex, label: CircleLabel, parity: Parity | None):
        seq = cat_projection(alpha, label, parity or Parity.EVEN, terms, prefactor=full)
        if parity is not None:
            return seq
        # grouped even+odd cat projection: odd/even term ratio atilde/sqrt(2n+1)
        atilde = complex(alpha) * cmath.exp(1j * label.phi)
        return grouped_slot(seq, atilde / np.sqrt(2 * np.arange(terms) + 1), abs(atilde))

    return entangled_pair(
        slot, params.alpha, params.beta, params.phi, params.phi_prime, pair,
        params.rho, swap_sign=-1.0, amp_prefactor=0.5,
    )


def cat_entangled_probability(
    params: CatPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
    convention: str = "stripped",
) -> SeriesValue:
    """P = sum |c_nm|^2 with cat coefficient families in the slots."""
    return cat_coefficient_matrix(params, pair, terms, convention).series_value()


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix over a truncated Fock basis.

    ``trace_deficit`` is the trace shortfall (or excess) absorbed by the
    post-truncation renormalization, reported so purity checks stay honest.
    """

    entries: np.ndarray = field(repr=False)
    basis_tag: str
    trace_deficit: float = 0.0

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(entries - entries.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian to tolerance")
        if abs(np.trace(entries).real - 1.0) > _TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def coherent_fock_vector(alpha: complex, dim: int) -> np.ndarray:
    """Fock coefficients of |alpha>: e^(-|alpha|^2/2) alpha^k / sqrt(k!)."""
    alpha = complex(alpha)
    ks = np.arange(dim)
    return math.exp(-abs(alpha) ** 2 / 2.0) * power_terms(2.0 * alpha, ks)


def _renormalized(matrix: np.ndarray, basis_tag: str) -> DensityMatrix:
    trace = np.trace(matrix).real
    if trace <= 0.0:
        raise ValueError("non-positive trace; state is degenerate at this truncation")
    return DensityMatrix(matrix / trace, basis_tag, trace_deficit=1.0 - trace)


def density_matrix_cat(
    alpha: complex, parity: Parity, dim: int = DEFAULT_FOCK_DIM
) -> DensityMatrix:
    """Cat-state density matrix over the Fock basis,

        rho_(+-) = [ |a><a| + |-a><-a| +- (|-a><a| + |a><-a|) ]
                   / (2 (1 +- e^(-2|a|^2)))

    with + for the even cat and - for the odd one (undefined at alpha = 0).
    """
    alpha = complex(alpha)
    if dim < 4:
        raise ValueError("dim must be >= 4")
    sign = 1.0 if parity is Parity.EVEN else -1.0
    if parity is Parity.ODD and alpha == 0:
        raise ValueError("odd cat state is undefined at alpha = 0")
    vp = coherent_fock_vector(alpha, dim)
    vm = coherent_fock_vector(-alpha, dim)
    block = (
        np.outer(vp, vp.conj())
        + np.outer(vm, vm.conj())
        + sign * (np.outer(vm, vp.conj()) + np.outer(vp, vm.conj()))
    )
    matrix = block / (2.0 * (1.0 + sign * math.exp(-2.0 * abs(alpha) ** 2)))
    return _renormalized(matrix, "fock")


def _embedded_unit_vector(seq: CoefficientSequence, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    ks = 2 * np.arange(len(seq)) + seq.parity.fock_offset
    keep = ks < dim
    vec[ks[keep]] = seq.terms[keep]
    norm = math.sqrt(stable_norm_sq(vec))
    if norm == 0.0:
        raise ValueError("sector state vanishes; cannot normalize")
    return vec / norm


def density_matrix_mp2(
    a: complex,
    b: complex,
    state_even: CoefficientSequence,
    state_odd: CoefficientSequence,
    sign: int = +1,
    dim: int | None = None,
) -> DensityMatrix:
    """Density matrix of the generalized Mp(2) superposition

        (A |even> +- B |odd>) / sqrt(|A|^2 +- |B|^2):

    diagonal blocks weighted |A|^2 and |B|^2, off-diagonal blocks
    +-(B* A |odd><even| + A* B |even><odd|), renormalized to unit trace (the
    minus branch's |A|^2 - |B|^2 normalization leaves a reported deficit).
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    a, b = complex(a), complex(b)
    norm = abs(a) ** 2 + sign * abs(b) ** 2
    if norm <= 0.0:
        raise ValueError("requires |A|^2 +- |B|^2 > 0 (degenerate normalization)")
    if state_even.parity is not Parity.EVEN or state_odd.parity is not Parity.ODD:
        raise ValueError("state_even/state_odd must carry matching parities")
    if dim is None:
        dim = max(2 * len(state_even), 2 * len(state_odd) + 1)
    ev = np.zeros(dim, dtype=complex) if abs(a) == 0 else _embedded_unit_vector(state_even, dim)
    od = np.zeros(dim, dtype=complex) if abs(b) == 0 else _embedded_unit_vector(state_odd, dim)
    block = (
        abs(a) ** 2 * np.outer(ev, ev.conj())
        + abs(b) ** 2 * np.outer(od, od.conj())
        + sign * (b.conjugate() * a * np.outer(od, ev.conj()))
        + sign * (a.conjugate() * b * np.outer(ev, od.conj()))
    )
    return _renormalized(block / norm, "mp2_pair")


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for projectors, 1/rank for maximally mixed states."""
    return float(np.trace(rho.entries @ rho.entries).real)


def sector_off_diagonal_norm(rho: DensityMatrix) -> float:
    """Frobenius norm of the even-odd Fock blocks; exactly zero for
    sector-diagonal matrices."""
    even = np.arange(rho.dim) % 2 == 0
    block = rho.entries[np.ix_(even, ~even)]
    return float(np.sqrt(stable_norm_sq(block)))


def cat_overlap_block_norm(alpha: complex, parity: Parity, dim: int = DEFAULT_FOCK_DIM) -> float:
    """Frobenius norm of the coherent-overlap cross block
    (|-a><a| + |a><-a|)/(2(1 +- e^(-2|a|^2))) of the cat density matrix.

    The sector-basis matrices carry no such cross-projector block; for the
    cat matrices it is nonzero whenever alpha != 0, which is the structural
    sense in which the cat representation is not minimal.
    """
    alpha = complex(alpha)
    sign = 1.0 if parity is Parity.EVEN else -1.0
    if parity is Parity.ODD and alpha == 0:
        raise ValueError("odd cat state is undefined at alpha = 0")
    vp = coherent_fock_vector(alpha, dim)
    vm = coherent_fock_vector(-alpha, dim)
    block = (np.outer(vm, vp.conj()) + np.outer(vp, vm.conj())) / (
        2.0 * (1.0 + sign * math.exp(-2.0 * abs(alpha) ** 2))
    )
    return float(np.sqrt(stable_norm_sq(block)))
