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

import math
from dataclasses import dataclass, field

import numpy as np

from .entangle_circle import CoefficientMatrix, EntangledPair, PairParams, SectorPair
from .numerics import DEFAULT_TERMS, SeriesValue, stable_norm_sq
from .states import CircleLabel, CoefficientSequence, Parity, as_circle_label, cat_projection

DEFAULT_FOCK_DIM = 32

_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10


def cat_displacement(value) -> complex:
    """``value`` as the complex displacement of a cat slot; it must be finite."""
    value = complex(value)
    if not math.isfinite(abs(value)):
        raise ValueError("cat displacements must be finite")
    return value


@dataclass(frozen=True)
class CatPairParams(PairParams):
    """Parameter bundle for an entangled pair projected onto cat states."""

    alpha: complex
    beta: complex
    phi: CircleLabel
    phi_prime: CircleLabel
    rho: float
    coercions = (cat_displacement, cat_displacement, as_circle_label, as_circle_label)


# the cat pair: conjugated cat slots, the circle's -e^(i rho) on the swapped term
CAT_PAIR = EntangledPair(cat_projection, swap_sign=-1.0, amp_prefactor=0.5)


def cat_coefficient_matrix(
    params: CatPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> CoefficientMatrix:
    return CAT_PAIR.matrix(params.parts, pair, terms, params.rho)


def cat_entangled_probability(
    params: CatPairParams,
    pair: SectorPair,
    terms: int = DEFAULT_TERMS,
) -> SeriesValue:
    """P = sum |c_nm|^2 with cat coefficient families in the slots."""
    return cat_coefficient_matrix(params, pair, terms).series_value()


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
    """Fock coefficients of |alpha>: e^(-|alpha|^2/2) alpha^k / sqrt(k!),
    the even and odd cat projections onto phi = 0 interleaved.  Raises
    "increase terms" where the series is not yet decaying at ``dim``."""
    terms = (dim + 1) // 2
    vec = np.empty(2 * terms, dtype=complex)
    for parity in Parity:
        seq = cat_projection(alpha, CircleLabel(0.0), parity, terms, prefactor=False)
        vec[parity::2] = seq.terms
    return vec[:dim]


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
    if dim < 4:
        raise ValueError("dim must be >= 4")
    vp, sign, norm = _cat_ket(alpha, parity, dim)
    vm = coherent_fock_vector(-complex(alpha), dim)
    block = (
        np.outer(vp, vp.conj())
        + np.outer(vm, vm.conj())
        + sign * (np.outer(vm, vp.conj()) + np.outer(vp, vm.conj()))
    )
    return _renormalized(block / norm, "fock")


def _cat_ket(alpha: complex, parity: Parity, dim: int):
    """(|a>, sign = (-1)^parity, norm = 2 (1 + sign e^(-2|a|^2))) of the cat
    of ``parity`` over ``dim`` Fock states; undefined if odd at alpha = 0."""
    alpha = complex(alpha)
    if parity is Parity.ODD and alpha == 0:
        raise ValueError("odd cat state is undefined at alpha = 0")
    sign = (-1.0) ** parity
    norm = 2.0 * (1.0 + sign * math.exp(-2.0 * abs(alpha) ** 2))
    return coherent_fock_vector(alpha, dim), sign, norm


def _embedded_unit_vector(seq: CoefficientSequence, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    ks = 2 * np.arange(len(seq)) + seq.parity
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


def cat_overlap_block(alpha: complex, parity: Parity, dim: int = DEFAULT_FOCK_DIM) -> np.ndarray:
    """The coherent-overlap cross block
    (|-a><a| + |a><-a|)/(2(1 +- e^(-2|a|^2))) of the cat density matrix.

    With e and o the even and odd parts of |a> (|-a> = e - o), the block is
    2 (e e^+ - o o^+)/norm, built so from the one vector |a>: it is
    parity-diagonal, its even/odd entries exactly 0, so it is not an
    even/odd block.
    """
    vec, _, norm = _cat_ket(alpha, parity, dim)
    even, odd = vec.copy(), vec.copy()
    even[1::2], odd[::2] = 0.0, 0.0
    return 2.0 * (np.outer(even, even.conj()) - np.outer(odd, odd.conj())) / norm


def cat_overlap_block_norm(alpha: complex, parity: Parity, dim: int = DEFAULT_FOCK_DIM) -> float:
    """Frobenius norm of :func:`cat_overlap_block`, 2 sqrt(|e|^4 + |o|^4)/norm.
    The sector-basis matrices carry no such cross-projector block; for the
    cat matrices it is nonzero whenever alpha != 0, which is the structural
    sense in which the cat representation is not minimal.
    """
    return float(np.sqrt(stable_norm_sq(cat_overlap_block(alpha, parity, dim))))
