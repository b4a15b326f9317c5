"""The operators of `fock` applied termwise to a `FockVector` (f_z_op,
e_z_op, b_plus_op, b_minus_op), and plethysm_class, the class of
s_mu[p_e] via Murnaghan-Nakayama characters.  No command but `selftest`
loads this module."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError, UnsupportedParameterError
from .fock import TermMap, _check_truncation, box_term_map, heisenberg_term_map
from .fockspace import FockVector
from .params import CherednikParams, Residue
from .partitions import Multipartition, Partition, enumerate_partitions, ribbon_additions


def basis_vector(lam: Multipartition, truncation: int) -> FockVector:
    return FockVector(lam.level, truncation, {lam: Fraction(1)})


def _apply_termwise(v: FockVector, term_map: TermMap) -> FockVector:
    if v.level != term_map.params.level:
        raise InvalidInputError(
            f"vector level {v.level} does not match parameter level {term_map.params.level}"
        )
    for lam in v.entries:
        _check_truncation(lam.size + term_map.raising, v.truncation)
    out: dict[Multipartition, Fraction] = {}
    for lam, c in v.entries.items():
        for mu, w in term_map.moves(lam):
            out[mu] = out.get(mu, Fraction(0)) + c * w
    return FockVector(v.level, v.truncation, out)


def f_z_op(v: FockVector, z: Residue, params: CherednikParams) -> FockVector:
    """Sum of all single-box additions of residue z, coefficient 1."""
    return _apply_termwise(v, box_term_map(params, z, remove=False))


def e_z_op(v: FockVector, z: Residue, params: CherednikParams) -> FockVector:
    """Sum of all single-box removals of residue z, coefficient 1."""
    return _apply_termwise(v, box_term_map(params, z, remove=True))


def b_plus_op(
    v: FockVector, d: int, params: CherednikParams, model: str = "ribbon"
) -> FockVector:
    """Degree-d raising Heisenberg operator: add one d*e-ribbon to a
    single component, sign (-1)^(ribbon height).  Every label takes at
    least one ribbon, so a label that would overflow the truncation is
    rejected before any ribbon is built."""
    return _apply_termwise(v, heisenberg_term_map(d, params, model, remove=False))


def b_minus_op(
    v: FockVector, d: int, params: CherednikParams, model: str = "ribbon"
) -> FockVector:
    """Degree-d lowering Heisenberg operator, adjoint to b_plus_op."""
    return _apply_termwise(v, heisenberg_term_map(d, params, model, remove=True))


def _mn_character(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Symmetric group character chi^mu(rho) by Murnaghan-Nakayama."""
    return _mn_column(rho)[Partition(mu)]


@lru_cache(maxsize=None)
def _mn_column(rho: tuple[int, ...]) -> Counter:
    """chi^lambda(rho) for every lambda of size |rho|.  Murnaghan-Nakayama
    strips signed ribbons of lengths rho[0], rho[1], ... from lambda down
    to the empty shape; read backwards, that adds ribbons of lengths
    rho[-1], ..., rho[0] to the empty shape, so one signed sum of shapes
    per step gives every lambda at once and each column is built once."""
    layer = Counter({Partition(()): 1})
    for length in reversed(rho):
        above: Counter = Counter()
        for shape, coeff in layer.items():
            for mv in ribbon_additions(shape, length):
                above[mv.result] += mv.sign * coeff
        layer = above
    return layer


def _z_rho(rho: Partition) -> int:
    return math.prod(
        part**m * math.factorial(m) for part, m in Counter(rho).items()
    )


def plethysm_class(mu, e: int) -> FockVector:
    """Class of s_mu[p_e] in the level-1 Fock space, truncation e*|mu|.

    Expands s_mu = sum_rho chi^mu(rho)/z_rho * p_rho and substitutes
    p_d -> B_d acting on the vacuum, so the result is the alternating
    sum of e*|mu|-sized terms whose coefficients are the e-ribbon
    tableau signs.
    """
    mu = Partition(mu)
    if e < 2:
        raise UnsupportedParameterError(
            f"plethysm classes need quantization e >= 2, got {e}"
        )
    n = mu.size
    truncation = e * n
    params = CherednikParams(1, Fraction(-1, e), [0])
    vacuum = Multipartition([[]])
    acc = FockVector(1, truncation)
    for rho in enumerate_partitions(n):
        chi = _mn_character(mu, rho)
        if chi == 0:
            continue
        vec = basis_vector(vacuum, truncation)
        for part in rho:
            vec = b_plus_op(vec, part, params, model="ribbon")
        acc = acc + vec.scale(Fraction(chi, _z_rho(rho)))
    return acc
