"""Built-in invariant suites behind the `selftest` subcommand.

This module is the one home of every cross-check between independent
realizations; the test suite calls these functions rather than
re-implementing them.  Each invariant is a function of explicit
parameters (a parameter point and a size bound, say), and each entry of
`CHECKS` runs one invariant over the shared parameter grid `GRID`.

`quick` runs the first five grid points (levels 1 and 2) at small
bounds and keeps every suite within a few seconds.  `full` runs the
whole grid, level 3 included, at the widest bounds any test uses; it is
the depth the test suite (tier-1) runs.  At both depths
`filtration-counts` adds one level-4 point up to size 3, kept off the
grid so that the other grid checks do not run it.  The runner prints
one line per check and reports the failure count, so the CLI can exit
nonzero on any red.  The checks are assertions, so under `python -O`
the runner reports one failure instead of running them.
"""

from __future__ import annotations

import traceback
from fractions import Fraction
from typing import Callable

from .crystal import (
    crystal_component,
    crystal_graph,
    e_tilde,
    f_tilde,
    graph_depths,
    is_singular,
    km_depth,
    reduce_signature,
    relevant_residues,
    z_signature,
)
from .fock import (
    FockVector,
    _mn_character,
    _z_rho,
    b_minus_op,
    b_plus_op,
    basis_vector,
    box_term_map,
    charged_to_multipartition,
    e_z_op,
    embed_to_charged,
    f_z_op,
    filtration_dims,
    heisenberg_term_map,
    operator_matrix,
    plethysm_class,
    singular_subspace,
    wedge_e_op,
    wedge_f_op,
)
from .orders import leq_c, preceq
from .params import ChargeDifferenceWall, CherednikParams, Residue, rank_one_verma_hom
from .partitions import (
    Multipartition,
    Partition,
    division_candidates,
    divide_with_remainder,
    enumerate_multipartitions,
    enumerate_partitions,
)
from .supports import WallCrossStep, heis_q, support, wall_cross
from .supports import _two_slot_move, _two_slot_raise

E2 = CherednikParams(1, Fraction(-1, 2), [0])
E3 = CherednikParams(1, Fraction(-1, 3), [0])
GOLDEN = CherednikParams(2, Fraction(-1, 2), [0, -1])

# The shared parameter grid of the grid checks (`_on_grid`).  `quick`
# uses the first five points; level 3 comes last and is checked two sizes
# below the level-1/2 bound, at most up to size 4.
GRID = [
    E2,
    E3,
    GOLDEN,
    CherednikParams(2, Fraction(-1, 3), [0, 1]),
    CherednikParams(2, None, [(0, 0), (1, 1)]),
    CherednikParams(1, Fraction(-1, 3), [1]),
    CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)]),
    CherednikParams(2, None, [0, -1]),
    CherednikParams(3, Fraction(-1, 2), [0, 1, -1]),
    CherednikParams(3, Fraction(-1, 3), [0, 1, -1]),
    CherednikParams(3, Fraction(-2, 3), [0, Fraction(1, 2), -1]),
    CherednikParams(3, None, [0, -1, (1, 1)]),
]


def _grid(full: bool, rational: bool = False, max_level: int = 3):
    points = GRID if full else GRID[:5]
    return [
        p
        for p in points
        if p.level <= max_level and (p.kappa is not None or not rational)
    ]


def _labels(params, bound: int):
    for n in range(bound + 1):
        yield from enumerate_multipartitions(params.level, n)


# -- invariants --------------------------------------------------------


def golden_signature() -> None:
    lam = Multipartition([[2, 2], [3, 1, 1, 1]])
    z = Residue(0, 0)
    sig = z_signature(lam, z, GOLDEN)
    assert sig.word == "++-+-", sig.word
    assert reduce_signature(sig).word == "++-"
    assert e_tilde(lam, z, GOLDEN) == Multipartition([[2, 2], [3, 1, 1]])
    down = f_tilde(lam, z, GOLDEN)
    assert down == Multipartition([[3, 2], [3, 1, 1, 1]])
    assert e_tilde(down, z, GOLDEN) == lam


def crystal_axioms(params, bound: int) -> None:
    """f~ adds one box of its residue, e~ removes one, and they invert
    each other.  (Every e~ move reverses an f~ move of a smaller label,
    so its box residue is checked there.)  Each acting e~ lowers km_depth
    by exactly one, and depth 0 is the same as singular.  The graph of
    every label up to the bound gives the same depths off its edges
    (`graph_depths`), and a vertex has no incoming edge exactly when it is
    singular."""
    graph = crystal_graph(bound, params)
    depths = graph_depths(graph)
    targets = {dst for _, _, dst in graph.edges}
    for lam in _labels(params, bound):
        depth = km_depth(lam, params)
        assert depths[lam] == depth, (lam, depths[lam], depth)
        assert (depth == 0) == is_singular(lam, params) == (lam not in targets), (lam, depth)
        for z in relevant_residues(lam, params):
            down = f_tilde(lam, z, params)
            if down is not None:
                (box,) = set(down.boxes()) - set(lam.boxes())
                assert params.residue(box) == z, (lam, z, down)
                assert e_tilde(down, z, params) == lam, (lam, z, down)
            up = e_tilde(lam, z, params)
            if up is not None:
                assert up.size == lam.size - 1, (lam, z, up)
                assert km_depth(up, params) == depth - 1, (lam, z, up)
                assert f_tilde(up, z, params) == lam, (lam, z, up)


def signature_keys(params, bound: int) -> None:
    """Every signature lists its boxes in strictly increasing c, so the
    signature rule never meets a tie.  Boxes of one residue in components
    i and j have charged contents t/kappa apart (t an integer), so their
    c-values differ by l*t - (i - j); that is zero only when i = j and
    t = 0, one component and one diagonal, and a component has at most
    one addable or removable box per diagonal."""
    for lam in _labels(params, bound):
        for z in relevant_residues(lam, params):
            keys = [params.c_of_box(b) for b, _ in z_signature(lam, z, params).entries]
            assert all(a < b for a, b in zip(keys, keys[1:])), (lam, z, keys)


def level1_singular(params, bound: int) -> None:
    """At level 1, lam is singular iff every part is divisible by e."""
    for lam in _labels(params, bound):
        divisible = all(x % params.e == 0 for x in lam[0])
        assert is_singular(lam, params) == divisible, lam


def restricted_component(params, bound: int) -> None:
    """The level-1 component of the empty partition is the e-restricted
    partitions: consecutive rows differ by less than e."""
    comp = crystal_component(Multipartition([[]]), params, size_bound=bound)
    want = set()
    for lam in _labels(params, bound):
        padded = lam[0] + (0,)
        if all(padded[i] - padded[i + 1] < params.e for i in range(len(padded) - 1)):
            want.add(lam)
    assert set(comp.nodes) == want


def component_isomorphism(params, bound: int) -> None:
    """At level 1, rowwise addition of the singular mu = e*shape maps the
    component of the empty partition onto the component of mu, residues
    kept; the base component runs to size max(bound - |mu|, bound // 2)."""
    for shape in ((1,), (2,), (1, 1)):
        mu = Partition([params.e * x for x in shape])
        assert is_singular(Multipartition([mu]), params), mu

        def shifted(lam):
            rows = range(1, max(len(lam[0]), len(mu)) + 1)
            return Multipartition([[lam[0].row(y) + mu.row(y) for y in rows]])

        size = max(bound - mu.size, bound // 2)
        base = crystal_component(Multipartition([[]]), params, size_bound=size)
        image = crystal_component(
            Multipartition([mu]), params, size_bound=size + mu.size
        )
        assert {shifted(v) for v in base.nodes} == set(image.nodes), mu
        edges = {(shifted(a), z, shifted(b)) for a, z, b in base.edges}
        assert edges == set(image.edges), mu


def division(bound: int) -> None:
    """divide_with_remainder is the one decomposition the search finds."""
    assert divide_with_remainder(Partition([7, 3, 1]), 3) == (
        Partition([1]),
        Partition([4, 3, 1]),
    )
    for n in range(bound + 1):
        for nu in enumerate_partitions(n):
            for e in (2, 3, 4):
                found = list(division_candidates(nu, e))
                assert found == [divide_with_remainder(nu, e)], (nu, e, found)


def heisenberg_models(params, bound: int) -> None:
    """Ribbon and charged-word realizations of B_d and B_{-d} agree."""
    for d in (1, 2):
        for lam in _labels(params, bound):
            v = basis_vector(lam, lam.size + d * params.e)
            for op in (b_plus_op, b_minus_op):
                ribbon = op(v, d, params, "ribbon")
                assert ribbon == op(v, d, params, "wedge"), (lam, d, op.__name__)


def heisenberg_commutator(params, bound: int) -> None:
    """[B_{-d}, B_d] is the scalar d*e*level."""
    for d in (1, 2):
        for lam in _labels(params, bound):
            v = basis_vector(lam, lam.size + d * params.e)
            lhs = b_minus_op(b_plus_op(v, d, params), d, params) - b_plus_op(
                b_minus_op(v, d, params), d, params
            )
            assert lhs == v.scale(d * params.e * params.level), (lam, d)


def heisenberg_box_commute(params, bound: int) -> None:
    """B_1 commutes with every e_z and f_z (the residues of charge class
    0 are all there are at the rational grid points)."""
    for lam in _labels(params, bound):
        v = basis_vector(lam, lam.size + params.e + 1)
        for z in (Residue(0, value) for value in range(params.e)):
            for op in (e_z_op, f_z_op):
                assert op(b_plus_op(v, 1, params), z, params) == b_plus_op(
                    op(v, z, params), 1, params
                ), (lam, z, op.__name__)


def adjointness(params, bound: int) -> None:
    """<B_d lam, mu> = <lam, B_{-d} mu> on basis vectors."""
    for d in (1, 2):
        for n in range(bound + 1):
            top = n + d * params.e
            up = {
                lam: b_plus_op(basis_vector(lam, top), d, params)
                for lam in enumerate_multipartitions(params.level, n)
            }
            for mu in enumerate_multipartitions(params.level, top):
                down = b_minus_op(basis_vector(mu, top), d, params)
                for lam, image in up.items():
                    assert image.coeff(mu) == down.coeff(lam), (lam, mu, d)


def order_refinement(params, bound: int) -> None:
    """The matching order refines the c-order."""
    for n in range(bound + 1):
        nodes = enumerate_multipartitions(params.level, n)
        for lam in nodes:
            for mu in nodes:
                ok = leq_c(lam, mu, params) or not preceq(lam, mu, params)
                assert ok, (lam, mu)


def _supports(params, n: int):
    return [support(lam, params) for lam in enumerate_multipartitions(params.level, n)]


def filtration_counts(params, bound: int) -> None:
    """dim F^{p,q}_n counts the labels of size n with support <= (p, q),
    every p of one q read from a single run as the CLI table does, and
    F^{n, n//e}_n is the whole degree-n space."""
    for n in range(bound + 1):
        rows = _supports(params, n)
        for q in range(n // params.e + 1):
            dims = filtration_dims(n, q, n, params)
            for p in range(n + 1):
                count = sum(1 for s in rows if s.p <= p and s.q <= q)
                assert dims[p] == count, (n, p, q)
        assert dims[n] == len(enumerate_multipartitions(params.level, n)), n


def singular_dimension(params, bound: int) -> None:
    """The degree-n singular subspace has one vector per label of full
    support, (p, q) = (0, 0)."""
    for n in range(bound + 1):
        count = sum(1 for s in _supports(params, n) if s.p == 0 and s.q == 0)
        assert len(singular_subspace(n, params)) == count, n


def embed_intertwines(params, bound: int) -> None:
    """Embedding at charges s + shift carries f_z and e_z to the wedge
    operators on charged words.  Needs integer charges; other points
    have no charged-word embedding and are skipped."""
    if any(c.b != 0 or c.a.denominator != 1 for c in params.s):
        return
    e = params.e
    for shift in (7, 8):
        charges = [shift + int(c.a) for c in params.s]
        for lam in _labels(params, bound):
            word = embed_to_charged(lam, charges)
            v = basis_vector(lam, lam.size + 1)
            for z in relevant_residues(lam, params):
                i = (z.value + shift) % e
                for box_op, wedge_op in ((f_z_op, wedge_f_op), (e_z_op, wedge_e_op)):
                    got = {
                        charged_to_multipartition(w): c
                        for w, c in wedge_op(word, i, e).items()
                    }
                    assert got == dict(box_op(v, z, params).items()), (lam, z)


def plethysm_derivative(mu: Partition, e: int) -> None:
    """B_{-d} s_mu[p_e]|0> = d*e*(ds_mu/dp_d)[p_e]|0> for 1 <= d <= |mu|.

    At level 1, [B_{-d}, B_d] = d*e and B_{-d}|0> = 0, so B_{-d} acts on
    the Heisenberg monomials on the vacuum as d*e*d/dp_d.  The right side
    differentiates s_mu = sum_rho chi^mu(rho)/z_rho p_rho term by term:
    d/dp_d p_rho = m_d(rho) p_rest for rho = rest + (d)."""
    params = CherednikParams(1, Fraction(-1, e), [0])
    n = mu.size
    vec = plethysm_class(mu, e)
    vacuum = basis_vector(Multipartition([[]]), e * n)
    for d in range(1, n + 1):
        want = FockVector(1, e * n)
        for rest in enumerate_partitions(n - d):
            rho = sorted(rest + (d,), reverse=True)
            chi = _mn_character(mu, tuple(rho))
            coeff = Fraction(d * e * rho.count(d) * chi, _z_rho(Partition(rho)))
            term = vacuum
            for part in rest:
                term = b_plus_op(term, part, params)
            want = want + term.scale(coeff)
        assert b_minus_op(vec, d, params) == want, (mu, e, d)


def plethysm_lowering(params, bound: int) -> None:
    """At level 1, every e_z kills s_mu[p_e] for 1 <= |mu| <= bound, and
    each B_{-d} differentiates it (plethysm_derivative)."""
    for n in range(1, bound + 1):
        for mu in enumerate_partitions(n):
            vec = plethysm_class(mu, params.e)
            for value in range(params.e):
                assert e_z_op(vec, Residue(0, value), params).is_zero(), (mu, value)
            plethysm_derivative(mu, params.e)


def support_table() -> None:
    rows = {lam: support(lam, E2) for lam in enumerate_multipartitions(1, 2)}
    two = rows[Multipartition([[2]])]
    assert (two.p, two.q, two.dim_support, two.finite_dimensional) == (0, 1, 0, True)
    col = rows[Multipartition([[1, 1]])]
    assert (col.p, col.q, col.dim_support, col.finite_dimensional) == (2, 0, 1, False)


def level1_finite_dimensional(params, bound: int) -> None:
    """At level 1 and rank 2 <= n <= bound (rank one is degenerate), the
    only finite-dimensional simple, and the only one of zero-dimensional
    support, is (e) at n = e; there is none when e does not divide n."""
    for n in range(2, bound + 1):
        rows = dict(zip(enumerate_multipartitions(1, n), _supports(params, n)))
        finite = [lam for lam, s in rows.items() if s.finite_dimensional]
        if n == params.e:
            point = [lam for lam, s in rows.items() if s.dim_support == 0]
            assert finite == point == [Multipartition([[n]])], (finite, point)
        elif n % params.e:
            assert not finite, (n, finite)


def wall_crossing(params, step, target, bound: int) -> None:
    """Crossing one essential charge wall from params to target permutes
    the labels of each size, is undone by crossing back, and keeps the
    support (p, q) and the crystal operators f~."""
    back = WallCrossStep(step.wall, "down" if step.direction == "up" else "up")
    for n in range(bound + 1):
        basis = enumerate_multipartitions(params.level, n)
        images = {lam: wall_cross(lam, step, params) for lam in basis}
        assert set(images.values()) == set(basis), n
        for lam, image in images.items():
            assert wall_cross(image, back, target) == lam, lam
            before, after = support(lam, params), support(image, target)
            assert (before.p, before.q) == (after.p, after.q), lam
            residues = set(relevant_residues(lam, params))
            residues.update(relevant_residues(image, target))
            for z in residues:
                down = f_tilde(lam, z, params)
                want = None if down is None else wall_cross(down, step, params)
                assert f_tilde(image, z, target) == want, (lam, z)


def heis_q_lowering_choice(params, bound: int) -> None:
    """heis_q does not depend on which component of the charge class 0
    is transported."""
    members = params.classes[0]
    for lam in _labels(params, bound):
        qs = {heis_q(lam, params, lowering={0: j}) for j in members}
        assert len(qs) == 1, (lam, qs)


def transport_crystal(m: int, upper: bool, labels) -> None:
    """The two-slot rule of `level2_transport` is the signature rule of
    the generic-kappa pairs with slot charges (0, m) below the wall, or
    (0, m + 1/kappa) above it: every e~ and f~ agrees, and the transport
    walk raises by the first residue whose e~ acts."""
    params = CherednikParams(2, None, [(0, 0), (m, 1 if upper else 0)])
    for lam in labels:
        raises = []
        for z in relevant_residues(lam, params):
            for sign, op in (("-", e_tilde), ("+", f_tilde)):
                want = op(lam, z, params)
                got = _two_slot_move(lam, z.value, m, upper, sign)
                assert got == want, (lam, m, upper, z, sign, got)
                if sign == "-" and want is not None:
                    raises.append((z.value, want))
        want = raises[0] if raises else None
        assert _two_slot_raise(lam, m, upper) == want, (lam, m, upper)


def transpose_reduction(pos, neg, bound: int) -> None:
    """At positive kappa, the support of lam is that of its transpose at
    the negated parameters.  support reads p from the crystal at the kappa
    it is given, so this compares the crystals at pos and at neg."""
    for lam in _labels(pos, bound):
        assert support(lam, pos) == support(lam.transpose(), neg), lam


def fock_matrix() -> None:
    rows, cols, entries = operator_matrix(heisenberg_term_map(1, E2, "ribbon", False), 0, 2)
    assert cols == [Multipartition([[]])]
    coeffs = {rows[r][0]: val for (r, c), val in entries.items()}
    assert coeffs == {Partition([2]): 1, Partition([1, 1]): -1}


def matrix_columns(params, bound: int) -> None:
    """Each column of an operator_matrix built from a term map is the
    public operator applied to that label's basis vector: f_z and e_z at
    every box residue, and B_{+-d} in both models, in degrees <= bound."""
    zs = sorted({params.residue(b) for lam in _labels(params, bound + 1) for b in lam.boxes()})
    e = params.e
    cases = [  # (public op, its argument and options, term map, degree step)
        (op, z, (), box_term_map(params, z, op is e_z_op), 1)
        for z in zs for op in (f_z_op, e_z_op)
    ] + [
        (op, d, (model,), heisenberg_term_map(d, params, model, op is b_minus_op), d * e)
        for d in (range(1, bound // e + 1) if e else ())
        for model in ("ribbon", "wedge") for op in (b_plus_op, b_minus_op)
    ]
    for op, arg, options, term_map, step in cases:
        for low in range(bound + 1 - step):
            ends = (low + step, low) if op in (e_z_op, b_minus_op) else (low, low + step)
            rows, cols, entries = operator_matrix(term_map, *ends)
            images = [op(basis_vector(lam, low + step), arg, params, *options) for lam in cols]
            want = {(mu, lam): x for lam, v in zip(cols, images) for mu, x in v.entries.items()}
            got = {(rows[r], cols[c]): x for (r, c), x in entries.items()}
            assert got == want, (op.__name__, arg, options, ends)


# -- checks ------------------------------------------------------------


def _on_grid(invariant, quick: int, full: int, **select) -> Callable[[bool], None]:
    """A check running invariant(params, bound) at the grid points that
    `select` picks, with bound `quick` or `full`; level-3 points get two
    sizes less, at most 4."""

    def check(is_full: bool) -> None:
        bound = full if is_full else quick
        for params in _grid(is_full, **select):
            invariant(params, min(bound - 2, 4) if params.level >= 3 else bound)

    return check


# One essential wall per point, crossed upward: (params, step, target).
WALLS = [
    (
        GOLDEN,
        WallCrossStep(ChargeDifferenceWall(0, 1, 1), "up"),
        CherednikParams(2, Fraction(-1, 2), [0, -3]),
    ),
    (
        CherednikParams(2, None, [(0, 0), (0, 0)]),
        WallCrossStep(ChargeDifferenceWall(0, 1, 0), "up"),
        CherednikParams(2, None, [(0, 0), (0, 1)]),
    ),
    (
        CherednikParams(3, Fraction(-1, 3), [0, 10, -10]),
        WallCrossStep(ChargeDifferenceWall(0, 2, 10), "up"),
        CherednikParams(3, Fraction(-1, 3), [0, 10, -13]),
    ),
]


def check_wall_crossing(full: bool) -> None:
    for params, step, target in WALLS:
        wall_crossing(params, step, target, 4 if full else 2)


def check_heis_q_lowering(full: bool) -> None:
    for params in (
        GOLDEN,
        CherednikParams(2, Fraction(-1, 2), [0, 0]),
        CherednikParams(3, Fraction(-1, 3), [0, 1, -1]),
    ):
        heis_q_lowering_choice(params, 4 if full else 2)


def check_transpose_reduction(full: bool) -> None:
    for level, kappa, charges in (
        (1, Fraction(1, 2), [0]),
        (1, Fraction(2, 3), [Fraction(1, 2)]),
        (2, Fraction(1, 2), [0, -1]),
        (2, Fraction(2, 3), [0, Fraction(1, 2)]),
        (3, Fraction(1, 3), [0, 1, -1]),
    ):
        pos = CherednikParams(level, kappa, charges)
        neg = CherednikParams(level, -kappa, [-c for c in charges])
        transpose_reduction(pos, neg, (4 if level == 3 else 6) if full else 2)


def check_rank_one(full: bool) -> None:
    """At n = 1, the simple of the label with its box in component j is
    finite-dimensional exactly when a rank-one standard module maps into
    the one of j in some degree n >= 1, with lowest weights
    h_i = i/l - kappa*s_i.  Checked at the rational grid points of level
    >= 2, at s = (0, 0) for kappa = -+1/2 and at transpose-reduction's
    points; at l = 1 rank one is degenerate (support works on C^0)."""
    extra = [(2, "-1/2", [0, 0]), (2, "1/2", [0, 0]), (2, "1/2", [0, -1]),
             (2, "2/3", [0, "1/2"]), (3, "1/3", [0, 1, -1])]
    for params in [p for p in GRID if p.level >= 2 and p.kappa is not None] + [
        CherednikParams(*point) for point in extra
    ]:
        l, kappa = params.level, params.kappa
        h = [Fraction(i, l) - kappa * s.collapse(kappa) for i, s in enumerate(params.s)]
        for j in range(l):
            lam = Multipartition([[1] if i == j else [] for i in range(l)])
            # a witness degree is None (no map) or n >= 0; only n >= 1 counts
            hom = any(rank_one_verma_hom(l, h, k, j)[1] for k in range(l))
            assert support(lam, params).finite_dimensional == hom, (params, j)


def check_filtration_counts(full: bool) -> None:
    """The grid, then one level-4 point up to size 3."""
    _on_grid(filtration_counts, 2, 5, rational=True)(full)
    filtration_counts(CherednikParams(4, Fraction(-1, 2), [0, 1, -1, 2]), 3)


def check_fock_matrix(full: bool) -> None:
    fock_matrix()
    _on_grid(matrix_columns, 2, 4)(full)


def check_transport_crystal(full: bool) -> None:
    bound = 6 if full else 4
    labels = [lam for n in range(bound + 1) for lam in enumerate_multipartitions(2, n)]
    for m in range(-4, 5):
        for upper in (False, True):
            transport_crystal(m, upper, labels)


CHECKS: list[tuple[str, Callable[[bool], None]]] = [
    ("golden-signature", lambda full: golden_signature()),
    ("crystal-axioms", _on_grid(crystal_axioms, 4, 6)),
    ("signature-keys", _on_grid(signature_keys, 4, 6)),
    ("level1-singular", _on_grid(level1_singular, 6, 8, max_level=1)),
    ("level1-restricted", _on_grid(restricted_component, 4, 8, max_level=1)),
    ("level1-isomorphism", _on_grid(component_isomorphism, 4, 8, max_level=1)),
    ("division", lambda full: division(12 if full else 8)),
    ("heisenberg-models", _on_grid(heisenberg_models, 4, 8, rational=True)),
    ("heisenberg-commutator", _on_grid(heisenberg_commutator, 3, 5, rational=True)),
    ("heisenberg-box-commute", _on_grid(heisenberg_box_commute, 1, 4, rational=True)),
    ("adjointness", _on_grid(adjointness, 1, 3, rational=True)),
    ("order-refinement", _on_grid(order_refinement, 3, 5)),
    ("support-table", lambda full: support_table()),
    ("level1-finite-dimensional", _on_grid(level1_finite_dimensional, 5, 7, max_level=1)),
    ("rank-one", check_rank_one),
    ("wall-crossing", check_wall_crossing),
    ("heis-q-lowering", check_heis_q_lowering),
    ("transpose-reduction", check_transpose_reduction),
    ("transport-crystal", check_transport_crystal),
    ("fock-matrix", check_fock_matrix),
    ("plethysm-lowering", _on_grid(plethysm_lowering, 1, 3, max_level=1)),
    ("singular-dimension", _on_grid(singular_dimension, 2, 5, rational=True)),
    ("filtration-counts", check_filtration_counts),
    ("embed-intertwines", _on_grid(embed_intertwines, 2, 5, rational=True)),
]


def run_selftest(depth: str = "quick", writer=print) -> int:
    """Run every check; returns the number of failures."""
    if not __debug__:
        writer("FAIL assertions are disabled (python -O); no check can fail")
        return 1
    full = depth == "full"
    failures = 0
    for name, fn in CHECKS:
        try:
            fn(full)
        except Exception:
            failures += 1
            writer(f"FAIL {name}")
            writer(traceback.format_exc().rstrip())
        else:
            writer(f"ok   {name}")
    writer(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed ({depth})")
    return failures
