"""Top-level acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion NN <label>: PASS/FAIL" line (use
pytest -rA to see the lines for passing tests too) and enforces a time
budget where the guarantee has one.  Most criteria run the named
`fockcrystal.selftest` checks at full depth, so each invariant has one
implementation shared with the `selftest` command.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fockcrystal import (
    CherednikParams,
    Multipartition,
    Residue,
    e_tilde,
    e_z_op,
    enumerate_partitions,
    f_tilde,
    plethysm_class,
    reduce_signature,
    z_signature,
)
from fockcrystal.selftest import CHECKS, GOLDEN, plethysm_derivative

GOLDEN_LAM = Multipartition([[2, 2], [3, 1, 1, 1]])

# The selftest checks each criterion runs at full depth; the checks no
# criterion names run one by one in test_selftest_check.
CRITERION_CHECKS = {
    2: ["crystal-axioms"],
    3: ["level1-singular", "level1-restricted", "level1-isomorphism"],
    4: ["division"],
    5: [
        "heisenberg-models",
        "heisenberg-commutator",
        "heisenberg-box-commute",
        "adjointness",
    ],
    7: ["filtration-counts"],
    8: ["level1-finite-dimensional"],
    9: ["wall-crossing", "heis-q-lowering"],
    10: ["embed-intertwines"],
    11: ["order-refinement"],
    12: ["transpose-reduction"],
}
WRAPPED = {name for names in CRITERION_CHECKS.values() for name in names}


def run_checks(num):
    check = dict(CHECKS)
    for name in CRITERION_CHECKS[num]:
        check[name](True)


@contextmanager
def reported(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} {label}: FAIL ({elapsed:.3f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:02d} {label}: PASS ({elapsed:.3f} s)")


def test_criterion_01_golden_example():
    with reported(1, "golden signature chain"):
        z = Residue(0, 0)

        def chain():
            sig = z_signature(GOLDEN_LAM, z, GOLDEN)
            return sig, reduce_signature(sig), e_tilde(
                GOLDEN_LAM, z, GOLDEN
            ), f_tilde(GOLDEN_LAM, z, GOLDEN)

        chain()  # warm the per-parameter caches before timing
        elapsed = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            sig, reduced, up, down = chain()
            elapsed = min(elapsed, time.perf_counter() - start)
        assert sig.word == "++-+-"
        assert reduced.word == "++-"
        assert up == Multipartition([[2, 2], [3, 1, 1]])
        assert down == Multipartition([[3, 2], [3, 1, 1, 1]])
        assert elapsed < 0.001, f"golden chain took {elapsed * 1000:.3f} ms"


def test_criterion_02_crystal_axioms():
    with reported(2, "crystal axiom suite"):
        start = time.perf_counter()
        run_checks(2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"axiom suite took {elapsed:.1f} s"


def test_criterion_03_level_one_classifications():
    with reported(3, "level-one classifications"):
        run_checks(3)


def test_criterion_04_division_with_remainder():
    with reported(4, "division with remainder"):
        run_checks(4)


def test_criterion_05_heisenberg_suite():
    with reported(5, "Heisenberg operator suite"):
        start = time.perf_counter()
        run_checks(5)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"Heisenberg suite took {elapsed:.1f} s"


def test_criterion_06_plethysm_singular_class():
    """Every e_z kills s_mu[p_e]|0>; the Heisenberg lowering operators do
    not (criterion 05 pins [B_{-1}, B_1] = e, so B_{-1} s_(1)[p_e]|0> =
    e|0>), and plethysm_derivative checks what B_{-d} gives instead."""
    with reported(6, "plethysm class: e_z kills it, B_-d differentiates it"):
        failures = []
        for e in (2, 3):
            params = CherednikParams(1, Fraction(-1, e), [0])
            for size in range(1, 4):
                for mu in enumerate_partitions(size):
                    vec = plethysm_class(mu, e)
                    for value in range(e):
                        img = e_z_op(vec, Residue(0, value), params)
                        if not img.is_zero():
                            failures.append((mu, e, f"e_{value}", img))
                    plethysm_derivative(mu, e)
        assert not failures, (
            "e_z does not kill the plethysm class: "
            + "; ".join(f"{op} on mu={mu} e={e} -> {img!r}" for mu, e, op, img in failures[:4])
            + f" ({len(failures)} cases in total)"
        )


def test_criterion_07_filtration_equality():
    with reported(7, "filtration dimension equality"):
        run_checks(7)


def test_criterion_08_support_sanity():
    with reported(8, "level-one support sanity"):
        run_checks(8)


def test_criterion_09_wall_crossing():
    with reported(9, "wall-crossing bijection properties"):
        run_checks(9)


def test_criterion_10_charged_word_model():
    with reported(10, "charged-word model intertwines"):
        run_checks(10)


def test_criterion_11_order_refinement():
    with reported(11, "matching order refines c-order"):
        run_checks(11)


def test_criterion_12_transpose_reduction():
    with reported(12, "transpose reduction for positive kappa"):
        run_checks(12)


@pytest.mark.parametrize(
    "check", [pytest.param(fn, id=name) for name, fn in CHECKS if name not in WRAPPED]
)
def test_selftest_check(check):
    """Every selftest check that no criterion above runs, at full depth."""
    check(True)
