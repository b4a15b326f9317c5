"""Exact combinatorics of level-l Fock spaces: crystals on
multipartitions, support descriptors, wall-crossing bijections and
rational Heisenberg/Kac-Moody operator actions, all over exact
arithmetic."""

import importlib

__version__ = "0.6.0"

# module -> the public names it defines.  A module is imported the first
# time one of its names is read, so `import fockcrystal` loads nothing.
_MODULES = {
    "errors": (
        "FockcrystalError", "InternalInvariantError", "InvalidInputError",
        "InvalidMoveError", "TruncationOverflowError", "UnsupportedParameterError",
    ),
    "partitions": (
        "Box", "Multipartition", "Partition", "RibbonMove",
        "divide_with_remainder", "divide_with_remainder_search",
        "enumerate_multipartitions", "enumerate_partitions", "ribbon_additions",
        "ribbon_removals",
    ),
    "params": (
        "ChargeDifferenceWall", "ChargeValue", "CherednikParams", "HeckeExponents",
        "KappaDenominatorWall", "Residue", "essential_walls", "hecke_exponents",
        "is_essential_charge_wall", "normalize_for_support", "rank_one_verma_hom",
    ),
    "orders": ("box_leq", "c_lambda", "leq_c", "preceq"),
    "crystal": (
        "CrystalGraph", "Signature", "crystal_component", "crystal_graph",
        "e_tilde", "f_tilde", "graph_depths", "is_singular", "km_depth",
        "reduce_signature", "relevant_residues", "z_signature",
    ),
    "supports": (
        "SupportDescriptor", "WallCrossStep", "asymptotic_q",
        "heis_e_asymptotic", "heis_q", "level2_transport", "support",
        "wall_cross",
    ),
    "fock": (
        "ChargedWord", "FockVector", "b_minus_op", "b_plus_op", "basis_vector", "box_term_map",
        "charged_to_multipartition", "e_z_op", "embed_to_charged", "f_z_op", "filtration_dim",
        "heisenberg_term_map", "inner_product", "operator_matrix", "plethysm_class",
        "singular_subspace", "wedge_e_op", "wedge_f_op",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
