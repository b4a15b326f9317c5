"""Exact combinatorics of level-l Fock spaces: crystals on
multipartitions, support descriptors, wall-crossing bijections and
rational Heisenberg/Kac-Moody operator actions, all over exact
arithmetic."""

import importlib

__version__ = "0.8.0"

# module -> the public names it defines.  A module is imported the first
# time one of its names is read, so `import fockcrystal` loads nothing.
_MODULES = {
    "errors": (
        "FockcrystalError", "InternalInvariantError", "InvalidInputError",
        "InvalidMoveError", "TruncationOverflowError", "UnsupportedParameterError",
    ),
    "partitions": (
        "Box", "Multipartition", "Partition", "RibbonMove", "divide_with_remainder",
        "enumerate_multipartitions", "enumerate_partitions", "ribbon_additions",
        "ribbon_removals",
    ),
    "params": ("ChargeValue", "CherednikParams", "Residue"),
    "walls": (
        "ChargeDifferenceWall", "HeckeExponents", "KappaDenominatorWall", "essential_walls",
        "hecke_exponents", "is_essential_charge_wall", "rank_one_verma_hom",
    ),
    "orders": ("c_lambda", "leq_c", "preceq"),
    "crystal": (
        "CrystalGraph", "Signature", "crystal_component", "crystal_graph",
        "e_tilde", "f_tilde", "graph_depths", "is_singular", "km_depth",
        "reduce_signature", "relevant_residues", "z_signature",
    ),
    "supports": (
        "SupportDescriptor", "WallCrossStep", "heis_q", "level2_transport",
        "normalize_for_support", "support", "wall_cross",
    ),
    "fock": ("box_term_map", "heisenberg_term_map", "operator_matrix"),
    "fockspace": ("FockVector", "filtration_dims", "singular_subspace"),
    "fockvectors": (
        "b_minus_op", "b_plus_op", "basis_vector", "e_z_op", "f_z_op", "plethysm_class",
    ),
    "charged": (
        "ChargedWord", "charged_to_multipartition", "embed_to_charged", "wedge_e_op",
        "wedge_f_op",
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
