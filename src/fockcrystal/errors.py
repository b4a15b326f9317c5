"""Exception types shared across the package.

Exit-code mapping used by the command line front end (3 is unused):
  2  malformed input (bad JSON, invalid partition data, bad parameters)
  4  truncation overflow (`fock matrix`: a term above both requested degrees)
  5  internal error (a violated internal invariant, or any exception that
     is not a FockcrystalError)
"""


class FockcrystalError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(FockcrystalError):
    """Malformed user-supplied data: non-decreasing parts, bad JSON, etc."""


class InvalidMoveError(FockcrystalError):
    """A box addition or removal that does not produce a valid shape."""


class TruncationOverflowError(FockcrystalError):
    """operator_matrix (`fock matrix`) met a term above both its degrees."""


class UnsupportedParameterError(FockcrystalError):
    """Parameters outside the domain of the requested computation."""


class InternalInvariantError(FockcrystalError):
    """A result the theory guarantees failed its own check: a defect in
    this package, not in the input."""
