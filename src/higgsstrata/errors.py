"""Exception types shared across the package.

Every domain error carries enough structure for a caller (or the CLI) to
report the offending object without string parsing.
"""

from __future__ import annotations


class HiggsStrataError(Exception):
    """Base class for all domain errors raised by this package."""


class AmbientMismatch(HiggsStrataError):
    """Two types (or point/flag data) do not share the same ambient (rank, degree)."""


class NonPositiveBlockDimension(HiggsStrataError):
    """A block of a type has section dimension d + r(1 - g) <= 0.

    Signals that the degree is not large enough for the weight-lattice
    construction to apply to that block.
    """

    def __init__(self, block_index: int, dimension: int):
        self.block_index = block_index
        self.dimension = dimension
        super().__init__(
            f"block {block_index} has section dimension {dimension} <= 0"
        )


DEFAULT_INDEX_CAP = 200_000  # every enumeration's default cap


class CapExceeded(HiggsStrataError):
    """An enumeration would exceed the caller-supplied cap.

    ``count`` is the exact size the enumeration would have had, except for
    HN-type enumeration, which stops on passing the cap and so reports a
    lower bound.
    """

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of size {count} exceeds cap {cap}")


class DegeneratePoint(HiggsStrataError):
    """All projective coordinates of a model point vanish."""


class NotInY(HiggsStrataError):
    """A point lies outside the locus on which the retraction is defined."""


class InvariantViolation(HiggsStrataError):
    """Flag data fails one of its structural invariants.

    ``block_index`` and ``factor_index`` name the failing (gamma, k) pair.
    """

    def __init__(self, block_index: int, factor_index: int, reason: str):
        self.block_index = block_index
        self.factor_index = factor_index
        self.reason = reason
        super().__init__(
            f"invariant violated at block {block_index}, factor {factor_index}: {reason}"
        )


class AmbiguousMembership(HiggsStrataError):
    """A corpus point satisfies Y-membership for two distinct nonzero candidates.

    Signals an inconsistent candidate list handed to ``assemble``.
    """

    def __init__(self, point_id, betas):
        self.point_id = point_id
        self.betas = tuple(betas)
        super().__init__(
            f"point {point_id!r} matches {len(self.betas)} distinct nonzero candidates"
        )


class UnclassifiedPoint(HiggsStrataError):
    """A corpus point matches no candidate stratum."""

    def __init__(self, point_id):
        self.point_id = point_id
        super().__init__(f"point {point_id!r} matches no candidate")
