"""Exception types shared across the toolkit."""


class IcrtLabError(Exception):
    """Base class for all toolkit errors."""


class NormError(IcrtLabError):
    """Squared entries of a parameter sequence do not sum to 1."""


class SignError(IcrtLabError):
    """Negative entry in a parameter or probability sequence."""


class ZeroTheta0Error(IcrtLabError):
    """Finite-length parameter sequence with atoms requires theta0 > 0."""


class JumpCollisionError(IcrtLabError):
    """Two jump times coincide, or a jump time hits a grid point exactly."""


class NotExcursionError(IcrtLabError):
    """Path expected to be a nonnegative excursion dips below -1e-9."""


class DuplicatePositionError(IcrtLabError):
    """Particle positions on the circle are not distinct."""


class TieError(IcrtLabError):
    """Two left limits tie for the minimum; the minimizing particle is ambiguous."""


class DegenerateError(IcrtLabError):
    """Degenerate configuration (coincident order statistics or a root draw)."""


class DuplicateSampleError(IcrtLabError):
    """Two of the vertices sampled for a spanning reduction coincide."""


class EmptySampleError(IcrtLabError):
    """Statistical test invoked with an empty sample."""


class LowExpectedCountError(IcrtLabError):
    """Chi-square cell with expected count below 5."""


class NegativePathError(IcrtLabError):
    """Path expected to be nonnegative takes a negative value."""
