"""Exception types raised across the package.

Every error derives from :class:`SolimbtError`.  The ``category`` attribute
separates problems a user can fix by changing inputs or configuration
(``"config"``) from genuine numerical failures (``"numerical"``); the command
line driver maps these to distinct exit codes.
"""


class SolimbtError(Exception):
    category = "numerical"


# --- input / configuration problems -----------------------------------------

class ConfigCategory(SolimbtError):
    category = "config"


class DimensionMismatch(ConfigCategory):
    """Operands have inconsistent shapes."""


class InvalidParams(ConfigCategory):
    """Parameters outside their admissible range (e.g. non-positive masses)."""


class DimensionTooLarge(ConfigCategory):
    """Problem size exceeds a dense-algebra guard."""


class IoError(ConfigCategory):
    """A model bundle or result file could not be read or written."""


# --- numerical failures ------------------------------------------------------

class SingularMass(SolimbtError):
    """Mass matrix is singular to working precision."""


class SingularJ(SolimbtError):
    """The free coupling block of the companion form is singular."""


class NotSPD(SolimbtError):
    """A matrix required to be symmetric positive definite is not."""


class GammaOutOfRange(SolimbtError):
    """Dissipativity shift outside the admissible open interval."""


class SingularAtFrequency(SolimbtError):
    """Transfer-function evaluation hit a system pole."""


class NonFiniteState(SolimbtError):
    """Time integration produced a non-finite state."""


class NonFinite(SolimbtError):
    """Non-finite values in an input or an overflowed matrix function."""


class BranchCutViolation(SolimbtError):
    """Matrix logarithm argument has an eigenvalue on the closed negative real axis."""


class UnstableRealization(SolimbtError):
    """Operation requires a c-stable realization."""


class NotConverged(SolimbtError):
    """Iteration reached its cap without meeting the tolerance."""


class UnstablePencil(SolimbtError):
    """Sign iteration diverged; the pencil appears to have eigenvalues on the imaginary axis."""


class UnstableProjection(SolimbtError):
    """Galerkin-projected matrix is not c-stable."""


class EmptySpectrum(SolimbtError):
    """No characteristic values available for order selection."""


class RankDeficient(SolimbtError):
    """Requested reduced order exceeds the numerical rank of the balancing product."""


class SingularM(SolimbtError):
    """Mass matrix inverse required by a balancing formula is unavailable."""


class SingularS(SolimbtError):
    """Second-order reconstruction coupling matrix is numerically singular."""


class SingularShiftedSystem(SolimbtError):
    """A sample point of the pre-reduction coincides with a system pole."""
