"""Exception types shared across the package."""


class BackhaulError(Exception):
    """Base class for all package errors."""


class Infeasible(BackhaulError):
    """The problem is well formed but infeasible or unrealizable as posed.

    The command line exits 2 for these and 3 for every other package error.
    """


class NonPositiveInput(BackhaulError):
    """A quantity that must be positive was not, or a count fell below its minimum."""


class NonFiniteInput(BackhaulError):
    """A number that must be finite was NaN or infinite."""


class InvalidHopCount(BackhaulError):
    """Logical link hop count must be a positive integer."""


class DimensionMismatch(BackhaulError):
    """Vector length does not match the number of LP variables."""


class InvalidTopology(Infeasible):
    """Topology failed structural validation.

    Carries the violation list so callers can render a full report.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid topology: {lines}")


class InterferenceNotMinimal(Infeasible):
    """A minimal-interference formulation was asked for a topology with interference pairs."""


class SolverFailure(BackhaulError):
    """The simplex solver could not produce a trustworthy answer for a well-formed LP."""


class InfeasibleFloor(Infeasible):
    """The fair-aggregate LP is infeasible for the requested per-BS floor."""


class MissingLink(BackhaulError):
    """A per-link map is missing an entry for a link present in the topology."""


class PlacementFailure(Infeasible):
    """The scheduler could not realize the requested active time on the available radio chains."""

    def __init__(self, link_id, detail=""):
        self.link_id = link_id
        msg = f"no feasible placement for link {link_id}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class InconsistentInput(BackhaulError):
    """An input file does not match the documented schema."""


class UnknownBS(BackhaulError):
    """Referenced base station id is not part of the topology."""


class AllZeroDemands(BackhaulError):
    """Jain's index is undefined when every demand is zero."""


class InfeasibleConfig(Infeasible):
    """Generator configuration cannot produce a topology satisfying its own constraints."""
