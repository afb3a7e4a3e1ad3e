"""Exception hierarchy shared across the package."""


class MarginlineError(Exception):
    """Base class for all package errors."""


class MeshParseError(MarginlineError):
    """Malformed STL/PLY input. Carries the byte or line offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class EmptyMeshError(MarginlineError):
    pass


class TopologyError(MarginlineError):
    pass


class RegistrationError(MarginlineError):
    pass


class NormalizationError(MarginlineError):
    pass


class AlignmentError(MarginlineError):
    """Crown bottom and die do not appear to share a coordinate frame."""


class IncompleteMarginError(MarginlineError):
    """Margin faces fail to disconnect the die into two regions."""


class SplineFitError(MarginlineError):
    pass


class BoundaryExtractionError(MarginlineError):
    pass


class EmptyRegionError(MarginlineError):
    pass


class MetricError(MarginlineError):
    pass


class ManifestError(MarginlineError):
    pass


# bad input data: fails one case of a stage, and exits 1 at the command line
DATA_ERRORS = (MarginlineError, ValueError, FileNotFoundError)
