"""Exception hierarchy shared across the package."""

import json
from pathlib import Path


class MarginlineError(Exception):
    """Base class for all package errors."""


class MeshParseError(MarginlineError):
    """Malformed STL input, or a path without the '.stl' suffix. Carries
    the byte or line offset when known."""

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


# bad input data: fails one case of a stage, and exits 1 at the command
# line; a missing file, or a file where a directory belongs or the reverse
DATA_ERRORS = (
    MarginlineError,
    ValueError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)


def make_dir(path, what):
    """Creates the directory `path` and its parents and returns it as a
    Path. A file where a directory belongs is bad input: a
    MarginlineError naming the path (`what` says which directory it is),
    not an internal failure."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise MarginlineError(
            f"cannot make {what} directory {exc.filename}: {exc.strerror}"
        ) from exc
    return path


def read_json(path, *keys):
    """The JSON object in the file `path`, refused with a MarginlineError
    naming the file and the key unless it holds each of `keys`."""
    data = json.loads(Path(path).read_text())
    for key in keys:
        if not isinstance(data, dict) or key not in data:
            raise MarginlineError(f"{path}: no {key!r}")
    return data
