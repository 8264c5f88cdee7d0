"""Exception types shared across the toolkit.

``InputError`` subclasses signal bad or missing input data and map to CLI
exit code 2; every other ``MacSortError`` maps to exit code 1.
"""


class MacSortError(Exception):
    """Base class for all toolkit errors."""


class InputError(MacSortError):
    """Bad or missing input data (files, schemas, configs)."""


# -- geometry ---------------------------------------------------------------

class DegenerateEmbedding(MacSortError):
    """Cosine similarity requested on a (near-)zero feature vector."""


class DimensionMismatch(MacSortError):
    """Feature vectors of different dimensions were combined."""


class InvalidState(MacSortError):
    """A filter state drifted to a nonphysical box (scale or ratio <= 0),
    or a measurement update became numerically degenerate."""


# -- annotations / captions -------------------------------------------------

class JsonError(InputError):
    """Annotation input is not valid JSON."""


class SchemaError(InputError):
    """Annotation JSON misses a required field or has a wrong type."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"annotation field {field!r} missing or ill-typed")


class CaptionGrammarError(InputError):
    """Caption does not match the tracking caption templates."""


# -- prompt filtering -------------------------------------------------------

class EmptyMemory(MacSortError):
    """Memory-based similarity requested with an empty memory band."""


class EmptyInput(MacSortError):
    """Operation requires a non-empty detection set."""


# -- tracking ---------------------------------------------------------------

class NonMonotonicFrame(MacSortError):
    """Frames were fed to a tracker out of order."""


# -- metrics ----------------------------------------------------------------

class FrameMismatch(InputError):
    """Prediction frames fall outside the ground-truth frame range."""


# -- MOT file I/O -----------------------------------------------------------

class ParseError(InputError):
    """Malformed line in a MOT CSV file."""


class NonPositiveBox(InputError):
    """A MOT record carries a non-positive width or height."""


class BadMagic(InputError):
    """Embedding sidecar does not start with the expected magic string."""


class TruncatedBody(InputError):
    """Embedding sidecar body length disagrees with its header."""


class NonFiniteEmbedding(InputError):
    """Embedding sidecar holds a NaN or infinite value."""


class MissingGeneralFile(InputError):
    """Prompt dump directory lacks the mandatory general detections file."""


class SidecarMismatch(InputError):
    """Embedding sidecar row count disagrees with its companion CSV."""


# -- synthetic scenarios ----------------------------------------------------

class SpecError(InputError):
    """Synthetic scenario spec is inconsistent or malformed."""


# -- configuration ----------------------------------------------------------

class ConfigError(InputError):
    """Run configuration file or override is invalid."""
