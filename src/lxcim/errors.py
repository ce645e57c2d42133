"""Exception hierarchy for the lxcim package.

Everything raised on purpose derives from :class:`LxcimError` so callers can
catch library failures without catching programming errors.
"""

from __future__ import annotations

__all__ = [
    "LxcimError",
    "EmptyDatasetError",
    "SingleClassError",
    "InvalidMaskError",
    "InfeasiblePerturbationError",
    "NonFiniteMapError",
    "InexactExchangeError",
    "PredictionFileError",
    "ParseError",
    "UnknownLabelError",
    "NonPositiveWeightError",
    "NonFiniteValueError",
]


class LxcimError(Exception):
    """Base class for all errors raised by this package."""


class EmptyDatasetError(LxcimError):
    """A ranking or metric was requested on an empty dataset."""


class SingleClassError(LxcimError):
    """ROC machinery is undefined when only one label value carries weight."""


class InvalidMaskError(LxcimError):
    """An exchange mask refers to positions outside the dataset."""


class InfeasiblePerturbationError(LxcimError):
    """A confusion-matrix perturbation would drive an entry below zero."""


class NonFiniteMapError(LxcimError, ValueError):
    """A spec's confidence or reflection map gave a NaN or infinite value on finite scores.

    Usually a threshold so far from the scores that ``s - s_star`` overflows.
    """


class InexactExchangeError(LxcimError):
    """A check or identity failed on data whose exchange the spec does not make exact."""


class PredictionFileError(LxcimError):
    """Problem with an on-disk prediction file.

    Carries the offending path and, when known, ``row``: the 1-based index of
    the data row, the same in CSV and JSONL.  The CSV header and blank lines
    are not counted, so row k is the k-th sample of the dataset the file reads
    as.
    """

    def __init__(self, message: str, *, path: str | None = None, row: int | None = None):
        self.path = path
        self.row = row
        prefix = ""
        if path is not None:
            prefix += f"{path}: "
        if row is not None:
            prefix += f"row {row}: "
        super().__init__(prefix + message)


class ParseError(PredictionFileError):
    """A cell or line could not be parsed into the expected type."""


class UnknownLabelError(PredictionFileError):
    """Label values do not reduce to one positive and at most one negative class."""


class NonPositiveWeightError(PredictionFileError):
    """A weight cell was zero or negative."""


class NonFiniteValueError(PredictionFileError):
    """A numeric cell was NaN or infinite."""
