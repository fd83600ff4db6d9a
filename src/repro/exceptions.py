"""Exception hierarchy for the ``repro`` package.

All library-specific errors derive from :class:`ReproError` so that callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from data problems and from model-usage
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A record, table or pair does not conform to the declared schema."""


class DataError(ReproError):
    """A dataset, workload or split is malformed or inconsistent."""


class NotFittedError(ReproError):
    """A model method requiring a fitted model was called before ``fit``."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter value or combination of parameters was supplied.

    Also a :class:`ValueError` so that callers following the standard-library
    convention (``except ValueError``) catch configuration mistakes without
    importing the library's exception hierarchy.
    """


class PersistenceError(ReproError):
    """A saved model state is missing, corrupted or version-incompatible."""
