"""Exception types shared across the toolkit, and the integer check that
parameter records share."""

import numbers
from dataclasses import fields


class SeedloopError(Exception):
    """Base class for all toolkit errors."""


# raster / tensor I/O
class MalformedHeader(SeedloopError):
    pass


class TruncatedPayload(SeedloopError):
    pass


class UnsupportedMaxval(SeedloopError):
    pass


class IoFailure(SeedloopError):
    pass


class BadMagic(SeedloopError):
    pass


class UnsupportedVersion(SeedloopError):
    pass


class DimOverflow(SeedloopError):
    pass


class InvalidParams(SeedloopError):
    pass


# native code
class NativeBuildError(SeedloopError):
    pass


# shape / dimension contracts
class DimensionMismatch(SeedloopError):
    pass


class ShapeMismatch(SeedloopError):
    pass


class WOutOfRange(SeedloopError):
    pass


# segmenter
class NoLabeledRegions(SeedloopError):
    pass


class TrainingDiverged(SeedloopError):
    pass


# metrics
class UnlabeledPrediction(SeedloopError):
    pass


class EmptyConfusion(SeedloopError):
    pass


# pipeline
class EmptySeeds(SeedloopError):
    pass


class MissingFile(SeedloopError):
    pass


def check_int(name, value):
    """Raise InvalidParams unless value is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")


def check_int_fields(params):
    """check_int on every field of the dataclass params whose default is an
    int: the rule a config file or CLI flag, parsed by the default's type,
    already applies."""
    for f in fields(params):
        if type(f.default) is int:
            check_int(f.name, getattr(params, f.name))
