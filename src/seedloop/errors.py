"""Exception types shared across the toolkit."""


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
