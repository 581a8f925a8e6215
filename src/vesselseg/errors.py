"""Exception hierarchy shared across the package.

Every error raised by vesselseg derives from VesselSegError so callers
(and the CLI) can distinguish validation failures from genuine bugs.
"""


class VesselSegError(Exception):
    """Base class for all vesselseg errors."""


# volume_io
class MissingFile(VesselSegError):
    pass


class MetaParseError(VesselSegError):
    pass


class SizeMismatch(VesselSegError):
    pass


class InvalidLabel(VesselSegError):
    pass


class OutputNotWritable(VesselSegError):
    """An output directory cannot be created, e.g. a file holds its path."""


# phantom
class OutOfRange(VesselSegError):
    pass


class SpecInvalid(VesselSegError):
    pass


# model / autodiff
class ShapeMismatch(VesselSegError):
    pass


class NonFiniteActivation(VesselSegError):
    pass


class DimensionMismatch(VesselSegError):
    pass


# checkpoints
class BadMagic(VesselSegError):
    pass


class VersionMismatch(VesselSegError):
    pass


class ManifestMismatch(VesselSegError):
    pass


# training
class ConfigInvalid(VesselSegError, ValueError):
    """A config file, or a TrainConfig field, is malformed or out of range."""


class NonFiniteGradient(VesselSegError):
    pass


class EmptyDataset(VesselSegError):
    pass


# baseline tracker
class SeedOutOfWindow(VesselSegError):
    pass
