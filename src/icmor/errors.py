"""Exception and warning types shared across the package."""


class IcmorError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(IcmorError):
    pass


class NotStable(IcmorError):
    pass


class SpectraOverlap(IcmorError):
    pass


class NonFinite(IcmorError):
    pass


class NotInSubspace(IcmorError):
    pass


class InvalidParameter(IcmorError):
    pass


class IndexOutOfRange(IcmorError):
    pass


class ParseError(IcmorError):
    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class FactorizationFailure(IcmorError):
    pass


class MissingProvenance(IcmorError):
    pass


class UnstableReduction(IcmorError):
    pass


class ConfigError(IcmorError):
    pass


class MaxItersExceeded(UserWarning):
    """Fixed-point iteration stopped short of its fixed point (iteration
    cap, ill-conditioned basis or stall); best iterate returned."""


class TailWarning(UserWarning):
    pass
