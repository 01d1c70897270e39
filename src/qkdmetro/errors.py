"""Exception hierarchy for the simulator."""


class QkdMetroError(Exception):
    """Base class for all domain errors."""


class DomainError(QkdMetroError):
    """Argument outside its mathematical domain."""


class DegenerateChannel(QkdMetroError):
    """Gain is zero; QBER undefined."""


class BoundCollapse(QkdMetroError):
    """Decoy bound cannot prove any single-photon contribution."""


class NoPositiveRate(QkdMetroError):
    """Secret rate non-positive over the whole search range."""


class ConfigError(QkdMetroError):
    """Base class for configuration-file problems."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(ConfigError):
    pass


class UnknownKey(ConfigError):
    pass


class MissingSection(ConfigError):
    pass


def involving(exc, *params):
    """exc, marked with the parameters whose values it rejects together,
    one pivot of a table as (parameter, pivot); a config error names the
    line of the first one the config sets."""
    exc.params = params
    return exc
