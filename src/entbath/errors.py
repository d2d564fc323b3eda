"""Exception hierarchy for entbath."""


class EntbathError(Exception):
    """Base class for all entbath errors."""


class ValidationError(EntbathError):
    """Invalid input: shape/symmetry violations, unphysical states, bad parameters.

    The ``index`` attribute, when set, is the first failing entry of a stacked check.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NumericsError(EntbathError):
    """A numerical procedure failed to reach its target accuracy.

    The ``achieved`` attribute, when set, carries the accuracy actually reached.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class HorizonError(EntbathError):
    """Requested time exceeds the validity horizon of the discretized bath."""


class ParameterRegimeError(EntbathError):
    """Parameters leave the model's stable/physical regime (e.g. negative dressed frequency)."""


class ConfigError(EntbathError):
    """Configuration file is missing, malformed, or violates the schema.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class UnsupportedOperationError(EntbathError):
    """Operation is deliberately out of scope for the requested model variant."""
