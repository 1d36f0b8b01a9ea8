"""The base class of nvcdd's numerical failures."""


class NumericalError(Exception):
    """A computation failed numerically; the CLI exits 3.

    Each subclass also keeps its ValueError or RuntimeError base, so
    callers that catch those still catch it.
    """
