"""Errors that stop the benchmark before it prints a result (exit status 2)."""


class BenchError(Exception):
    """The benchmark cannot run here."""


class CompilerNotFoundError(BenchError):
    """No C compiler to build the external-cmd harness."""


class MissingEntryPointError(BenchError):
    """An entry point that the benchmark wraps, reads or checks against is gone.

    The per-layer metrics and the correctness oracles are defined by these
    names; measuring without one would report a 0 or drop a check instead
    of failing.
    """
