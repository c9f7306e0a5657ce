"""Exact-arithmetic toolkit for stratum combinatorics on cyclic embedding sets,
the link calculus on bands, rational Picard bookkeeping, and a truncated-Witt
Dieudonne module simulator.

The package root imports no submodule: it holds only what several of them
share, so that loading one module loads none of the others by accident."""

__all__ = [
    "GostrataError",
    "isprime",
    "places",
    "strata",
    "links",
    "witt",
    "dieudonne",
    "picard",
    "cli",
]

__version__ = "0.1.0"


class GostrataError(ValueError):
    """The base of every domain error the library raises; the CLI reports any
    of them on one line with exit code 1."""


def isprime(n: int) -> bool:
    """Primality by trial division (the primes used here are small)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
