"""Primality for the degeneracy tests, which check that every level
whose spectrum product is prime is simple."""


def is_prime(m: int) -> bool:
    """Trial-division primality, ample for the scan range (products < 1e7)."""
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True
