"""The reference rounding that normalize and the shift-down add are pinned to.

Kept apart from the library so the pins compare the ops' floor-shift-and-
carry rounding with an independent one; tests/test_normalization.py pins
this one to exact Fraction rounding.
"""


def shift_round_half_even(n: int, s: int) -> int:
    """round(n / 2^s) with ties to even, exact for any sign of n."""
    if s == 0:
        return n
    if s > n.bit_length():  # |n| < 2^(s-1) rounds to 0; never build a 2^s-sized number
        return 0
    q = n >> s
    r = n - (q << s)  # 0 <= r < 2^s for either sign of n
    half = 1 << (s - 1)
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def drain(n: int, limit: int, k: int) -> tuple[int, int]:
    """(n, passes): n rounded by 2^k while |n| >= limit, as an op normalizes its result."""
    passes = 0
    while abs(n) >= limit:
        n = shift_round_half_even(n, k)
        passes += 1
    return n, passes
