"""The rules and cases the tests share, each written once.

The reference rounding is kept apart from the library, so the pins compare
the ops' floor-shift-and-carry rounding with an independent one;
tests/test_normalization.py pins it to exact Fraction rounding.
"""

from fractions import Fraction

from hypothesis import settings

from hrfna import HybridConfig, WrapDetected, validate_config

# The widest two channels, and a config that keeps their chains inside the envelope.
TWO_CHANNEL = ((65535, 65534), HybridConfig(Fraction(3, 8192), 9, 10))
ELEVEN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The text of the WrapDetected a mul or add raises, by the bit length of its exact integer.
REFUSALS = {
    "mul": "product of {} bits wrapped modulo M; operand bounds misconfigured",
    "add": "sum of {} bits wrapped modulo M; operands too large for M",
}


def examples(n: int) -> int:
    """n hypothesis examples, or more when the active profile (CI's "ci") asks for more."""
    return max(n, settings.default.max_examples)


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


def add_path(hi: int, d: int, tau: int, gap: int) -> str:
    """An add's path at exponent gap d, hi the mantissa of its larger-exponent operand:
    scale hi up at gap 0 or while 2|hi| * 2^d < tau, else shift down, absorbed from gap on."""
    if d == 0 or 2 * abs(hi) << d < tau:
        return "scale-up"
    return "shift-down" if d < gap else "absorbed"


def exact_integer(kind, x, y, tau, gap):
    """The integer a mul or add forms on x and y, by the alignment rules, before normalization."""
    if kind == "mul":
        return x.n * y.n
    if not x.n or not y.n:
        return x.n + y.n  # the identity add: the other operand's n
    hi, lo = (x, y) if x.exponent >= y.exponent else (y, x)
    d = hi.exponent - lo.exponent
    path = add_path(hi.n, d, tau, gap)
    if path == "scale-up":
        return (hi.n << d) + lo.n
    return hi.n + (shift_round_half_even(lo.n, d) if path == "shift-down" else 0)


def outcome(op, x, y, ms, cfg):
    """op's result, or the text of the WrapDetected it raised."""
    try:
        return op(x, y, ms, cfg)
    except WrapDetected as exc:
        return str(exc)


def returned(z, kind, n, ms, cfg):
    """Whether the op of that kind returned: its outcome z is the refusal sized by its exact
    integer n when 2|n| >= M, else n rounded once per pass the detector asks, counting them."""
    if 2 * abs(n) >= ms.composite:
        assert z == REFUSALS[kind].format(n.bit_length())
        return False
    assert (z.n, z.norm_events) == drain(n, validate_config(ms, cfg)[1], cfg.scale_shift_k)
    return True
