"""Primality, integer factorization and prime enumeration.

Factorization strategy: trial division by the 6,542 primes below 2^16, so
any cofactor left below 2^32 is prime.  The 54 primes below 2^8 are tried
one by one; the rest are tried a block of 128 at a time, with one gcd of
the number and the block's product, and a block is walked prime by prime
only when that gcd exceeds 1.  A larger cofactor is split as a perfect
power, or by a deterministic Brent-cycle rho splitter once Miller-Rabin
proves it composite.  A caller may name numbers it expects to share
factors with n (factorize's known): the primes among them that is_prime
certifies are divided out before the blocks, and a composite cofactor is
split by its gcd with the first of them that gives a proper divisor before
rho is tried, so a set factored jointly (rationals.factor_set) finds each
large prime shared by two of its elements once.  Primality of
every reported factor is certified by Miller-Rabin with the first k of 13
prime witnesses, k the least with n below psi_k, the least odd composite
that is a strong probable prime to the first k primes (OEIS A014233;
Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86,
2017): 2 alone below 2047, 5 witnesses near 10^12, all 13 below ~3.3e24.
A probable prime above that raises rather than degrading to a
probabilistic answer, because downstream verdicts assume complete
factorizations.  Compositeness needs no bound: one failed witness of all
13 proves it, so larger composites are still split.

Enumeration: an Eratosthenes sieve over the odd numbers only, one bytearray
flag per odd number (_odd_flags), collected with itertools.compress.  The
process keeps one table of these flags (_prime_table), sized in powers of
two from 2^12 numbers to TABLE_CAP = 2^20 (512 KB) and swapped in whole.
One walk, prime_walk, takes [lo, hi] in segments of 2^17, each a slice of
the table or, past it, sieved alone (Bays and Hudson, BIT 17, 1977),
counts their primes and makes ints of only the progressions asked for;
prime_range and sieve_upto are its every-odd-prime case.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress
from typing import Optional

from .errors import FactorizationCapacityExceeded, RangeTooLarge

# Miller-Rabin with these witnesses is deterministic below this bound
# (Sorenson-Webster: first 13 primes cover n < 3.317e24).
MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
# psi_1 .. psi_13 of OEIS A014233 (module docstring): the first k witnesses
# are exact below psi_k
_MR_TIERS = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
             3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
             3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
             3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
             MR_DETERMINISTIC_BOUND)

TRIAL_DIVISION_BOUND = 1 << 16
_WALK_BOUND = 1 << 8  # table primes below this are tried one by one
_BLOCK = 128  # the rest, this many to a gcd
# on a cofactor above MR_DETERMINISTIC_BOUND rho gives up past this cycle
# length: enough for a least factor up to about 3*10^9, and a bound on the work
RHO_CYCLE_LIMIT = 1 << 16
PRIME_RANGE_CEILING = 10**9
_SEGMENT = 1 << 17
TABLE_CAP = 1 << 20  # numbers the prime table covers at most (module docstring)
_TABLE: tuple[int, bytearray] = (0, bytearray())  # (hi, flags): _prime_table


@lru_cache(maxsize=None)
def _trial_blocks() -> list[tuple[list[int], int]]:
    """The table primes from _WALK_BOUND up, _BLOCK at a time, each block
    with the product of its primes."""
    ps = sieve_upto(TRIAL_DIVISION_BOUND - 1)
    ps = ps[bisect_left(ps, _WALK_BOUND):]
    return [(ps[i:i + _BLOCK], math.prod(ps[i:i + _BLOCK]))
            for i in range(0, len(ps), _BLOCK)]


def _odd_flags(lo: int, hi: int, base) -> bytearray:
    """One flag per odd number lo, lo + 2, ... up to hi (lo odd): 1 unless
    it is 1 or a multiple of an odd prime p in base and above p itself.

    With base every odd prime up to sqrt(hi), the flags mark the primes.
    """
    flags = bytearray([1]) * max(0, (hi - lo) // 2 + 1)
    if lo == 1:
        flags[0] = 0
    for p in base:
        first = max(p * p, (lo + p - 1) // p * p)
        if first % 2 == 0:
            first += p
        if first > hi:
            continue
        i = (first - lo) // 2  # odd multiples of p are p apart among the flags
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    return flags


def _prime_table(n: int) -> tuple[int, bytearray]:
    """The table (hi, flags), flags[i] = 1 iff 2i + 1 <= hi is prime, first
    rebuilt at the least power of two from 2^12 reaching min(n, TABLE_CAP);
    a composite among the odd numbers that cross off marks only composites."""
    global _TABLE
    if _TABLE[0] < min(n, TABLE_CAP):
        hi = max(1 << 12, 1 << (min(n, TABLE_CAP) - 1).bit_length())
        _TABLE = hi, _odd_flags(1, hi, range(3, math.isqrt(hi) + 1, 2))
    return _TABLE


def sieve_upto(n: int) -> list[int]:
    """All primes <= n: prime_range from 2, so the table's up to TABLE_CAP."""
    return prime_range(2, n)


def first_nonprime(numbers) -> Optional[int]:
    """The first of the numbers that is not prime, or None.

    Those up to TABLE_CAP are looked up in the prime table, grown to the
    largest of them; is_prime tests those above TABLE_CAP.
    """
    flags = _prime_table(max([1] + [p for p in numbers if p <= TABLE_CAP]))[1]
    for p in numbers:
        if p > TABLE_CAP:
            prime = is_prime(p)
        else:
            prime = p == 2 or (p > 2 and p % 2 == 1 and flags[p // 2] == 1)
        if not prime:
            return p
    return None


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic primality for n below MR_DETERMINISTIC_BOUND, by the
    first k witnesses, k least with n < _MR_TIERS[k - 1]."""
    if n < 2:
        return False
    for p in MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= MR_DETERMINISTIC_BOUND:
        raise FactorizationCapacityExceeded(
            f"cannot certify primality of {n}: above the deterministic bound"
        )
    return _miller_rabin(n, MR_WITNESSES[:bisect_right(_MR_TIERS, n) + 1])


def _brent_rho(n: int, cycle_limit: Optional[int] = None) -> int:
    """Nontrivial factor of odd composite n, deterministic parameter sweep.

    With a cycle_limit, gives up once the cycle length passes it.  Brent's
    walk (BIT 20, 1980), four steps to a loop pass, and in the accumulate
    phase one reduction per four differences: each gcd sees the same q mod
    n as one step at a time.  Step counts are powers of two, so only
    r = 1, 2 take single steps.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 200):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r & 3):
                y = (y * y + c) % n
            for _ in range(r >> 2):
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k)
                for _ in range(steps & 3):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                for _ in range(steps >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * (x - y1) * (x - y2) * (x - y3) * (x - y) % n
                k += m
                g = math.gcd(q, n)
            r <<= 1
            if cycle_limit and g == 1 and r > cycle_limit:
                raise FactorizationCapacityExceeded(f"rho splitter gave up on {n}")
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise FactorizationCapacityExceeded(f"rho splitter gave up on {n}")


def _perfect_power(m: int) -> tuple[int, int]:
    """(b, k) with m = b^k and k >= 2 least, or (m, 1).

    m has no prime factor below the trial-division bound 2^16, so b > 2^16
    and k is at most log2(m) / 16.
    """
    for k in range(2, m.bit_length() // (TRIAL_DIVISION_BOUND.bit_length() - 1) + 1):
        b = 1 << -(-m.bit_length() // k)  # Newton from above gives floor(m^(1/k))
        while True:
            c = ((k - 1) * b + m // b ** (k - 1)) // k
            if c >= b:
                break
            b = c
        if b**k == m:
            return b, k
    return m, 1


def _divide_out(n: int, ps: list[int], out: dict[int, int]) -> int:
    """n with the primes ps, ascending, divided out and counted in out;
    stops at the first p with p * p > n, where what is left is 1 or prime."""
    for p in ps:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    return n


def factorize(n: int, *, known=()) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 2^16 leaves a cofactor with no
    smaller prime factor, so one below 2^32 is prime.  The primes below
    2^8 are tried one by one, the rest by one gcd per block of 128, and
    both stop once p * p exceeds what is left.  A larger cofactor is
    split as a perfect power, or by rho once Miller-Rabin proves it
    composite (a proof at any size).  Raises FactorizationCapacityExceeded
    for a probable prime above the deterministic bound, which cannot be
    certified, or when rho gives up on a composite above that bound once
    its cycle length passes RHO_CYCLE_LIMIT.  That takes about 0.2-0.3 s
    for a 170-210 bit cofactor and grows with its size: about 1.1 s at 640
    bits and 4 s at 1,400 (Python 3.11).  Below the bound rho runs with no
    limit; its worst case there, two primes near 1.8 * 10^12 (81 bits),
    takes about 2 s: factorize(1800000000047 * 1820000000011).

    known lists numbers the caller expects to share factors with n: a
    verdict document's excluded primes, or the numerators and denominators
    of the other elements of a set.  Once the primes below 2^8 are divided
    out, and before the blocks, what is left of n is divided out fully by
    each entry that is an int p with
    TRIAL_DIVISION_BOUND <= p < MR_DETERMINISTIC_BOUND, divides n and is
    certified by is_prime.  A cofactor m that Miller-Rabin proves composite
    is split at the first int entry h with 1 < gcd(m, h) < m, and both
    pieces take the path above; only a cofactor that no entry splits goes
    to rho.  Every other entry is ignored.  By unique factorization the
    result is the same for every known: a hint spares only the search for
    its factor, so a number whose split the bounds refuse may factor once
    its large primes, or a product sharing one of them, are named.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    if n == 1:
        return out
    n = _divide_out(n, _WALK_PRIMES, out)
    if n >= TRIAL_DIVISION_BOUND:  # below, no hint divides what is left
        for p in known:
            if (type(p) is int and TRIAL_DIVISION_BOUND <= p < MR_DETERMINISTIC_BOUND
                    and n % p == 0 and is_prime(p)):
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
    if n >= _WALK_BOUND**2:  # below, n is 1 or prime and needs no blocks
        for block, product in _trial_blocks():
            if block[0] ** 2 > n:
                break
            if math.gcd(n, product) > 1:
                n = _divide_out(n, block, out)
    if n == 1:
        return out
    stack = [(n, 1)]  # (cofactor, multiplicity)
    while stack:
        m, e = stack.pop()
        if m < TRIAL_DIVISION_BOUND**2:
            out[m] = out.get(m, 0) + e  # no factor below the trial bound: prime
            continue
        b, k = _perfect_power(m)
        if k > 1:
            stack.append((b, e * k))
            continue
        limit = None
        if m >= MR_DETERMINISTIC_BOUND:
            if _miller_rabin(m, MR_WITNESSES):
                raise FactorizationCapacityExceeded(
                    f"cannot certify primality of {m}: above the deterministic bound")
            limit = RHO_CYCLE_LIMIT
        elif is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        d = next((g for h in known if type(h) is int and 1 < (g := math.gcd(m, h)) < m),
                 None) or _brent_rho(m, limit)
        stack.append((d, e))
        stack.append((m // d, e))
    return out


def prime_walk(lo: int, hi: int, strides: tuple[int, ...]) -> tuple[int, list[int]]:
    """The number of odd primes in [lo, hi] and, ascending, those = 1 mod 2r
    for some r in strides (r = 1: all), in segments of _SEGMENT numbers: a
    slice of the prime table, grown to hi, when the segment ends within it,
    else sieved by the table's odd primes up to sqrt(hi).  A segment's
    primes are counted by bytearray.count; the odd numbers = 1 mod 2r sit r
    flags apart, so one stride slice of the flags picks out a progression."""
    if hi > PRIME_RANGE_CEILING:
        raise RangeTooLarge(f"prime range ceiling is {PRIME_RANGE_CEILING}, got {hi}")
    count, out = 0, []
    start = max(lo, 1) | 1
    top, table = _prime_table(hi)  # top >= sqrt(hi), as hi <= PRIME_RANGE_CEILING
    base = list(compress(range(1, math.isqrt(hi) + 1, 2), table)) if hi > top else ()
    while start <= hi:
        end = min(start + _SEGMENT - 1, hi)  # _SEGMENT is even: start stays odd
        flags = table[start // 2:(end + 1) // 2] if end <= top else _odd_flags(start, end, base)
        count += flags.count(1)
        picks = []
        for r in strides:
            i = (1 - start) // 2 % r  # the flag of the first odd number = 1 mod 2r
            picks.append(compress(range(start + 2 * i, end + 1, 2 * r), flags[i::r]))
        out.extend(picks[0] if len(picks) == 1 else sorted({p for ps in picks for p in ps}))
        start = end + 1
    return count, out


def prime_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi: 2, then every odd prime of prime_walk."""
    odd = prime_walk(lo, hi, (1,))[1]
    return [2, *odd] if lo <= 2 <= hi else odd


_WALK_PRIMES = sieve_upto(_WALK_BOUND - 1)


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n >= 1, ascending, from its factorization;
    cached, as the cover searches ask for the same few generator orders."""
    out = [1]
    for p, a in factorize(n).items():
        out = [d * p**i for d in out for i in range(a + 1)]
    return tuple(sorted(out))


@lru_cache(maxsize=4096)
def prime_factors(n: int) -> tuple[int, ...]:
    """The primes dividing n >= 1, ascending; cached, as every verdict and
    scan asks for those of its exponent."""
    return tuple(sorted(factorize(n)))


def prime_power_split(n: int) -> list[tuple[int, int]]:
    """(p, a) pairs with p^a || n, primes ascending."""
    return sorted(factorize(n).items())


def jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for odd m > 0, by quadratic reciprocity; 0
    when a and m share a factor."""
    if m < 1 or m % 2 == 0:
        raise ValueError("the Jacobi symbol needs an odd positive modulus")
    a %= m
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0
