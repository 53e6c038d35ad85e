"""Brute force over the whole Galois group, the reference for every n.

For a set A of nonzero rationals with prime support S, let N = lcm(2n, 8 *
the odd primes of S).  The Galois group of Q(zeta_N, p^(1/n) : p in S) over
Q is the set of pairs (x, t) in (Z/n)^S x (Z/N)^x with, for even n, x_p
odd exactly when the Jacobi symbol (p/t) is -1 (Schinzel).  (x, t) fixes
a root of X^n - a exactly when gcd(t - 1, n) divides <x, e_a> + h [a < 0],
with h = (t - 1)/2 for even n and 0 for odd n.  The share of pairs that
fix no root is the density of the primes at which A fails (Chebotarev),
and A holds exactly when it is zero.

Nothing here comes from locus: exponents by trial division, the Jacobi
symbol from Euler's criterion on the prime factors of t, and every pair
visited one by one.  Small supports and small n only.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod


def _primes_of(m):
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + ([m] if m > 1 else [])


def columns(elements, n):
    """(support primes, columns): per element, 1 for a negative sign (even n
    only), then its exponents mod n over the support."""
    values = [Fraction(e) for e in elements]
    support = sorted({p for v in values for m in (abs(v.numerator), v.denominator)
                      for p in _primes_of(m)})
    cols = []
    for v in values:
        col = [int(v < 0 and n % 2 == 0)]
        for p in support:
            e, num, den = 0, abs(v.numerator), v.denominator
            while num % p == 0:
                num, e = num // p, e + 1
            while den % p == 0:
                den, e = den // p, e - 1
            col.append(e % n)
        cols.append(col)
    return support, cols


def legendre_jacobi(a, t):
    """(a/t) for odd t > 0, multiplied out over the prime factors of t."""
    out, m = 1, t
    for q in _primes_of(t):
        while m % q == 0:
            m //= q
            r = pow(a, (q - 1) // 2, q)
            out *= -1 if r == q - 1 else r
    return out


def failing_density(n, support, cols):
    """Share of the group's pairs (x, t) that fix no root of any X^n - a."""
    big = lcm(2 * n, 8 * prod(p for p in support if p > 2))
    bad = total = 0
    for t in range(1, big, 2):
        if gcd(t, big) > 1:
            continue
        g, h = gcd(t - 1, n), (t - 1) // 2 if n % 2 == 0 else 0
        parity = [int(legendre_jacobi(p, t) == -1) for p in support]
        ranges = [range(n) if n % 2 else range(e, n, 2) for e in parity]
        for x in product(*ranges):
            total += 1
            bad += all((h * col[0] + sum(a * b for a, b in zip(x, col[1:]))) % g
                       for col in cols)
    return Fraction(bad, total)


def density(elements, n):
    return failing_density(n, *columns(elements, n))


def holds(elements, n):
    return density(elements, n) == 0


def euler_member(a, k, p):
    """Euler's criterion at one odd prime p prime to the rational a: is a
    a k-th power mod p?  The per-prime test whose failures density counts."""
    a = Fraction(a)
    return pow(a.numerator * pow(a.denominator, -1, p), (p - 1) // gcd(k, p - 1), p) == 1
