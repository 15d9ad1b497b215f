"""Coefficient tables for the odd-reciprocal power sums.

The central sequence here is c_1, c_2, c_3, ... defined by the quadratic
recurrence

    c_1 = 1/2,      c_m = 2/(2m-1) * sum_{i+j=m, i,j>=1} c_i c_j

(the convolution runs over ordered pairs, so cross terms appear twice and
square terms once).  These rationals tie the odd-reciprocal power sums to
powers of pi/2:

    lambda(2m) := 1 + 3**-2m + 5**-2m + 7**-2m + ... = c_m * (pi/2)**(2m)

and, equivalently, 2*c_m is the Maclaurin coefficient of x**(2m-1) in tan x.
The table comes from the integer tangent numbers T_m = 2 (2m-1)! c_m (1, 2,
16, 272, ...): scaled by 2 (2m-1)!, the recurrence becomes T_1 = 1,
T_m = sum_{i=1}^{m-1} C(2m-2, 2i-1) T_i T_{m-i}, with no gcd per step.
Both identities are verified elsewhere in this package; this module also
provides the independent oracle for that cross-check: the tangent
coefficients from the Bernoulli numbers B_k, each even B_k from Ramanujan's
lacunary recurrence (S. Ramanujan, "Some properties of Bernoulli's
numbers", J. Indian Math. Soc. 3, 1911), which reads only B_(k-6),
B_(k-12), ...: about k/6 products for B_k, against k/2 for the defining
recurrence, so 6,633 in place of 20,100 up to B_400.  As Brent & Harvey do
for the defining recurrence (arXiv:1108.0286), it runs on the integers
D B_k.  By von Staudt-Clausen the denominator of B_k is the product of the
distinct primes p with p-1 dividing k, each at most k+1; a squarefree
product of primes at most k_max+1 divides D = lcm(1, ..., k_max+1), so D
clears every denominator up to B_k_max and every step divides exactly.
D has about k_max*log2(e) bits (Chebyshev's psi), against about
k_max*log2(k_max/e) for (k_max+1)!.  The odd B_k, k >= 3, are zero because
x/(e^x-1) + x/2 is an even function of x.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial, lcm, perm

from .series import OddSeries


# the sequence is a fixed mathematical constant, so computed prefixes of
# (T_m, c_m) are shared between calls; the prefix only grows, so entries
# read after an extension never change, and the lock serialises extensions
_coeff_lock = threading.Lock()
_coeff_prefix: list[tuple[int, Fraction]] = [(1, Fraction(1, 2))]


def _extend(m_max: int) -> list[tuple[int, Fraction]]:
    """The shared prefix, extended to at least m_max entries (T_m, c_m).

    The terms i and m-i of T_m = sum_{i=1}^{m-1} C(2m-2, 2i-1) T_i T_{m-i}
    are equal, as C(2m-2, 2i-1) = C(2m-2, 2m-2i-1).  So T_m is twice the
    sum over i < m/2, plus the middle term C(2m-2, m-1) T_{m/2}^2 when m
    is even: the same recurrence with half the products.  Each c_m is
    checked once, before it is appended, on the integers:
    0 < c_m < c_{m-1} is 0 < T_m < (2m-1)(2m-2) T_{m-1}, as
    c_m / c_{m-1} = T_m / ((2m-1)(2m-2) T_{m-1}).  c_m is then built once,
    as the Fraction T_m / (2 (2m-1)!).
    """
    with _coeff_lock:
        prefix = _coeff_prefix
        for m in range(len(prefix) + 1, m_max + 1):
            t, binom = 0, 2 * m - 2  # binom = C(2m-2, 2i-1), stepped along the row
            for i in range(1, (m + 1) // 2):
                t += binom * prefix[i - 1][0] * prefix[m - i - 1][0]
                binom = binom * ((2 * m - 2 * i - 1) * (2 * m - 2 * i - 2)) // (2 * i * (2 * i + 1))
            t *= 2
            if m % 2 == 0:  # binom is C(2m-2, m-1) here
                t += binom * prefix[m // 2 - 1][0] ** 2
            if not 0 < t < (2 * m - 1) * (2 * m - 2) * prefix[-1][0]:
                raise AssertionError(f"c_{m} is not in (0, c_{m - 1})")
            prefix.append((t, Fraction(t, 2 * factorial(2 * m - 1))))
    return _coeff_prefix


def lambda_coefficients(m_max: int) -> OddSeries:
    """First m_max terms of the recurrence c_1 = 1/2, c_m = 2/(2m-1) * conv.

    The convolution sum_{i+j=m} c_i c_j is over ordered pairs, matching the
    instance pattern c_4 = 2/7 * (2 c_1 c_3 + c_2 c_2).  It runs as the
    tangent-number recurrence of the module docstring: O(m_max^2) integer
    operations the first time a prefix is needed; later calls reuse them.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    return OddSeries(tuple(c for _, c in _extend(m_max)[:m_max]))


def bernoulli_numbers(k_max: int) -> tuple[Fraction, ...]:
    """B_0..B_k_max (B_0 = 1, B_1 = -1/2) by Ramanujan's lacunary recurrence.

    For even k >= 2 and n = k + 3,

        C(n, 3) B_k = A_k - sum_{j >= 1, 6j <= k} C(n, k-6j) B_(k-6j),

    with A_k = n/3 for k = 0 or 2 (mod 6) and A_k = -n/6 for k = 4 (mod 6);
    k = 2, 4, 6, 8 give 1/6, -1/30, 1/42, -1/30.  It runs on the integers
    D B_j, D = lcm(1, ..., k_max+1): D A_k is an integer, as 6 | D once
    k_max >= 2, and the binomial starts at C(n, k-6) = C(n, 9), each step
    down six multiplying by i(i-1)...(i-5) and dividing, exactly, by
    (n-i+1)...(n-i+6).  By von Staudt-Clausen the denominator of each B_k,
    k <= k_max, is squarefree with primes at most k+1, so it divides D, and
    C(n, 3) D B_k, the integer the recurrence gives, divides exactly by
    C(n, 3).  B_k takes about k/6 products of a binomial with a D B_j.  A
    remainder in that division, or an even B_k off the signs
    (-1)**(k//2+1) B_k > 0, raises AssertionError.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    denom = lcm(*range(1, k_max + 2))
    scaled = [denom] + [0] * k_max
    if k_max:
        scaled[1] = -denom // 2  # D B_1, as 2 | D
    for k in range(2, k_max + 1, 2):
        n = k + 3
        acc = denom // 3 * n if k % 6 != 4 else -(denom // 6) * n
        binom = comb(n, 9)  # binom = C(n, i), stepped down the row by six
        for i in range(k - 6, -1, -6):
            acc -= binom * scaled[i]
            binom = binom * perm(i, 6) // perm(n - i + 6, 6)
        b, rem = divmod(acc, comb(n, 3))
        if rem:
            raise AssertionError(f"B_{k} is not a multiple of 1/lcm(1..{k_max + 1})")
        if (-1) ** (k // 2 + 1) * b <= 0:
            raise AssertionError(f"B_{k} breaks the alternating sign pattern")
        scaled[k] = b
    return tuple(Fraction(a, denom) for a in scaled)


def tangent_coefficients(m_max: int) -> list[Fraction]:
    """Maclaurin coefficients of tan x at x**(2m-1), m = 1..m_max.

    Computed from Bernoulli numbers via

        [x**(2m-1)] tan x = (-1)**(m-1) * 2**2m * (2**2m - 1) * B_2m / (2m)!

    which is independent of the quadratic recurrence in this module and
    serves as its oracle: 2*c_m must equal these values exactly.  Each is
    built as one Fraction, 4^m (4^m - 1) num(B_2m) over den(B_2m) (2m)!,
    with (2m)! kept as a running product: one normalisation per
    coefficient.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    b = bernoulli_numbers(2 * m_max)
    coeffs, fact = [], 1  # fact = (2m)!
    for m in range(1, m_max + 1):
        fact *= (2 * m - 1) * 2 * m
        coeffs.append(Fraction((-1) ** (m - 1) * 4**m * (4**m - 1) * b[2 * m].numerator,
                               b[2 * m].denominator * fact))
    return coeffs


def lambda_closed_form(m: int) -> Fraction:
    """The rational q_m with lambda(2m) = q_m * pi**(2m).

    Since lambda(2m) = c_m * (pi/2)**(2m), this is just c_m / 4**m.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return _extend(m)[m - 1][1] / (1 << (2 * m))
