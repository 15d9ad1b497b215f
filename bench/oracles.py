"""Brackets computed apart from cosprod, used to check what it prints.

Nothing here imports cosprod, and no route repeats one of its algorithms:

* pi comes from Gauss's formula 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239)
  (cosprod uses Machin's 16 atan(1/5) - 4 atan(1/239));
* the coefficients c_m = T_m / (2 (2m-1)!) come from the integer tangent
  numbers T_m of the Knuth-Buckholtz linear recursion (cosprod uses a
  quadratic recurrence over rationals, checked against Bernoulli numbers);
* log 2 is sum 1/(k 2^k) and cos is bracketed term by term over an interval.

Every bracket is built from integers scaled by 2**bits, each step rounded
outward (floor for a lower end, ceiling for an upper end), so each returned
pair (lo, hi) of exact rationals satisfies lo <= truth <= hi.
"""

from __future__ import annotations

import math
from fractions import Fraction


def tangent_numbers(m_max: int) -> list[int]:
    """T_1..T_m_max = 1, 2, 16, 272, ... with tan x = sum T_m x^(2m-1) / (2m-1)!.

    The Knuth-Buckholtz scheme (Math. Comp. 21, 1967), as given by Brent and
    Harvey (arXiv:1108.0286): O(m_max^2) integer operations, no division.
    """
    t = [0] * (m_max + 1)
    t[1] = 1
    for k in range(2, m_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m_max + 1):
        for j in range(k, m_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def certified_bits(lo: Fraction, hi: Fraction) -> float:
    """-log2 of the width of [lo, hi], exact for widths far below float range."""
    width = Fraction(hi) - Fraction(lo)
    if width <= 0:
        raise ValueError("an interval needs a positive width to certify bits")
    return math.log2(width.denominator) - math.log2(width.numerator)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _atan_recip(q: int, bits: int) -> tuple[int, int]:
    """Bracket of 2**bits * atan(1/q) for an integer q >= 2.

    At step k, power = floor(2**bits / q**(2k+1)) exactly (nested floors of
    positive integers compose), so each summed term is the exact floor of the
    true term; k terms are off by less than k together, and the alternating
    tail is below the first omitted term, itself below 1 once power is 0.
    """
    q2 = q * q
    power = (1 << bits) // q
    total = 0
    k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= q2
        k += 1
    return total - k - 1, total + k + 1


def pi_bracket(bits: int) -> tuple[Fraction, Fraction]:
    """pi by Gauss's formula 48 atan(1/18) + 32 atan(1/57) - 20 atan(1/239)."""
    lo18, hi18 = _atan_recip(18, bits)
    lo57, hi57 = _atan_recip(57, bits)
    lo239, hi239 = _atan_recip(239, bits)
    one = 1 << bits
    return (Fraction(48 * lo18 + 32 * lo57 - 20 * hi239, one),
            Fraction(48 * hi18 + 32 * hi57 - 20 * lo239, one))


def cos_bracket(xlo: Fraction, xhi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """cos over every x in [xlo, xhi], for 0 <= xlo <= xhi < 3.

    Term k of the Maclaurin series, x^(2k) / (2k)!, is bracketed for all x in
    the interval at once (it grows with x).  From k = 1 on the terms shrink,
    since x^2 < 12 <= (2k+1)(2k+2), so the alternating remainder after the
    last kept term is below that term.
    """
    if not 0 <= xlo <= xhi < 3:
        raise ValueError("cos_bracket expects 0 <= xlo <= xhi < 3")
    one = 1 << bits
    x2lo = (xlo * xlo * one).__floor__()
    x2hi = (xhi * xhi * one).__ceil__()
    tlo = thi = lo = hi = one
    k = 0
    while True:
        k += 1
        den = (2 * k - 1) * (2 * k) << bits
        tlo = tlo * x2lo // den
        thi = _ceil_div(thi * x2hi, den)
        if k % 2:
            lo, hi = lo - thi, hi - tlo
        else:
            lo, hi = lo + tlo, hi + thi
        if thi <= 1:
            break
    return Fraction(lo - thi, one), Fraction(hi + thi, one)


def _ln2(bits: int) -> tuple[int, int]:
    """Bracket of 2**bits * log 2 from log 2 = sum_{k>=1} 1 / (k 2^k).

    Each term is floored exactly; the tail after the last nonzero term is
    below 2**bits / (k 2^(k-1)) < 2 ulps.
    """
    one = 1 << bits
    lo = hi = 0
    k = 1
    while one >> k:
        term = (one >> k) // k
        lo += term
        hi += term + 1
        k += 1
    return lo, hi + 2


def _atanh(u: Fraction, bits: int) -> tuple[int, int]:
    """Bracket of 2**bits * atanh(u) for 0 <= u <= 1/3: sum u^(2k+1) / (2k+1).

    The terms are positive; once the upper power is at most one ulp the tail
    is below power * u^2 / ((2k+3)(1 - u^2)) <= power / 8 < 1 ulp.
    """
    one = 1 << bits
    num, den = u.numerator, u.denominator
    plo = num * one // den
    phi = _ceil_div(num * one, den)
    u2lo = num * num * one // (den * den)
    u2hi = _ceil_div(num * num * one, den * den)
    lo, hi = plo, phi
    k = 0
    while phi > 1:
        k += 1
        plo = plo * u2lo >> bits
        phi = _ceil_div(phi * u2hi, one)
        lo += plo // (2 * k + 1)
        hi += _ceil_div(phi, 2 * k + 1)
    return lo, hi + 1


def log_bracket(r: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """log r for a rational r > 0, as r = m 2^e with 1 <= m < 2.

    log r = e log 2 + 2 atanh(u) with u = (m - 1)/(m + 1) in [0, 1/3).
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("log_bracket needs a positive argument")
    e = r.numerator.bit_length() - r.denominator.bit_length()
    if r < Fraction(2) ** e:
        e -= 1
    m = r / Fraction(2) ** e
    alo, ahi = _atanh((m - 1) / (m + 1), bits)
    llo, lhi = _ln2(bits)
    if e < 0:
        llo, lhi = lhi, llo
    one = 1 << bits
    return Fraction(e * llo + 2 * alo, one), Fraction(e * lhi + 2 * ahi, one)


class Oracles:
    """Brackets of the quantities cosprod reports, at one working precision.

    The tangent numbers and the powers (pi/2)^(2m) are extended on demand and
    kept for the life of the object.
    """

    def __init__(self, bits: int = 320) -> None:
        self.bits = bits
        self.pi = pi_bracket(bits)
        self._coeffs: list[Fraction] = []
        one = 1 << bits
        half_pi_lo, half_pi_hi = self.pi[0] / 2, self.pi[1] / 2
        self._step = ((half_pi_lo * half_pi_lo * one).__floor__(),
                      (half_pi_hi * half_pi_hi * one).__ceil__())
        self._powers = [(one, one)]  # (pi/2)^(2m) scaled by 2**bits

    def coefficient(self, m: int) -> Fraction:
        """c_m = T_m / (2 (2m-1)!), exact."""
        if m > len(self._coeffs):
            size = max(m, 2 * len(self._coeffs))
            self._coeffs = [Fraction(t, 2 * math.factorial(2 * k - 1))
                            for k, t in enumerate(tangent_numbers(size), start=1)]
        return self._coeffs[m - 1]

    def lambda_bracket(self, m: int) -> tuple[Fraction, Fraction]:
        """lambda(2m) = c_m (pi/2)^(2m) = q_m pi^(2m)."""
        one = 1 << self.bits
        while len(self._powers) <= m:
            plo, phi = self._powers[-1]
            self._powers.append((plo * self._step[0] >> self.bits,
                                 _ceil_div(phi * self._step[1], one)))
        plo, phi = self._powers[m]
        c = self.coefficient(m)
        return c * Fraction(plo, one), c * Fraction(phi, one)

    def cos_half_pi_over(self, n: Fraction) -> tuple[Fraction, Fraction]:
        """cos(pi / 2n) for a rational n >= 1."""
        scale = Fraction(n.denominator, 2 * n.numerator)
        return cos_bracket(self.pi[0] * scale, self.pi[1] * scale, self.bits)

    def neg_log_cos_half_pi_over(self, n: Fraction) -> tuple[Fraction, Fraction]:
        """-log cos(pi / 2n) for a rational n > 1 (log is increasing)."""
        clo, chi = self.cos_half_pi_over(n)
        return -log_bracket(chi, self.bits)[1], -log_bracket(clo, self.bits)[0]
