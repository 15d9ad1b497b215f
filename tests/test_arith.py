import abc
import math
import operator
import random
from fractions import Fraction as F

import pytest

from cosprod.analytic import cos_approx
from cosprod.arith import (
    BoundedReal,
    Ratio,
    pi_constant,
    real_from_rational,
)
from conftest import (contains, decimal_digits, pi_bracket, round_reference,
                      scaled, sqrt_bracket)

# 50 digits of pi, a standard reference constant
PI_50 = F("3.14159265358979323846264338327950288419716939937510")


class TestRealFromRational:
    def test_exactly_representable(self):
        b = real_from_rational(F(1, 2), 64)
        assert b.value == F(1, 2)
        assert b.abs_error == 0

    def test_one_third_bound(self):
        b = real_from_rational(F(1, 3), 64)
        assert abs(b.value - F(1, 3)) <= b.abs_error <= F(1, 2**63) * F(1, 3) * 2

    def test_relative_contract_random(self):
        rng = random.Random(7)
        for _ in range(200):
            r = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            if r == 0:
                continue
            bits = rng.choice([8, 16, 53, 64, 128])
            b = real_from_rational(r, bits)
            assert abs(b.value - r) <= b.abs_error
            assert b.abs_error <= abs(r) * F(2) ** (1 - bits)

    def test_long_division_digits(self):
        # independent digit-by-digit expansion of 17/630
        digits = decimal_digits(17, 630, 40)
        assert digits.startswith("02698412698412")
        b = real_from_rational(F(17, 630), 128)
        scaled = int(b.value * 10**40)
        assert abs(scaled - int(digits)) <= 1

    def test_minimum_precision(self):
        with pytest.raises(ValueError):
            real_from_rational(F(1, 3), 4)


class TestBoundedRealOps:
    def test_a_ball_has_no_arithmetic(self):
        # every kernel rounds through real_from_rational: a ball is neither
        # combined with a number nor with another ball, nor negated
        a = real_from_rational(F(1, 3), 64)
        b = BoundedReal(F(2, 7), F(1, 2**70), 53)
        for apply in (lambda: a + 1, lambda: 1 + a, lambda: a - F(1, 3), lambda: 1 - a,
                      lambda: a * 2, lambda: 2 * a, lambda: a / 2, lambda: -a):
            with pytest.raises(TypeError):
                apply()
        for x, y in ((a, b), (b, a), (a, a)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(x, y)

    def test_carried_errors_stay_sound_through_random_chains(self):
        # a ball rebuilt through real_from_rational with its error carried,
        # as the routes build theirs, keeps the exactly tracked value: its
        # value scaled or shifted by an exact r, or negated by the constructor
        rng = random.Random(123)
        for _ in range(120):
            bits = rng.choice([8, 24, 53, 96])
            exact = F(rng.randint(-999, 999), rng.randint(1, 999))
            b = real_from_rational(exact, bits)
            for _ in range(10):
                r = F(rng.randint(-99, 99), rng.randint(1, 99))
                step = rng.choice(["scale", "shift", "negate"])
                if step == "scale":
                    b = real_from_rational(b.value * r, bits, b.abs_error * abs(r))
                    exact *= r
                elif step == "shift":
                    b = real_from_rational(b.value + r, bits, b.abs_error)
                    exact += r
                else:
                    b, exact = BoundedReal(-b.value, b.abs_error, bits), -exact
                assert contains(b, exact), (step, bits)
                assert b.precision_bits == bits

    def test_interval(self):
        b = real_from_rational(F(1, 3), 64)
        assert b.lower() <= F(1, 3) <= b.upper()
        assert contains(b, F(1, 3))

    def test_overlap(self):
        a = BoundedReal(F(1), F(1, 10), 64)
        c = BoundedReal(F(6, 5), F(1, 10), 64)
        d = BoundedReal(F(2), F(1, 10), 64)
        assert a.overlaps(c) and c.overlaps(a)
        assert not a.overlaps(d)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BoundedReal(F(1), F(-1, 10), 64)

    def test_a_ball_takes_the_precisions_real_from_rational_takes(self):
        # one rule for balls: the constructor refuses a precision below 8
        # bits with the message real_from_rational gives
        message = "precision_bits must be at least 8"
        for bits in (-1, 0, 1, 4, 7):
            with pytest.raises(ValueError, match=message):
                BoundedReal(1, 0, bits)
            with pytest.raises(ValueError, match=message):
                real_from_rational(1, bits)

    def test_str_prints_a_nonzero_bound_below_float_range(self):
        # an error near 2^-4096 underflows a float to 0; the printed bound must not
        ball = cos_approx(scaled(pi_constant(4112), F(1, 6)), 4096)
        value, bound = str(ball).split(" ± ")
        assert F(bound) >= ball.abs_error > 0
        lo, hi = sqrt_bracket(F(3, 4), 200)
        assert lo - F(1, 10**36) <= F(value) <= hi + F(1, 10**36)

    def test_str_of_a_value_past_the_int_to_str_digit_limit(self):
        assert str(BoundedReal(10**5000, 1, 64)) == "1e+5000 ± 1.0e+00"

    def test_repr_of_small_values_matches_fraction_repr(self):
        ball = BoundedReal(F(-1, 3), F(1, 2**70), 64)
        assert repr(ball) == (f"BoundedReal(value={F(-1, 3)!r}, "
                              f"abs_error={F(1, 2**70)!r}, precision_bits=64)")

    def test_repr_of_a_value_past_the_int_to_str_digit_limit(self):
        assert repr(BoundedReal(10**5000, 1, 64)) == (
            f"BoundedReal(value=Fraction(1{'0' * 5000}, 1), "
            "abs_error=Fraction(1, 1), precision_bits=64)")


def _random_rational(rng, dyadic):
    num = rng.randint(-(1 << rng.randint(1, 160)), 1 << rng.randint(1, 160))
    den = 1 << rng.randint(0, 200)
    if not dyadic:
        den *= rng.randrange(3, 10**6, 2)
    return F(num, den)


def _random_operand(rng):
    """An int, a Fraction (dyadic or not) or a BoundedReal of any provenance."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-10**6, 10**6) or 1
    if kind == 1:
        return _random_rational(rng, rng.random() < 0.5) or F(1, 3)
    bits = rng.choice([8, 9, 16, 53, 64, 100, 128, 256, 1000, 4096])
    value = _random_rational(rng, rng.random() < 0.5)
    err = abs(_random_rational(rng, rng.random() < 0.5)) * rng.choice([0, 1, F(1, 2**bits)])
    if kind == 2:
        return BoundedReal(value, err, bits)
    return real_from_rational(value, bits, err, floor=rng.random() < 0.3)


class TestRoundingOracle:
    def test_random_carried_error_chains(self):
        # each link rounds the last ball's value times, or plus, an exact int
        # or Fraction at the ball's precision, its error carried, so every
        # link after the first reads a ball that real_from_rational made
        rng = random.Random(2024)
        kinds = set()
        for _ in range(300):
            a = _random_operand(rng)
            if not isinstance(a, BoundedReal):
                a = BoundedReal(a, 0, rng.choice([8, 53, 4096]))
            for _ in range(6):
                r = _random_operand(rng)
                if isinstance(r, BoundedReal):
                    r = r.value
                if rng.random() < 0.5:
                    value, err = a.value * r, a.abs_error * abs(r)
                else:
                    value, err = a.value + r, a.abs_error
                bits = a.precision_bits
                a = real_from_rational(value, bits, err)
                assert (a.value, a.abs_error) == round_reference(value, bits, err), (value, err)
                assert a.precision_bits == bits
                kinds.add(type(r).__name__)
        assert kinds == {"int", "Fraction"}

    def test_random_real_from_rational(self):
        rng = random.Random(2025)
        for _ in range(1000):
            bits = rng.choice([8, 10, 53, 128, 1000, 4096])
            r = _random_rational(rng, rng.random() < 0.5)
            err = abs(_random_rational(rng, rng.random() < 0.5)) * rng.choice([0, 1])
            floor = rng.random() < 0.5
            b = real_from_rational(r, bits, err, floor)
            assert (b.value, b.abs_error) == round_reference(r, bits, err, floor)

    def test_exact_halves_round_to_even(self):
        # 257/2 and 259/2 need 9 bits: at 8 bits each is a tie
        for r, nearest in ((F(257, 2), 128), (F(259, 2), 130),
                           (F(-257, 2), -128), (F(-259, 2), -130)):
            b = real_from_rational(r, 8)
            assert (b.value, b.abs_error) == (nearest, F(1, 2))
            assert (b.value, b.abs_error) == round_reference(r, 8)
            # a tie in an unreduced Ratio, whose 2 rem == den is 3 times larger
            c = real_from_rational(Ratio(3 * r.numerator, 3 * r.denominator), 8)
            assert (c.value, c.abs_error) == (nearest, F(1, 2))

    def test_floor_of_negative_values(self):
        for r, down in ((F(-257, 2), -129), (F(-1, 3), F(-171, 512)), (F(-256), -256)):
            b = real_from_rational(r, 8, floor=True)
            assert b.value == down and b.value <= r
            assert (b.value, b.abs_error) == round_reference(r, 8, 0, True)
        assert real_from_rational(F(-256), 8, floor=True).abs_error == 0

    def test_overlaps_against_the_interval_ends(self):
        # overlaps reads the sign of e1 + e2 - |v1 - v2| off triples; it must
        # give the verdict of the Fraction ends, lower() <= other.upper() and
        # the other way round, also for touching and one-ulp-apart balls
        rng = random.Random(1717)
        verdicts = set()
        for case in range(600):
            a = _random_operand(rng)
            if not isinstance(a, BoundedReal):
                a = BoundedReal(a, F(1, 3), 64)
            e = abs(_random_rational(rng, rng.random() < 0.5)) * rng.choice([0, 1])
            top = a.upper()
            # about one ulp of a's upper end at a's precision
            ulp = F(2) ** (top.numerator.bit_length() - top.denominator.bit_length()
                           - a.precision_bits)
            kind = case % 3
            if kind == 0:
                b = _random_operand(rng)
                if not isinstance(b, BoundedReal):
                    b = BoundedReal(b, abs(_random_rational(rng, False)), 64)
            elif kind == 1:  # b's lower end is a's upper end
                b = BoundedReal(top + e, e, 64)
            else:  # b's lower end one ulp above a's upper end
                b = BoundedReal(top + ulp + e, e, 64)
            ends = a.lower() <= b.upper() and b.lower() <= a.upper()
            assert a.overlaps(b) == b.overlaps(a) == ends, (a, b)
            if kind:
                assert ends == (kind == 1), (a, b)
            else:
                verdicts.add(ends)
        assert verdicts == {True, False}

    def test_every_read_is_the_reduced_fraction(self):
        # value, abs_error, lower() and upper() are built with no gcd, so
        # each must come out equal to the Fraction that reduces, numerator
        # and denominator alike, and coprime.  The balls are rounded ones
        # at 8 to 16,384 bits, whose ends are dyadic and may end in zeros,
        # and the constructor's, whose ends may share an odd factor
        def reads(ball, value, err):
            want = (value, err, value - err, value + err)
            got = (ball.value, ball.abs_error, ball.lower(), ball.upper())
            for w, g in zip(want, got):
                assert type(g) is F and type(g.numerator) is int, ball
                assert (g.numerator, g.denominator) == (w.numerator, w.denominator), ball
                assert g.denominator > 0 and math.gcd(g.numerator, g.denominator) == 1
            lcm = value.denominator * err.denominator // math.gcd(value.denominator,
                                                                 err.denominator)
            return [g.denominator < lcm for g in got[2:]], lcm & (lcm - 1) == 0

        rng = random.Random(1818)
        # ends in lower terms than v and e, for dyadic balls and others
        shortened = {True: 0, False: 0}
        balls = [(BoundedReal(0, 0, 8), F(0), F(0)), (BoundedReal(F(2, 3), F(1, 3), 8),
                  F(2, 3), F(1, 3)), (BoundedReal(F(3, 8), F(1, 8), 8), F(3, 8), F(1, 8))]
        for _ in range(400):
            bits = rng.choice([8, 9, 53, 128, 1024, 4096, 16384])
            if rng.random() < 0.5:
                r = _random_rational(rng, rng.random() < 0.5) * rng.choice([0, 1])
                err = abs(_random_rational(rng, rng.random() < 0.5)) * rng.choice(
                    [0, 1, F(1, 2**bits)])
                floor = rng.random() < 0.3
                ball = real_from_rational(r, bits, err, floor)
                value, err = round_reference(r, bits, err, floor)
            else:  # an int, a dyadic or a non-dyadic Fraction for each
                odd = rng.choice([1, 1, 3, 15, rng.randrange(3, 10**6, 2)])
                value, err = (F(rng.randint(-10**6, 10**6), odd << rng.randint(0, 200)),
                              F(rng.randint(0, 10**6), odd << rng.randint(0, 200)))
                if rng.random() < 0.3:
                    value, err = value.numerator, err.numerator
                ball = BoundedReal(value, err, bits)
            balls += [(ball, value, err), (BoundedReal(-value, err, bits), -value, err)]
        for ball, value, err in balls:
            shorts, dyadic = reads(ball, value, err)
            shortened[dyadic] += sum(shorts)
        assert min(shortened.values()) >= 10, shortened

    def test_repeated_reads_take_one_subclass_check_each(self, monkeypatch):
        # Fraction(r) asks isinstance(r, Rational).  The pairs that the reads
        # and conftest's reference rounding build are of a subclass of the
        # registered class, which isinstance caches after one check; the
        # registered class itself would reach the Python-level
        # ABCMeta.__subclasscheck__ on every read
        checked = []
        check = abc.ABCMeta.__subclasscheck__

        def counted(cls, subclass):
            checked.append(subclass)
            return check(cls, subclass)

        monkeypatch.setattr(abc.ABCMeta, "__subclasscheck__", counted)
        for _ in range(100):
            ball = real_from_rational(F(1, 3), 128, F(1, 10**9))
            reads = ball.value, ball.abs_error, ball.lower(), ball.upper()
            assert round_reference(F(1, 3), 128, F(1, 10**9)) == reads[:2]
        # 400 reads and 100 references, and no class checked twice
        assert len(checked) == len(set(checked)), checked

    def test_an_unreduced_ratio_rounds_as_its_fraction(self):
        # real_from_rational rounds a Ratio with any common factor left in
        # as it rounds the Fraction
        rng = random.Random(1818)
        for _ in range(600):
            bits = rng.choice([8, 53, 128, 4096])
            r = _random_rational(rng, rng.random() < 0.5)
            err = abs(_random_rational(rng, rng.random() < 0.5)) * rng.choice([0, 1])
            g, h = (rng.choice((1, 1 << rng.randint(1, 300), rng.getrandbits(200) | 1))
                    for _ in range(2))
            floor = rng.random() < 0.5
            b = real_from_rational(Ratio(r.numerator * g, r.denominator * g), bits,
                                   Ratio(err.numerator * h, err.denominator * h), floor)
            assert (b.value, b.abs_error) == round_reference(r, bits, err, floor)

    def test_a_ball_is_built_from_ints_and_fractions_only(self):
        # value and error are each an int or a Fraction, read back exactly,
        # so equal numbers build equal balls; a Ratio, a float or a ball
        # raises TypeError
        rng = random.Random(1919)
        for _ in range(200):
            value = _random_rational(rng, rng.random() < 0.5)
            err = abs(_random_rational(rng, rng.random() < 0.5))
            bits = rng.choice([8, 64, 4096])
            ball = BoundedReal(value, err, bits)
            assert (ball.value, ball.abs_error) == (value, err)
            whole = BoundedReal(value.numerator, err.numerator, bits)
            assert whole == BoundedReal(F(value.numerator), F(err.numerator), bits)
            assert hash(whole) == hash(BoundedReal(F(value.numerator), err.numerator, bits))
        ball = BoundedReal(F(1, 3), 0, 64)
        for value, err in ((Ratio(1, 3), 0), (F(1, 3), Ratio(1, 10)), (0.5, 0),
                           (F(1, 3), 0.1), (ball, 0), (F(1, 3), ball)):
            with pytest.raises(TypeError):
                BoundedReal(value, err, 64)

    def test_non_dyadic_error_is_carried_exactly(self):
        b = BoundedReal(F(1, 3), F(1, 7), 64)
        assert (b.value, b.abs_error) == (F(1, 3), F(1, 7))
        c = scaled(b, F(-3, 5))
        assert (c.value, c.abs_error) == round_reference(F(-1, 5), 64, F(3, 35))

    def test_immutable_and_hashable(self):
        b = real_from_rational(F(1, 3), 64)
        with pytest.raises(AttributeError):
            b.precision_bits = 10
        same = BoundedReal(b.value, b.abs_error, 64)
        assert same == b and hash(same) == hash(b)
        assert len({b, same, BoundedReal(-b.value, b.abs_error, 64)}) == 2


class TestPiConstant:
    def test_against_independent_formula(self):
        lo, hi = pi_bracket(terms=80)
        for bits in (64, 128, 256):
            p = pi_constant(bits)
            assert p.lower() <= hi and lo <= p.upper()
            assert contains(p, PI_50) or abs(p.value - PI_50) <= p.abs_error + F(1, 10**49)

    def test_digit_literal(self):
        p = pi_constant(192)
        assert abs(p.value - PI_50) <= p.abs_error + F(1, 10**49)

    def test_error_contract(self):
        for bits in (8, 16, 64, 128, 256):
            p = pi_constant(bits)
            assert p.abs_error <= F(2) ** (4 - bits)

    def test_monotone_and_nested(self):
        coarse = pi_constant(64)
        fine = pi_constant(256)
        assert fine.abs_error < coarse.abs_error
        # sound intervals around the same constant must pairwise overlap
        for a_bits in (64, 96, 128):
            for b_bits in (64, 96, 128):
                assert pi_constant(a_bits).overlaps(pi_constant(b_bits))

    def test_cache_is_bounded(self):
        for bits in range(8, 108):
            pi_constant(bits)
        info = pi_constant.cache_info()
        assert 8 <= info.maxsize and info.currsize <= info.maxsize

    def test_deterministic(self):
        assert pi_constant(100).value == pi_constant(100).value

    def test_refinement_consistency(self):
        a, b = pi_constant(64), pi_constant(128)
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error
