import time
import warnings
from fractions import Fraction

import pytest

from lacuna import sequences
from lacuna.errors import NonIntegerRecurrence, NonPositiveTerm, RoundingAmbiguous, TooLarge
from lacuna.sequences import SequenceSpec, generate_terms, parse_sequence


def test_pow2plus1_terms():
    assert generate_terms(SequenceSpec.pow2plus1(), 3) == [3, 5, 9]


def test_fibonacci_keeps_leading_duplicate():
    assert generate_terms(SequenceSpec.fibonacci(), 5) == [1, 1, 2, 3, 5]


def test_lucas_terms():
    assert generate_terms(SequenceSpec.lucas(), 4) == [1, 3, 4, 7]


def test_geometric_terms():
    assert generate_terms(SequenceSpec.geometric(3, 2), 4) == [6, 12, 24, 48]


def test_closed_form_families_follow_their_recurrence_data():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # only kind "recurrence" may warn
        assert generate_terms(SequenceSpec.pow2plus1(), 70) == [2**k + 1 for k in range(1, 71)]
        geometric = generate_terms(SequenceSpec.geometric(3, 7), 70)
    assert geometric == [3 * 7**k for k in range(1, 71)]


def test_roundpow_pi_terms():
    spec = SequenceSpec.roundpow("3.14159265358979323846", 128)
    assert generate_terms(spec, 3) == [3, 10, 31]


def test_roundpow_integer_ratio_matches_geometric():
    rounded = generate_terms(SequenceSpec.roundpow("2", 64), 20)
    assert rounded == generate_terms(SequenceSpec.geometric(1, 2), 20)


def test_recurrence_variant_matches_fibonacci():
    spec = SequenceSpec.recurrence((-1, -1, 1), (1, 1))
    assert generate_terms(spec, 64) == generate_terms(SequenceSpec.fibonacci(), 64)


def test_recurrence_with_rational_root_warns():
    spec = SequenceSpec.recurrence((2, -3, 1), (3, 5))
    with pytest.warns(RuntimeWarning, match="rational root"):
        assert generate_terms(spec, 6) == [3, 5, 9, 17, 33, 65]


def test_recurrence_non_integer_division():
    spec = SequenceSpec.recurrence((1, 2), (1,))  # 2 a_{k+1} = -a_k
    with pytest.raises(NonIntegerRecurrence):
        generate_terms(spec, 3)


def test_recurrence_negative_term():
    spec = SequenceSpec.recurrence((1, 1), (1,))  # a_{k+1} = -a_k
    with pytest.raises(NonPositiveTerm):
        generate_terms(spec, 2)


def test_roundpow_half_integer_is_ambiguous():
    with pytest.raises(RoundingAmbiguous):
        generate_terms(SequenceSpec.roundpow("1.5", 64), 1)


def test_roundpow_low_precision_is_ambiguous():
    # At 4 claimed bits the propagated interval swallows the guard early.
    with pytest.raises(RoundingAmbiguous):
        generate_terms(SequenceSpec.roundpow("3.14159265358979323846", 4), 22)


def test_term_bit_guard_trips_on_the_running_total(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="the first 26838 terms hold over 250000000 bits"):
        generate_terms(SequenceSpec.fibonacci(), 10**6)
    with pytest.raises(TooLarge, match="bits"):
        generate_terms(SequenceSpec.geometric(1, 2), 10**12)
    assert time.perf_counter() - started < 2.0
    fib = generate_terms(SequenceSpec.fibonacci(), 30)
    monkeypatch.setattr(sequences, "MAX_TERM_BITS", sum(t.bit_length() for t in fib))
    assert generate_terms(SequenceSpec.fibonacci(), 30) == fib
    with pytest.raises(TooLarge, match="the first 31 terms"):
        generate_terms(SequenceSpec.fibonacci(), 31)


def test_roundpow_work_guard_trips_before_the_loop(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="22 rounded powers at 99999999999 bits"):
        generate_terms(SequenceSpec.roundpow("3.14", 99999999999), 22)  # 2**prec is never built
    assert time.perf_counter() - started < 1.0
    eta = Fraction("3.14159265358979323846")
    size = 22 * (128 + eta.numerator.bit_length() + eta.denominator.bit_length())
    monkeypatch.setattr(sequences, "MAX_ROUNDPOW_WORK", 22 * size**2)
    spec = SequenceSpec.roundpow("3.14159265358979323846", 128)
    assert generate_terms(spec, 22)[-1] == 86556004192  # round(pi**22)
    with pytest.raises(TooLarge, match="work units"):
        generate_terms(spec, 23)


def test_roundpow_exponent_is_read_before_the_fraction(monkeypatch):
    def never(*args):
        raise AssertionError("no Fraction may be built past the cap")

    started = time.perf_counter()
    monkeypatch.setattr(sequences, "Fraction", never)
    spec = SequenceSpec.roundpow("1e2000000", 8)  # a positive exponent means eta >= 10
    with pytest.raises(TooLarge, match="^5 rounded powers of a ratio near 10\\*\\*2000000 at 8 bits"):
        generate_terms(spec, 5)  # 5 * (5 * (8 + 3 * 2e6))**2 > 3e13
    with pytest.raises(ValueError, match="must exceed 1"):
        SequenceSpec.roundpow("1e-2000000", 8)
    with pytest.raises(ValueError, match="bad rounded-power ratio"):
        SequenceSpec.roundpow("1e9999999999999999999", 8)  # past what Decimal reads
    spec = SequenceSpec.roundpow("1e1000000", 8)
    with pytest.raises(TooLarge, match="^2 rounded powers of a ratio near 10\\*\\*1000000 at 8 bits"):
        generate_terms(spec, 2)  # 2 * (2 * (8 + 3e6))**2 = 7.2e13
    assert time.perf_counter() - started < 2.0


def test_explicit_terms_and_positivity():
    assert generate_terms(SequenceSpec.explicit([3, 5, 9]), 2) == [3, 5]
    with pytest.raises(NonPositiveTerm):
        generate_terms(SequenceSpec.explicit([1, 0]), 2)
    with pytest.raises(ValueError):
        generate_terms(SequenceSpec.explicit([1, 2]), 5)


def test_generation_is_deterministic():
    spec = SequenceSpec.roundpow("3.14159265358979323846", 128)
    assert generate_terms(spec, 15) == generate_terms(spec, 15)


@pytest.mark.parametrize(
    "text",
    [
        "pow2plus1",
        "fibonacci",
        "lucas",
        "explicit:3,5,9",
        "geometric:c=1,eta=2",
        "recurrence:poly=-1,-1,1;init=1,1",
        "roundpow:eta=3.14159265358979323846,prec=128",
    ],
)
def test_parse_label_round_trip(text):
    spec = parse_sequence(text)
    assert spec.label() == text
    assert parse_sequence(spec.label()) == spec


@pytest.mark.parametrize(
    "text",
    [
        "unknown",
        "geometric:c=1",
        "geometric:c=0,eta=2",
        "geometric:c=1,eta=1",
        "recurrence:poly=1,1",
        "recurrence:poly=-1,-1,0;init=1,1",
        "roundpow:eta=0.5,prec=64",
        "explicit:a,b",
        "fibonacci:extra",
    ],
)
def test_parse_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_sequence(text)


def test_recurrence_data_families():
    assert SequenceSpec.fibonacci().recurrence_data() == ((-1, -1, 1), (1, 1))
    assert SequenceSpec.lucas().recurrence_data() == ((-1, -1, 1), (1, 3))
    assert SequenceSpec.geometric(1, 2).recurrence_data() == ((-2, 1), (2,))
    assert SequenceSpec.pow2plus1().recurrence_data() == ((2, -3, 1), (3, 5))
    assert SequenceSpec.explicit([1]).recurrence_data() is None
    poly, init = SequenceSpec.pow2plus1().recurrence_data()
    with pytest.warns(RuntimeWarning):
        assert generate_terms(SequenceSpec.recurrence(poly, init), 5) == [3, 5, 9, 17, 33]
