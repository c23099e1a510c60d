import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import sequences
from lacuna.errors import LacunaError, TooLarge
from lacuna.sequences import generate_terms, parse_sequence
from oracles import rounded_powers_fraction


def test_pow2plus1_terms():
    assert generate_terms(parse_sequence("pow2plus1"), 3) == [3, 5, 9]


def test_fibonacci_keeps_leading_duplicate():
    assert generate_terms(parse_sequence("fibonacci"), 5) == [1, 1, 2, 3, 5]


def test_lucas_terms():
    assert generate_terms(parse_sequence("lucas"), 4) == [1, 3, 4, 7]


def test_geometric_terms():
    assert generate_terms(parse_sequence("geometric:c=3,eta=2"), 4) == [6, 12, 24, 48]


def test_closed_form_families_follow_their_recurrence_data():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # generation never warns
        assert generate_terms(parse_sequence("pow2plus1"), 70) == [2**k + 1 for k in range(1, 71)]
        geometric = generate_terms(parse_sequence("geometric:c=3,eta=7"), 70)
    assert geometric == [3 * 7**k for k in range(1, 71)]


def test_roundpow_pi_terms():
    spec = parse_sequence("roundpow:eta=3.14159265358979323846,prec=128")
    assert generate_terms(spec, 3) == [3, 10, 31]


def test_roundpow_integer_ratio_matches_geometric():
    rounded = generate_terms(parse_sequence("roundpow:eta=2,prec=64"), 20)
    assert rounded == generate_terms(parse_sequence("geometric:c=1,eta=2"), 20)


def test_recurrence_variant_matches_fibonacci():
    spec = parse_sequence("recurrence:poly=-1,-1,1;init=1,1")
    assert generate_terms(spec, 64) == generate_terms(parse_sequence("fibonacci"), 64)


def test_recurrence_non_integer_division():
    spec = parse_sequence("recurrence:poly=1,2;init=1")  # 2 a_{k+1} = -a_k
    with pytest.raises(LacunaError, match="^term 2: -1 is not divisible by leading coefficient 2$"):
        generate_terms(spec, 3)


def test_recurrence_negative_term():
    spec = parse_sequence("recurrence:poly=1,1;init=1")  # a_{k+1} = -a_k
    with pytest.raises(LacunaError, match="^term 2 = -1 is not positive$"):
        generate_terms(spec, 2)


COVERS = r" from a half-integer, which its error at {} bits plus the guard 0.00391 covers$"


def test_roundpow_half_integer_is_ambiguous():
    with pytest.raises(LacunaError, match=r"^eta\*\*1 is 0" + COVERS.format(64)):
        generate_terms(parse_sequence("roundpow:eta=1.5,prec=64"), 1)


def test_roundpow_low_precision_is_ambiguous():
    # At 4 claimed bits the propagated interval swallows the guard early.
    with pytest.raises(LacunaError, match=r"^eta\*\*2 is 0.37" + COVERS.format(4)):
        generate_terms(parse_sequence("roundpow:eta=3.14159265358979323846,prec=4"), 22)


def test_roundpow_reads_long_decimals_without_the_digit_limit():
    # Python's str -> int conversion refuses over 4300 digits; the ratio is read through Decimal instead.
    assert generate_terms(parse_sequence("roundpow:eta=1." + "0" * 5000 + "1,prec=8"), 2) == [1, 1]
    threes = (10**5000 - 1) // 3  # 333...3, 5000 digits
    assert generate_terms(parse_sequence(f"roundpow:eta={'3' * 5000},prec=16700"), 2) == [threes, threes**2]


def test_roundpow_reads_long_fractions_without_the_digit_limit():
    # Fraction(str) reads p and q through int(str), which stops at 4300 digits; the ratio reads them as Decimals.
    threes = "3" * 5000
    eta = Fraction(int(Decimal(threes)), 7)  # 5/7 past an integer
    assert generate_terms(parse_sequence(f"roundpow:eta={threes}/7,prec=16700"), 2) == [round(eta), round(eta**2)]
    with pytest.raises(LacunaError, match=r"^eta\*\*2 is 0.276" + COVERS.format(8)):
        generate_terms(parse_sequence(f"roundpow:eta={threes}/7,prec=8"), 2)


def _fraction_outcome(token):
    """What the ratio reader made of a p/q token when Fraction read it whole."""
    try:
        eta = Fraction(token)
    except ZeroDivisionError:
        return f"bad rounded-power ratio {token!r}: zero denominator"
    except ValueError:
        return f"bad rounded-power ratio {token!r}"
    return (eta, 0) if eta > 1 else "rounded-power ratio must exceed 1"


@given(st.text(alphabet="0123456789/ +-._eE\u0663\t", min_size=1, max_size=8).filter(lambda token: "/" in token))
@settings(max_examples=300)
def test_ratio_reader_keeps_the_outcome_of_fraction_on_every_short_p_q(token):
    # Whitespace, signs, underscores, exponents and digits of any script: every outcome is Fraction's.
    try:
        outcome = sequences._read_ratio(token)
    except ValueError as exc:
        outcome = str(exc)
    assert outcome == _fraction_outcome(token)


def test_term_bit_guard_trips_on_the_running_total(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="the first 26838 terms hold over 250000000 bits"):
        generate_terms(parse_sequence("fibonacci"), 10**6)
    with pytest.raises(TooLarge, match="bits"):
        generate_terms(parse_sequence("geometric:c=1,eta=2"), 10**12)
    assert time.perf_counter() - started < 2.0
    fib = generate_terms(parse_sequence("fibonacci"), 30)
    monkeypatch.setattr(sequences, "MAX_TERM_BITS", sum(t.bit_length() for t in fib))
    assert generate_terms(parse_sequence("fibonacci"), 30) == fib
    with pytest.raises(TooLarge, match="the first 31 terms"):
        generate_terms(parse_sequence("fibonacci"), 31)


def test_roundpow_work_guard_trips_before_the_loop(monkeypatch):
    started = time.perf_counter()
    with pytest.raises(TooLarge, match="22 rounded powers at 99999999999 bits"):
        generate_terms(parse_sequence("roundpow:eta=3.14,prec=99999999999"), 22)  # 2**prec is never built
    assert time.perf_counter() - started < 1.0
    eta = Fraction("3.14159265358979323846")
    size = 128 + eta.numerator.bit_length() + eta.denominator.bit_length()
    monkeypatch.setattr(sequences, "MAX_ROUNDPOW_WORK", 22**2 * size * (int(size**0.585) + 10))
    spec = parse_sequence("roundpow:eta=3.14159265358979323846,prec=128")
    assert generate_terms(spec, 22)[-1] == 86556004192  # round(pi**22)
    with pytest.raises(TooLarge, match="work units"):
        generate_terms(spec, 23)


def _decimal_in_one_to_ten(digits: int, num: int) -> str:
    """num / 10**digits written out with `digits` decimals."""
    text = str(num)
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


decimal_ratios = st.integers(0, 30).flatmap(
    lambda digits: st.builds(_decimal_in_one_to_ten, st.just(digits), st.integers(10**digits + 1, 10 ** (digits + 1)))
)
quotient_ratios = st.integers(1, 10**9).flatmap(
    lambda q: st.builds(lambda p: f"{p}/{q}", st.integers(q + 1, 10 * q))
)


def _outcome(route, *args):
    try:
        return route(*args)
    except LacunaError as exc:
        return type(exc), str(exc)


@given(eta=st.one_of(decimal_ratios, quotient_ratios), prec=st.integers(1, 300), n=st.integers(1, 120))
@settings(max_examples=80, deadline=None)
def test_roundpow_integer_loop_matches_the_fraction_loop(eta, prec, n):
    # Same terms, or the same refusal with the same message, as the loop on reduced fractions.
    spec = parse_sequence(f"roundpow:eta={eta},prec={prec}")
    assert _outcome(generate_terms, spec, n) == _outcome(rounded_powers_fraction, eta, prec, n)


def test_roundpow_exponent_is_read_before_the_fraction(monkeypatch):
    class ExponentOnly(Decimal):
        def as_integer_ratio(self):
            raise AssertionError("the ratio's integers may not be built past the cap")

    started = time.perf_counter()
    monkeypatch.setattr(sequences, "Decimal", ExponentOnly)
    spec = parse_sequence("roundpow:eta=1e2000000,prec=8")  # a positive exponent means eta >= 10
    with pytest.raises(TooLarge, match="^5 rounded powers of a ratio near 10\\*\\*2000000 at 8 bits"):
        generate_terms(spec, 5)  # 5**2 * 6e6 * (6e6**0.585 + 10) = 1.4e12
    with pytest.raises(ValueError, match="must exceed 1"):
        parse_sequence("roundpow:eta=1e-2000000,prec=8")
    with pytest.raises(ValueError, match="bad rounded-power ratio"):
        parse_sequence("roundpow:eta=1e9999999999999999999,prec=8")  # past what Decimal reads
    spec = parse_sequence("roundpow:eta=1e4000000,prec=8")
    with pytest.raises(TooLarge, match="^2 rounded powers of a ratio near 10\\*\\*4000000 at 8 bits"):
        generate_terms(spec, 2)  # 2**2 * 1.2e7 * (1.2e7**0.585 + 10) = 6.6e11
    assert time.perf_counter() - started < 2.0


def test_explicit_terms_and_positivity():
    assert generate_terms(parse_sequence("explicit:3,5,9"), 2) == [3, 5]
    with pytest.raises(LacunaError, match="^term 0 is not a positive integer$"):
        generate_terms(parse_sequence("explicit:1,0"), 2)
    with pytest.raises(ValueError):
        generate_terms(parse_sequence("explicit:1,2"), 5)


def test_generation_is_deterministic():
    spec = parse_sequence("roundpow:eta=3.14159265358979323846,prec=128")
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
    assert spec.text == text
    assert parse_sequence(spec.text) == spec


BAD_SPECS = [
    ("unknown", "unknown sequence kind 'unknown'"),
    ("geometric:c=1", "geometric needs parameters ['c', 'eta'], got ['c']"),
    ("geometric:c=0,eta=2", "geometric factor c must be >= 1"),
    ("geometric:c=1,eta=1", "geometric ratio eta must be >= 2"),
    ("recurrence:poly=1,1", "recurrence needs parameters ['init', 'poly'], got ['poly']"),
    ("recurrence:poly=-1,-1,0;init=1,1", "leading recurrence coefficient must be nonzero"),
    ("roundpow:eta=0.5,prec=64", "rounded-power ratio must exceed 1"),
    ("explicit:a,b", "bad explicit terms 'a,b'"),
    ("fibonacci:extra", "fibonacci takes no parameters"),
    ("geometric:c=1,eta=2,c=3", "geometric repeats parameter 'c'"),
    ("recurrence:poly=-1,-1,1;init=1,1;init=2,2", "recurrence repeats parameter 'init'"),
    ("explicit:", "explicit sequence needs at least one term"),
    ("roundpow:eta=3,prec=0", "precision must be >= 1 bit"),
    ("geometric:c1,eta=2", "expected key=value, got 'c1'"),
    # Each bad token is named with its kind and field.
    ("geometric:c=x,eta=2", "bad geometric c 'x'"),
    ("recurrence:poly=-1,-1,1;init=1,y", "bad recurrence init '1,y'"),
    ("recurrence:poly=5;init=", "bad recurrence init ''"),
    # A nonempty init reaches the degree check, then the init length check.
    ("recurrence:poly=5;init=1", "recurrence polynomial must have degree >= 1"),
    ("recurrence:poly=-1,-1,1;init=1", "need exactly deg(poly) initial terms"),
    ("roundpow:eta=3,prec=z", "bad roundpow prec 'z'"),
    ("roundpow:eta=inf,prec=10", "bad rounded-power ratio 'inf'"),
    ("roundpow:eta=nan,prec=10", "bad rounded-power ratio 'nan'"),
    # Decimal reads these; each must still be refused as not a finite number.
    ("roundpow:eta=Infinity,prec=10", "bad rounded-power ratio 'Infinity'"),
    ("roundpow:eta=-inf,prec=10", "bad rounded-power ratio '-inf'"),
    ("roundpow:eta=sNaN,prec=10", "bad rounded-power ratio 'sNaN'"),
    ("roundpow:eta=a/b,prec=10", "bad rounded-power ratio 'a/b'"),
    # Past 4300 digits a malformed p/q is still refused by its syntax, not by the length of its digits.
    (f"roundpow:eta={'3' * 5000}/-7,prec=8", f"bad rounded-power ratio '{'3' * 5000}/-7'"),
]


@pytest.mark.parametrize(("text", "message"), BAD_SPECS, ids=[text[:60] for text, _ in BAD_SPECS])
def test_parse_rejects_bad_specs(text, message):
    with pytest.raises(ValueError) as refused:
        parse_sequence(text)
    assert str(refused.value) == message


def test_recurrence_data_families():
    def recurrence(text):
        spec = parse_sequence(text)
        return spec.poly, spec.init

    assert recurrence("fibonacci") == ((-1, -1, 1), (1, 1))
    assert recurrence("lucas") == ((-1, -1, 1), (1, 3))
    assert recurrence("geometric:c=1,eta=2") == ((-2, 1), (2,))
    assert recurrence("pow2plus1") == ((2, -3, 1), (3, 5))
    assert recurrence("explicit:1") == ((), ())
    assert generate_terms(parse_sequence("recurrence:poly=2,-3,1;init=3,5"), 5) == [3, 5, 9, 17, 33]
