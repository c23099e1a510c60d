"""Frequency sequences: the CLI mini-language and exact term generation.

``parse_sequence`` validates a spec and returns a SequenceSpec, which
holds the canonical label and the data that generates the terms: an
explicit list, a linear recurrence ``(poly, init)``, or rounded powers
``(eta_decimal, prec)`` of a decimal ratio.  The named families are the
rows of FAMILIES, and ``geometric:c,eta`` is the recurrence
``(-eta, 1)`` from ``c * eta``.  Generation is exact integer arithmetic
everywhere; the rounded powers verify their guard bits and fail loudly
rather than mis-round.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import LacunaError, TooLarge

# Each named family as its recurrence polynomial r_0..r_d (low to high) and initial terms.
FAMILIES = {
    "pow2plus1": ((2, -3, 1), (3, 5)),  # 2**k + 1; the polynomial (z - 1)(z - 2) is reducible
    "fibonacci": ((-1, -1, 1), (1, 1)),
    "lucas": ((-1, -1, 1), (1, 3)),
}
# Rounded powers must clear half-integers by this margin after error
# propagation, or generation refuses.
HALF_INTEGER_GUARD = Fraction(1, 256)
# Fibonacci's first 20,000 terms hold 1.4e8 bits and `cumulants --m 2` peaks at 53 MB.
MAX_TERM_BITS = 25 * 10**7  # running total over the generated terms
# Step k of the integer loop does linear work on k*s-bit integers, s = prec + eta_bits, and one k*s-bit by
# s-bit product, k * s**1.585 under Karatsuba: n**2 * s * (s**0.585 + 10) in all.  On a 2-core host a unit
# took 0.8-3.3e-11 s on a grid of eta = 1.0000001 from s = 68 (n = 10,000, 1.8 s) via s = 2,048 (n = 1,200,
# 6.3 s) to 10^5 (n = 100), pi at s = 6e4, 6e5, 2e6 (n = 22, 22, 10; 0.08-0.84 s), and 10**2000 to 10**4000000.
MAX_ROUNDPOW_WORK = 3 * 10**11  # about 10 s at 3.3e-11 s per unit; see _rounded_powers


# A parsed sequence: its canonical label ``text`` (round-trips through parse) and the data for its terms.
SequenceSpec = namedtuple("SequenceSpec", "text values poly init eta_decimal prec", defaults=((), (), (), "", 0))


def parse_sequence(text: str) -> SequenceSpec:
    """Parse the CLI mini-language, e.g. ``geometric:c=1,eta=2``."""
    name, _, rest = text.strip().partition(":")
    if name in FAMILIES:
        if rest:
            raise ValueError(f"{name} takes no parameters")
        return SequenceSpec(name, poly=FAMILIES[name][0], init=FAMILIES[name][1])
    if name == "explicit":
        try:
            values = tuple(int(v) for v in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValueError(f"bad explicit terms {rest!r}") from exc
        if not values:
            raise ValueError("explicit sequence needs at least one term")
        return SequenceSpec("explicit:" + _joined(values), values=values)
    if name == "geometric":
        (c,), (eta,) = _parse_kv(name, rest, ("c", "eta"), ",", ints=("c", "eta"))
        if c < 1:
            raise ValueError("geometric factor c must be >= 1")
        if eta < 2:
            raise ValueError("geometric ratio eta must be >= 2")
        return SequenceSpec(f"geometric:c={c},eta={eta}", poly=(-eta, 1), init=(c * eta,))
    if name == "recurrence":
        poly, init = _parse_kv(name, rest, ("poly", "init"), ";", ints=("poly", "init"))
        if len(poly) < 2:
            raise ValueError("recurrence polynomial must have degree >= 1")
        if poly[-1] == 0:
            raise ValueError("leading recurrence coefficient must be nonzero")
        if len(init) != len(poly) - 1:
            raise ValueError("need exactly deg(poly) initial terms")
        return SequenceSpec(f"recurrence:poly={_joined(poly)};init={_joined(init)}", poly=poly, init=init)
    if name == "roundpow":
        eta, (prec,) = _parse_kv(name, rest, ("eta", "prec"), ",", ints=("prec",))
        if prec < 1:
            raise ValueError("precision must be >= 1 bit")
        _read_ratio(eta)  # refuses a bad ratio and one <= 1
        return SequenceSpec(f"roundpow:eta={eta},prec={prec}", eta_decimal=eta, prec=prec)
    raise ValueError(f"unknown sequence kind {name!r}")


def _joined(values: tuple[int, ...]) -> str:
    return ",".join(map(str, values))


def _parse_kv(name: str, rest: str, keys: tuple[str, ...], sep: str, ints: tuple[str, ...] = ()) -> list:
    """The values of ``key=value`` items split by sep, each of keys once, in key order; a key in ints as an int tuple."""
    found: dict = {}
    for item in filter(None, rest.split(sep)):
        key, eq, value = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValueError(f"expected key=value, got {item!r}")
        if key in found:
            raise ValueError(f"{name} repeats parameter {key!r}")
        found[key] = value
    if set(found) != set(keys):
        raise ValueError(f"{name} needs parameters {sorted(keys)}, got {sorted(found)}")
    for key in ints:
        try:
            found[key] = tuple(int(v) for v in found[key].split(","))
        except ValueError as exc:
            raise ValueError(f"bad {name} {key} {found[key]!r}") from exc
    return [found[key] for key in keys]


def generate_terms(spec: SequenceSpec, n: int) -> list[int]:
    """Exact first n terms of the sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if spec.poly:
        return _iterate_recurrence(spec.poly, spec.init, n)
    if spec.prec:
        return _rounded_powers(spec.eta_decimal, spec.prec, n)
    if n > len(spec.values):
        raise ValueError(f"explicit sequence has only {len(spec.values)} terms")
    terms = list(spec.values[:n])
    _check_positive(terms)
    return terms


def _check_positive(terms) -> None:
    for t in terms:
        if t < 1:
            raise LacunaError(f"term {t} is not a positive integer")


def _iterate_recurrence(poly: tuple[int, ...], init: tuple[int, ...], n: int) -> list[int]:
    d = len(poly) - 1
    lead = poly[-1]
    terms = list(init)
    _check_positive(terms)
    bits = sum(t.bit_length() for t in terms)
    while len(terms) < n:
        acc = -sum(poly[j] * terms[len(terms) - d + j] for j in range(d))
        quotient, remainder = divmod(acc, lead)
        if remainder:
            raise LacunaError(f"term {len(terms) + 1}: {acc} is not divisible by leading coefficient {lead}")
        if quotient < 1:
            raise LacunaError(f"term {len(terms) + 1} = {quotient} is not positive")
        bits += quotient.bit_length()
        if bits > MAX_TERM_BITS:
            raise TooLarge(f"the first {len(terms) + 1} terms hold over {MAX_TERM_BITS} bits")
        terms.append(quotient)
    return terms[:n]


def _rounded_powers(eta_decimal: str, prec: int, n: int) -> list[int]:
    """round(eta**k) with guard-bit verification.

    The decimal string is taken as exact; ``prec`` is the claimed
    accuracy of that value in bits.  Each power must clear the nearest
    half-integer by the guard margin after propagating the 2**-prec
    input uncertainty, otherwise rounding is refused as ambiguous.  With
    eta = p/q the powers of p, q and the upper end's numerator stay
    plain integers and the tests are cross-multiplied: no fraction is reduced.
    """
    eta, e = _read_ratio(eta_decimal)
    if e:  # the numerator has over 3e bits; as_integer_ratio would build 10**e first
        _check_roundpow_work(n, prec, 3 * e, f" of a ratio near 10**{e}")
    p, q = eta.as_integer_ratio()  # a Decimal's has no str -> int digit limit
    _check_roundpow_work(n, prec, p.bit_length() + q.bit_length())
    guard, hi = HALF_INTEGER_GUARD, (p << prec) + q  # eta + 2**-prec = hi / (q 2**prec)
    p_k = q_k = hi_k = 1
    terms: list[int] = []
    for k in range(1, n + 1):
        p_k, q_k, hi_k = p_k * p, q_k * q, hi_k * hi
        nearest = (2 * p_k + q_k) // (2 * q_k)
        clear = q_k - abs(2 * p_k - 2 * nearest * q_k)  # eta**k is clear / (2 q_k) from a half-integer
        error = hi_k - (p_k << prec * k)  # the propagated error is error / (q_k 2**(prec k))
        # clear / (2 q_k) - error / (q_k 2**(prec k)) < guard, multiplied through by 2 q_k 2**(prec k)
        if ((clear << prec * k) - 2 * error) * guard.denominator < 2 * guard.numerator * (q_k << prec * k):
            raise LacunaError(
                f"eta**{k} is {clear / (2 * q_k):.3g} from a half-integer, "
                f"which its error at {prec} bits plus the guard {float(guard):.3g} covers"
            )
        terms.append(nearest)
    return terms


def _read_ratio(eta_decimal: str) -> tuple[Fraction | Decimal, int]:
    """eta as a Decimal, or a Fraction for p/q, and its decimal exponent e (0 for p/q); 10**e is not built.

    eta's leading digit sits at 10**e, so e > 0 means eta >= 10; a ratio
    eta <= 1 is refused, and so is one that is not a finite number.
    """
    ratio = "/" in eta_decimal
    try:
        if ratio:  # Fraction's own p/q syntax check, on digit runs cut to one digit: its str -> int stops at 4300
            import re
            Fraction(re.sub(r"\d+", "1", eta_decimal))
            eta = Fraction(*(int(Decimal(side)) for side in eta_decimal.split("/")))
        elif not (eta := Decimal(eta_decimal)).is_finite():
            raise ValueError("not a finite number")
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rounded-power ratio {eta_decimal!r}: zero denominator") from exc
    except (InvalidOperation, ValueError) as exc:  # not a number, inf, nan, or an exponent past 10**18
        raise ValueError(f"bad rounded-power ratio {eta_decimal!r}") from exc
    if eta <= 1:
        raise ValueError("rounded-power ratio must exceed 1")
    return eta, 0 if ratio else eta.adjusted()


def _check_roundpow_work(n: int, prec: int, eta_bits: int, ratio: str = "") -> None:
    """Refuse n rounded powers when their a-priori n**2 * s * (s**0.585 + 10), s = prec + eta_bits, is over the cap."""
    s = prec + eta_bits
    work = n * n * s * (int(min(s, 2**64) ** 0.585) + 10)  # the clamp keeps the float finite, far over the cap
    if work > MAX_ROUNDPOW_WORK:
        raise TooLarge(f"{n} rounded powers{ratio} at {prec} bits may take {work} work units, "
                       f"over the cap {MAX_ROUNDPOW_WORK}")
