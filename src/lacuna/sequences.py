"""Declarative frequency sequences and their exact materialization.

A SequenceSpec names one of the built-in families or carries the data
for a user recurrence, an explicit list, or rounded powers of a decimal
ratio.  Materialization is exact integer arithmetic everywhere; the
rounded-power variant verifies its guard bits and fails loudly rather
than mis-round.
"""

from __future__ import annotations

import warnings
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import floor

from .errors import NonIntegerRecurrence, NonPositiveTerm, RoundingAmbiguous, TooLarge
from .record import Record
from .recurrence import rational_roots

# Rounded powers must clear half-integers by this margin after error
# propagation, or generation refuses.
HALF_INTEGER_GUARD = Fraction(1, 256)
# Fibonacci's first 20,000 terms hold 1.4e8 bits and `cumulants --m 2` peaks at 53 MB.
MAX_TERM_BITS = 25 * 10**7  # running total over the generated terms
# 3.8e13 took 3.1 s (n = 22, prec = 6e4), 3.9e13 took 13 s (n = 1000, prec = 150).
MAX_ROUNDPOW_WORK = 3 * 10**13  # a-priori n * s**2, see _rounded_powers


class SequenceSpec(Record):
    """Declarative description of a positive integer sequence."""

    __slots__ = ("kind", "values", "c", "eta", "poly", "init", "eta_decimal", "prec")

    def __init__(
        self,
        kind: str,
        values: tuple[int, ...] = (),
        c: int = 0,
        eta: int = 0,
        poly: tuple[int, ...] = (),
        init: tuple[int, ...] = (),
        eta_decimal: str = "",
        prec: int = 0,
    ) -> None:
        super().__init__(kind, values, c, eta, poly, init, eta_decimal, prec)

    @staticmethod
    def explicit(values) -> "SequenceSpec":
        values = tuple(int(v) for v in values)
        if not values:
            raise ValueError("explicit sequence needs at least one term")
        return SequenceSpec(kind="explicit", values=values)

    @staticmethod
    def pow2plus1() -> "SequenceSpec":
        return SequenceSpec(kind="pow2plus1")

    @staticmethod
    def fibonacci() -> "SequenceSpec":
        return SequenceSpec(kind="fibonacci")

    @staticmethod
    def lucas() -> "SequenceSpec":
        return SequenceSpec(kind="lucas")

    @staticmethod
    def geometric(c: int, eta: int) -> "SequenceSpec":
        if c < 1:
            raise ValueError("geometric factor c must be >= 1")
        if eta < 2:
            raise ValueError("geometric ratio eta must be >= 2")
        return SequenceSpec(kind="geometric", c=int(c), eta=int(eta))

    @staticmethod
    def recurrence(poly, init) -> "SequenceSpec":
        poly = tuple(int(r) for r in poly)
        init = tuple(int(a) for a in init)
        if len(poly) < 2:
            raise ValueError("recurrence polynomial must have degree >= 1")
        if poly[-1] == 0:
            raise ValueError("leading recurrence coefficient must be nonzero")
        if len(init) != len(poly) - 1:
            raise ValueError("need exactly deg(poly) initial terms")
        return SequenceSpec(kind="recurrence", poly=poly, init=init)

    @staticmethod
    def roundpow(eta_decimal: str, prec: int) -> "SequenceSpec":
        if prec < 1:
            raise ValueError("precision must be >= 1 bit")
        if _decimal_exponent(eta_decimal) == 0 and Fraction(eta_decimal) <= 1:  # else eta >= 10
            raise ValueError("rounded-power ratio must exceed 1")
        return SequenceSpec(kind="roundpow", eta_decimal=eta_decimal, prec=int(prec))

    def label(self) -> str:
        """Canonical mini-language string (round-trips through parse)."""
        if self.kind == "explicit":
            return "explicit:" + ",".join(map(str, self.values))
        if self.kind == "geometric":
            return f"geometric:c={self.c},eta={self.eta}"
        if self.kind == "recurrence":
            poly = ",".join(map(str, self.poly))
            init = ",".join(map(str, self.init))
            return f"recurrence:poly={poly};init={init}"
        if self.kind == "roundpow":
            return f"roundpow:eta={self.eta_decimal},prec={self.prec}"
        return self.kind

    def recurrence_data(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Recurrence polynomial and initial terms, when the family has them."""
        if self.kind == "fibonacci":
            return (-1, -1, 1), (1, 1)
        if self.kind == "lucas":
            return (-1, -1, 1), (1, 3)
        if self.kind == "geometric":
            return (-self.eta, 1), (self.c * self.eta,)
        if self.kind == "pow2plus1":
            # 2**k + 1 satisfies a_{k+2} = 3 a_{k+1} - 2 a_k; the polynomial
            # is reducible, which is exactly what the diagnostics flag.
            return (2, -3, 1), (3, 5)
        if self.kind == "recurrence":
            return self.poly, self.init
        return None


def parse_sequence(text: str) -> SequenceSpec:
    """Parse the CLI mini-language, e.g. ``geometric:c=1,eta=2``."""
    name, _, rest = text.strip().partition(":")
    if name in ("pow2plus1", "fibonacci", "lucas"):
        if rest:
            raise ValueError(f"{name} takes no parameters")
        return SequenceSpec(kind=name)
    if name == "explicit":
        try:
            values = [int(v) for v in rest.split(",")] if rest else []
        except ValueError as exc:
            raise ValueError(f"bad explicit terms {rest!r}") from exc
        return SequenceSpec.explicit(values)
    if name == "geometric":
        kv = _parse_kv(rest)
        _expect_keys(name, kv, {"c", "eta"})
        return SequenceSpec.geometric(int(kv["c"]), int(kv["eta"]))
    if name == "recurrence":
        parts = dict(_split_once(part) for part in rest.split(";") if part)
        _expect_keys(name, parts, {"poly", "init"})
        poly = [int(v) for v in parts["poly"].split(",")]
        init = [int(v) for v in parts["init"].split(",")]
        return SequenceSpec.recurrence(poly, init)
    if name == "roundpow":
        kv = _parse_kv(rest)
        _expect_keys(name, kv, {"eta", "prec"})
        return SequenceSpec.roundpow(kv["eta"], int(kv["prec"]))
    raise ValueError(f"unknown sequence kind {name!r}")


def _split_once(item: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep:
        raise ValueError(f"expected key=value, got {item!r}")
    return key.strip(), value.strip()


def _parse_kv(rest: str) -> dict[str, str]:
    return dict(_split_once(item) for item in rest.split(",") if item)


def _expect_keys(name: str, kv: dict, keys: set[str]) -> None:
    if set(kv) != keys:
        raise ValueError(f"{name} needs parameters {sorted(keys)}, got {sorted(kv)}")


def generate_terms(spec: SequenceSpec, n: int) -> list[int]:
    """Exact first n terms of the sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if spec.kind == "explicit":
        if n > len(spec.values):
            raise ValueError(f"explicit sequence has only {len(spec.values)} terms")
        terms = list(spec.values[:n])
        _check_positive(terms)
        return terms
    if spec.kind == "roundpow":
        return _rounded_powers(spec.eta_decimal, spec.prec, n)
    data = spec.recurrence_data()
    if data is None:
        raise ValueError(f"unknown sequence kind {spec.kind!r}")
    if spec.kind == "recurrence" and len(spec.poly) - 1 >= 2 and rational_roots(spec.poly):
        warnings.warn(
            "recurrence polynomial has a rational root and is not irreducible; "
            "relation checks assume irreducibility",
            RuntimeWarning,
            stacklevel=2,
        )
    return _iterate_recurrence(*data, n)


def _check_positive(terms) -> None:
    for t in terms:
        if t < 1:
            raise NonPositiveTerm(f"term {t} is not a positive integer")


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
            raise NonIntegerRecurrence(
                f"term {len(terms) + 1}: {acc} is not divisible by leading coefficient {lead}"
            )
        if quotient < 1:
            raise NonPositiveTerm(f"term {len(terms) + 1} = {quotient} is not positive")
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
    input uncertainty, otherwise rounding is refused as ambiguous.

    Step k reduces fractions of about k*(prec + bits of eta) bits by
    quadratic-time gcds, so n steps cost about n * s**2 for the last size s.
    """
    e = _decimal_exponent(eta_decimal)
    if e:  # the numerator has over 3e bits; Fraction would build 10**e first
        _check_roundpow_work(n, prec, 3 * e, f" of a ratio near 10**{e}")
    ratio = Fraction(eta_decimal)
    _check_roundpow_work(n, prec, ratio.numerator.bit_length() + ratio.denominator.bit_length())
    slack = ratio + Fraction(1, 2**prec)
    power = Fraction(1)
    power_hi = Fraction(1)
    terms: list[int] = []
    for k in range(1, n + 1):
        power *= ratio
        power_hi *= slack
        error = power_hi - power
        nearest = floor(power + Fraction(1, 2))
        distance_to_half = Fraction(1, 2) - abs(power - nearest)
        if distance_to_half - error < HALF_INTEGER_GUARD:
            raise RoundingAmbiguous(
                f"eta**{k} is within {float(distance_to_half):.3g} of a half-integer "
                f"(guard {float(HALF_INTEGER_GUARD):.3g} at {prec} bits)"
            )
        if nearest < 1:
            raise NonPositiveTerm(f"round(eta**{k}) = {nearest} is not positive")
        terms.append(nearest)
    return terms


def _decimal_exponent(eta_decimal: str) -> int:
    """The decimal exponent e of eta, read without building 10**e; 0 for a p/q ratio.

    eta's leading digit sits at 10**e, so e > 0 means eta >= 10 and e < 0
    means eta < 1, which is refused.
    """
    try:
        e = 0 if "/" in eta_decimal else Decimal(eta_decimal).adjusted()
    except InvalidOperation as exc:  # not a number, or an exponent past 10**18
        raise ValueError(f"bad rounded-power ratio {eta_decimal!r}") from exc
    if e < 0:
        raise ValueError("rounded-power ratio must exceed 1")
    return e


def _check_roundpow_work(n: int, prec: int, eta_bits: int, ratio: str = "") -> None:
    """Refuse n rounded powers when their a-priori n * s**2, s = n * (prec + eta_bits), is over the cap."""
    work = n * (n * (prec + eta_bits)) ** 2
    if work > MAX_ROUNDPOW_WORK:
        raise TooLarge(f"{n} rounded powers{ratio} at {prec} bits may take {work} work units, "
                       f"over the cap {MAX_ROUNDPOW_WORK}")
