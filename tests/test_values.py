"""Value semantics of the immutable records: every value type of `src/` that
is not a tuple compares, hashes, prints, copies and pickles by its fields,
refuses assignment, and validates its fields when it is built."""

import copy
import pickle
from fractions import Fraction

import pytest

from tropdiff.diffpoly import DiffPoly, EvalReport, ExponentMatrix, Poly, SolutionReport
from tropdiff.errors import InvalidRule, TruncationExhausted
from tropdiff.fields import FieldBackend, FieldElem, ResidueElem
from tropdiff.initial import MonomialCheckReport
from tropdiff.radius import BaseChange, RadiusEstimate, RadiusRule
from tropdiff.semiring import NatValuation, TropNum
from tropdiff.series import Beyond, PowerSeries, TropSeries
from tropdiff.verify import FTReport, FTStep, LinearODE

P3 = FieldBackend("padic", 3)
X1 = ExponentMatrix.var(0, 1)


def _packed_elem():
    """An element of Q(zeta_3) whose `dot` memo is filled."""
    x = FieldBackend("eisenstein", 3).from_coeffs((1, Fraction(-1, 2)))
    x._num_bits()
    return x


def _led_series():
    """A tropical series whose leading table is filled."""
    s = TropSeries(NatValuation(3), 3, ((1, TropNum(2)), (3, TropNum(Fraction(1, 2)))))
    s.leading(0)
    return s


P3_REPR = "FieldBackend(kind='padic', p=3)"
X1_REPR = "ExponentMatrix(degree=1, entries=(((0, 1), 1),))"
REPORT_REPR = (f"EvalReport(value=TropNum((0, 1)), attainment=({X1_REPR},), vanishes=False, "
               "truncation_limited=False, ambiguous=False)")
STEP_REPR = "FTStep(name='oracle-solution', passed=True, detail='exact', rows=('row',))"


def _report():
    return EvalReport(TropNum((0, 1)), (X1,), False, False, False)


def _step():
    return FTStep("oracle-solution", True, "exact", ("row",))


# class -> (its fields, a builder of one sample, the sample's repr)
SAMPLES = {
    TropNum: ("value", lambda: TropNum((1, Fraction(1, 2))), "TropNum((1, 1/2))"),
    NatValuation: ("p e", lambda: NatValuation(3, 2), "NatValuation(p=3, e=2)"),
    FieldBackend: ("kind p", lambda: FieldBackend("eisenstein", 3),
                   "FieldBackend(kind='eisenstein', p=3)"),
    FieldElem: ("backend num den", _packed_elem, "FieldElem(1 + -1/2*zeta)"),
    ResidueElem: ("p value den", lambda: ResidueElem(None, 3, 2), "ResidueElem(3/2)"),
    Beyond: ("beyond", lambda: Beyond(4), "Beyond(beyond=4)"),
    PowerSeries: ("backend truncation terms",
                  lambda: PowerSeries(P3, 2, ((0, P3.one()), (2, P3.elem(3)))),
                  f"PowerSeries(backend={P3_REPR}, truncation=2, "
                  "terms=((0, FieldElem(1)), (2, FieldElem(3))))"),
    TropSeries: ("nat_val truncation terms", _led_series,
                 "TropSeries(nat_val=NatValuation(p=3, e=1), truncation=3, "
                 "terms=((1, TropNum(2)), (3, TropNum(1/2))))"),
    Poly: ("nvars terms", lambda: Poly(1, ((X1, TropNum(0)),)),
           f"Poly(nvars=1, terms=(({X1_REPR}, TropNum(0)),))"),
    DiffPoly: ("backend nvars truncation terms",
               lambda: DiffPoly(P3, 1, 0, ((X1, PowerSeries.one(P3, 0)),)),
               f"DiffPoly(backend={P3_REPR}, nvars=1, truncation=0, terms=(({X1_REPR}, "
               f"PowerSeries(backend={P3_REPR}, truncation=0, terms=((0, FieldElem(1)),))),))"),
    EvalReport: ("value attainment vanishes truncation_limited ambiguous", _report, REPORT_REPR),
    SolutionReport: ("reports all_vanish truncation_limited failing",
                     lambda: SolutionReport((_report(),), False, False, (0,)),
                     f"SolutionReport(reports=({REPORT_REPR},), all_vanish=False, "
                     "truncation_limited=False, failing=(0,))"),
    MonomialCheckReport: ("order monomial_free witnesses initials",
                          lambda: MonomialCheckReport(0, False, ((0, 0),), (
                              ((0, 0), Poly(1, ((X1, ResidueElem(3, 1)),))),)),
                          "MonomialCheckReport(order=0, monomial_free=False, witnesses=((0, 0),), "
                          f"initials=(((0, 0), Poly(nvars=1, terms=(({X1_REPR}, "
                          "ResidueElem(1 mod 3)),))),))"),
    RadiusRule: ("stride slope offset factorial_correction p",
                 lambda: RadiusRule(3, Fraction(1, 2), Fraction(0), True, 3),
                 "RadiusRule(stride=3, slope=Fraction(1, 2), offset=Fraction(0, 1), "
                 "factorial_correction=True, p=3)"),
    RadiusEstimate: ("log_radius kind window caveat",
                     lambda: RadiusEstimate(Fraction(1, 2), "window-lower-bound", (1, 4)),
                     "RadiusEstimate(log_radius=Fraction(1, 2), kind='window-lower-bound', "
                     "window=(1, 4), caveat=None)"),
    BaseChange: ("base log_radius new_base new_log_radius exact",
                 lambda: BaseChange(Fraction(9), Fraction(1), Fraction(3), Fraction(2), True),
                 "BaseChange(base=Fraction(9, 1), log_radius=Fraction(1, 1), "
                 "new_base=Fraction(3, 1), new_log_radius=Fraction(2, 1), exact=True)"),
    LinearODE: ("g c0 truncation", lambda: LinearODE(PowerSeries.one(P3, 1), P3.one(), 2),
                f"LinearODE(g=PowerSeries(backend={P3_REPR}, truncation=1, "
                "terms=((0, FieldElem(1)),)), c0=FieldElem(1), truncation=2)"),
    FTStep: ("name passed detail rows", _step, STEP_REPR),
    FTReport: ("title backend truncation order steps",
               lambda: FTReport("selftest", "Q", 2, 1, (_step(),)),
               f"FTReport(title='selftest', backend='Q', truncation=2, order=1, "
               f"steps=({STEP_REPR},))"),
}

# class -> calls that its construction refuses, with the error each raises
INVALID = {
    NatValuation: [(lambda: NatValuation(4), ValueError, "4 is not prime"),
                   (lambda: NatValuation(None, 2), ValueError, "units of 1/2 for p = None"),
                   (lambda: NatValuation(3, 0), ValueError, "units of 1/0 for p = 3")],
    FieldBackend: [(lambda: FieldBackend("real"), ValueError, "unknown field backend 'real'"),
                   (lambda: FieldBackend("trivial", 3), ValueError, "takes no prime"),
                   (lambda: FieldBackend("padic", 9), ValueError, "needs a prime, got 9")],
    PowerSeries: [(lambda: PowerSeries(P3, -1, ()), ValueError, "truncation >= 0"),
                  (lambda: PowerSeries(P3, 1, ((2, P3.one()),)), ValueError, "0 .. truncation")],
    TropSeries: [(lambda: TropSeries(NatValuation(3), -2, ()), ValueError, "truncation >= -1"),
                 (lambda: TropSeries(NatValuation(3), -1, ((0, TropNum(0)),)), ValueError,
                  "0 .. truncation")],
    RadiusRule: [(lambda: RadiusRule(0, Fraction(1)), InvalidRule, "positive natural"),
                 (lambda: RadiusRule(1, Fraction(1), factorial_correction=True), InvalidRule,
                  "needs a prime p"),
                 (lambda: RadiusRule(1, Fraction(1), Fraction(0), True, 4), InvalidRule,
                  "needs a prime p")],
    LinearODE: [(lambda: LinearODE(PowerSeries.one(P3, 0), P3.one(), 2), TruncationExhausted,
                 "truncated to >= N-1")],
}

MEMOS = {FieldElem: "_pack", TropSeries: "_leading"}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names, build, expected_repr = SAMPLES[cls]
    x, fresh = build(), build()
    value = tuple(getattr(x, name) for name in names.split())
    assert type(x) is cls and x is not fresh
    assert x == fresh and not x != fresh and hash(x) == hash(fresh) == hash(value)
    assert repr(x) == repr(fresh) == expected_repr
    for name in names.split():
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == fresh and tuple(getattr(x, name) for name in names.split()) == value
    memo = MEMOS.get(cls)
    if memo:  # the sample's memo is filled, and nothing of the value sees it
        assert getattr(x, memo) is not None
        with pytest.raises(AttributeError):
            setattr(x, memo, None)
    bare = cls(*value)
    assert bare == x and hash(bare) == hash(x) and repr(bare) == expected_repr
    for copied in (bare, copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(copied) is cls and copied == x and hash(copied) == hash(x)
        assert repr(copied) == expected_repr
        if memo:
            assert getattr(copied, memo) is None
    for call, error, message in INVALID.get(cls, ()):
        with pytest.raises(error, match=message):
            call()
