"""The record types' contract: repr, field-wise equality, frozen fields and
pickling, as the library API and the --jobs reply pipes use them."""

import pickle

import pytest

from legdet.charsums import CyclotomicElt, EigenIdentity, EigenReport, eigen_verify
from legdet.exactla import IntPoly
from legdet.harness import CHECK_IDS, Check, CheckResult, RunConfig, run_check
from legdet.matrices import AffineMatrix, SignMatrix, chapman_matrix, squares_matrix
from legdet.ntcore import PrimeCtx, TwoSquare
from legdet.quadfield import ClassData, QuadUnit, class_data

CTX = PrimeCtx.for_prime(5)
IDENTITY = EigenIdentity(real=True, vandermonde=True, first_bad_row=None)
LAMBDA = CyclotomicElt(order=4, coeffs=(-1, 0, 0, 0))

# (record, its repr, a record equal to it built anew, one field assigned in
# the test below); the reprs are part of the library's printed output
RECORDS = [
    (CTX.decomp, "TwoSquare(a=1, b=1)", TwoSquare(1, 1), "a"),
    (squares_matrix(CTX), "SignMatrix(dim=2, entries=((-1, 0), (0, -1)), tag='s(p=5,d=1)')",
     SignMatrix(2, ((-1, 0), (0, -1)), "s(p=5,d=1)"), "entries"),
    (chapman_matrix(CTX, True), "AffineMatrix(dim=3, constants=((1, -1, -1), (-1, -1, 1), "
     "(-1, 1, 0)), tag='chapman-star(p=5)')",
     AffineMatrix(3, ((1, -1, -1), (-1, -1, 1), (-1, 1, 0)), "chapman-star(p=5)"), "dim"),
    (IntPoly.make([1, -2, 0, 3, 0]), "IntPoly(coeffs=(1, -2, 0, 3))", IntPoly((1, -2, 0, 3)),
     "coeffs"),
    (eigen_verify(CTX), "EigenReport(p=5, mode='exact', lambdas=(-1.0, -1.0), "
     "residuals=(0.0, 0.0), lambdas_exact=(CyclotomicElt(order=4, coeffs=(-1, 0, 0, 0)), "
     "CyclotomicElt(order=4, coeffs=(-1, 0, 0, 0))), identity=EigenIdentity(real=True, "
     "vandermonde=True, first_bad_row=None))",
     EigenReport(5, "exact", (-1.0, -1.0), (0.0, 0.0), (LAMBDA, LAMBDA), IDENTITY), "mode"),
    (LAMBDA, "CyclotomicElt(order=4, coeffs=(-1, 0, 0, 0))",
     CyclotomicElt(4, (-1, 0, 0, 0)), "order"),
    (class_data(5), "ClassData(eps=QuadUnit(u=1, v=1), h=1, eps_h=QuadUnit(u=1, v=1))",
     ClassData(QuadUnit(1, 1), 1, QuadUnit(1, 1)), "h"),
    (QuadUnit(15, 1), "QuadUnit(u=15, v=1)", QuadUnit(15, 1), "v"),
    (run_check("theorem-a", 5, {"d_list": [2]})[0],
     "CheckResult(check_id='theorem-a', p=5, params={'d': 2}, status='pass', "
     "witness={'S': '0', 'a': '1', 'eps': '1', 'root': '0'})",
     CheckResult("theorem-a", 5, {"d": 2}, "pass", {"S": "0", "a": "1", "eps": "1", "root": "0"}),
     "status"),
    (Check("x", 1, 5, len, bool), "Check(id='x', cls4=1, pmax=5, worker=<built-in function "
     "len>, revalidate=<class 'bool'>, d_symbols=None)", Check("x", 1, 5, len, bool, None),
     "pmax"),
]
IDS = [type(rec).__name__ for rec, *_ in RECORDS]


@pytest.mark.parametrize("rec, text, same, field", RECORDS, ids=IDS)
def test_record_repr_equality_and_frozen_fields(rec, text, same, field):
    assert repr(rec) == text
    assert rec == same and not rec != same
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(rec, field))
    assert repr(rec) == text


def test_records_differ_in_any_field():
    assert TwoSquare(1, 1) != TwoSquare(1, 3)
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))
    assert CheckResult("jacobsthal", 5, None, "pass", {}) != \
        CheckResult("jacobsthal", 5, None, "fail", {})
    assert class_data(5) != class_data(13)


def test_prime_contexts_compare_and_hash_by_identity():
    a, b = PrimeCtx.for_prime(13), PrimeCtx.for_prime(13)
    assert repr(a) == repr(b)
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2
    assert repr(CTX) == ("PrimeCtx(p=5, n=2, cls=1, g=2, powers=(1, 2, 4, 3), "
                         "dlog=(-1, 0, 1, 3, 2), symbols=(0, 1, -1, -1, 1), "
                         "decomp=TwoSquare(a=1, b=1))")
    with pytest.raises(AttributeError):
        a.p = 13


def test_check_results_pickle_through_the_reply_pipe():
    results = run_check("theorem-a", 13, {"d_list": [1, 2]})
    back = pickle.loads(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
    assert back == results and [type(r) for r in back] == [CheckResult] * 2
    assert repr(back) == repr(results)


def test_run_config_keeps_its_defaults_and_takes_assignments():
    config = RunConfig()
    assert (config.checks, config.pmax, config.d_list, config.jobs, config.fmt,
            config.cache_path) == (CHECK_IDS, None, None, 1, "text", None)
    assert config == RunConfig(CHECK_IDS, None, None, 1, "text", None)
    config.jobs, config.pmax = 2, 13
    assert config == RunConfig(jobs=2, pmax=13) != RunConfig(jobs=2)
    assert repr(RunConfig(checks=("jacobsthal",), pmax=13)) == (
        "RunConfig(checks=('jacobsthal',), pmax=13, d_list=None, jobs=1, fmt='text', "
        "cache_path=None)")


def test_int_poly_has_no_arithmetic():
    a, b = IntPoly((1,)), IntPoly((2,))
    for op in (lambda: a + b, lambda: a * b, lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError):
            op()
