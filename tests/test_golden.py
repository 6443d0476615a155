"""The behaviour contract, pinned byte for byte: `legdet verify --format json
--pmax 61` must print exactly tests/data/verify_pmax61.json and exit 1 (the
two p = 3 Chapman results fail).  Up to p = 61 the eigen check runs in exact
mode, so no floating-point rounding enters the bytes.

The checks that rest on determinants mod Phi_m(2^s) (the squares family and
carlitz) are pinned at their default ceilings in tests/data/verify_fq_default.json.
"""

import io
from pathlib import Path

from legdet.harness import RunConfig, run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_pmax61.json"
FQ_CHECKS = ("theorem-a", "corollary-a", "conjecture-a", "product", "sun-zero",
             "sun-qr", "carlitz")


def test_verify_json_pmax61_matches_golden_output():
    out = io.StringIO()
    assert run(RunConfig(pmax=61, fmt="json"), out) == 1
    assert out.getvalue() == GOLDEN.read_text()


def test_verify_json_fq_checks_at_default_ceilings_match_golden_output():
    out = io.StringIO()
    assert run(RunConfig(checks=FQ_CHECKS, fmt="json"), out) == 0
    assert out.getvalue() == (DATA / "verify_fq_default.json").read_text()
