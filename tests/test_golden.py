"""The behaviour contract, pinned byte for byte: `legdet verify --format json
--pmax 61` must print exactly tests/data/verify_pmax61.json and exit 1 (the
two p = 3 Chapman results fail).  Every check decides in integers and its
witnesses are integers, so no floating-point rounding enters the bytes.

The checks that rest on determinants mod Phi_m(2^s) (the squares family and
carlitz) are pinned at their default ceilings in tests/data/verify_fq_default.json.
`legdet eigen` is pinned in exact mode only (p <= 61): float mode prints
numpy residuals, which depend on the BLAS.  `legdet det` is pinned for every
--matrix at p = 199, and for S(2,p) there.

A change that alters one of these outputs on purpose regenerates its file,
from the repository root, with the one command below, and says why:

    legdet verify --format json --pmax 61 > tests/data/verify_pmax61.json
    legdet verify --format json --what theorem-a,corollary-a,conjecture-a,product,sun-zero,sun-qr,carlitz > tests/data/verify_fq_default.json
    legdet eigen --p 13 > tests/data/eigen_p13.jsonl
    legdet eigen --p 29 > tests/data/eigen_p29.jsonl
    legdet eigen --p 61 > tests/data/eigen_p61.jsonl
    legdet det --matrix s --p 199 > tests/data/det_s_p199.txt
    legdet det --matrix s --p 199 --d 2 > tests/data/det_s_d2_p199.txt
    legdet det --matrix sstar --p 199 > tests/data/det_sstar_p199.txt
    legdet det --matrix carlitz --p 199 > tests/data/det_carlitz_p199.txt
    legdet det --matrix chapman --p 199 > tests/data/det_chapman_p199.txt
    legdet det --matrix chapman-star --p 199 > tests/data/det_chapman-star_p199.txt
    legdet det --matrix evil --p 199 > tests/data/det_evil_p199.txt
"""

import io
from pathlib import Path

import pytest

from legdet.cli import main as cli_main
from legdet.harness import RunConfig, run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_pmax61.json"
FQ_CHECKS = ("theorem-a", "corollary-a", "conjecture-a", "product", "sun-zero",
             "sun-qr", "carlitz")
DET_GOLDEN = {
    **{f"det_{m}_p199.txt": ["--matrix", m, "--p", "199"]
       for m in ("s", "sstar", "carlitz", "chapman", "chapman-star", "evil")},
    "det_s_d2_p199.txt": ["--matrix", "s", "--p", "199", "--d", "2"],
}


def test_verify_json_pmax61_matches_golden_output():
    out = io.StringIO()
    assert run(RunConfig(pmax=61, fmt="json"), out) == 1
    assert out.getvalue() == GOLDEN.read_text()


def test_verify_json_fq_checks_at_default_ceilings_match_golden_output():
    out = io.StringIO()
    assert run(RunConfig(checks=FQ_CHECKS, fmt="json"), out) == 0
    assert out.getvalue() == (DATA / "verify_fq_default.json").read_text()


@pytest.mark.parametrize("p", (13, 29, 61))
def test_eigen_matches_golden_output(p, capsys):
    assert cli_main(["eigen", "--p", str(p)]) == 0
    assert capsys.readouterr().out == (DATA / f"eigen_p{p}.jsonl").read_text()


@pytest.mark.parametrize("name", DET_GOLDEN)
def test_det_matches_golden_output(name, capsys):
    assert cli_main(["det", *DET_GOLDEN[name]]) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()
