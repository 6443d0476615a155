"""The behaviour contract, pinned byte for byte: `legdet verify --format json
--pmax 61` must print exactly tests/data/verify_pmax61.json and exit 1 (the
two p = 3 Chapman results fail).  Up to p = 61 the eigen check runs in exact
mode, so no floating-point rounding enters the bytes.
"""

import io
from pathlib import Path

from legdet.harness import RunConfig, run

GOLDEN = Path(__file__).parent / "data" / "verify_pmax61.json"


def test_verify_json_pmax61_matches_golden_output():
    out = io.StringIO()
    assert run(RunConfig(pmax=61, fmt="json"), out) == 1
    assert out.getvalue() == GOLDEN.read_text()
