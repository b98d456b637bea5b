import json

import make_reference_records as reference


def test_every_reported_number_matches_the_committed_reference():
    # every scan record, order setting and LHS worst case, thresholds bit for bit;
    # on a mismatch, ``python3 tests/make_reference_records.py --diff`` names the scan
    committed = json.loads(reference.REFERENCE_FILE.read_text())
    assert reference.build() == committed
