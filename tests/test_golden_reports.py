"""Golden reports: the sha256 of the --report bytes of cohomology, hf and
barcode, recorded before the linear algebra behind them went sparse.

Report determinism (criterion 10) compares two runs of the same code; these
digests pin the bytes across code changes, so a different choice of
cohomology representatives, bars or dimensions fails here.
"""

import hashlib
import json

import pytest

from ainfkit import models
from ainfkit.cli import main
from ainfkit.specio import FORMAT

GOLDEN = {
    ("cohomology", "derham_t1"):
        "a83503f744fa30ea6a5f49e1459598b0f96eb7c9b2e2212d3d087ee3c7e986ba",
    ("cohomology", "derham_t2"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "kunneth_derham"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "kunneth_minimal"):
        "bad3080e1a5dba02c649ecee1c943af84229cd12a09e31de1b2e59ac39920578",
    ("cohomology", "gapped_product"):
        "88d2fccf0c97345fcaf6837bbca643a681e48d966a36e2c0d465f54bf1733453",
    ("cohomology", "barcode_simple"):
        "23b91599bc2befcb23944a2bc9b48b7d00437bb96bc64cce4ec561cb0ebbcf87",
    ("cohomology", "derham_1_4"):
        "de95d5a3e891627ae7cf57f73997ca24c92e70489cc894bc37d7b3fb33d91bc1",
    ("cohomology", "two_factor_A"):
        "e434da52cb39d8a2393bca4fa121bb1419e2fbbd8fb5d887ab341f0c1d0305db",
    ("cohomology", "two_factor_B"):
        "e434da52cb39d8a2393bca4fa121bb1419e2fbbd8fb5d887ab341f0c1d0305db",
    ("barcode", "barcode_simple"):
        "83cce5cc441ad22de9dca4d9987c05e35ccf0d7a748a1a2ebc556577cb602565",
    ("barcode", "derham_1_4"):
        "d3cfcbd12c1d286dc4a43ac9bac51bd2076e9de5e2a7a9c3ba95594a4e0f2a5a",
    ("barcode", "two_factor_A"):
        "bf0265e26f8128753e1d14b22ce36e0a3ad93a1a89a44cf05f590b3c226bc3e0",
    ("barcode", "two_factor_B"):
        "ed2d74f38ad571440c0ce19111d4390ddcc1b97b189503a6e998d0da296afa77",
    ("barcode", "gapped_product"):
        "ed2d74f38ad571440c0ce19111d4390ddcc1b97b189503a6e998d0da296afa77",
    ("hf", "barcode_simple"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "derham_1_4"):
        "1f07c903788ecb8343dabc2bd4be17d9c289c1042e13373c118eb1e9d636dc42",
    ("hf", "two_factor_A"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "two_factor_B"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
    ("hf", "gapped_product"):
        "7f13f39e67ae9efb629a70ac52b2101fa70f3bbb1ace64d1c290d53c8345e7d7",
}

@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    two = models.two_factor_gapped()
    generated = {
        "derham_1_4": (models.derham_model(1, 4), {}),
        "two_factor_A": (two["A"], two["b1"].to_json()),
        "two_factor_B": (two["B"], two["b2"].to_json()),
    }
    paths = {}
    for name, (alg, b) in generated.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps({"format": FORMAT, "algebra": alg.to_json(),
                                    "bounding": {"b": b}}))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_report_bytes_match_golden(command, name, documents, fixture_path,
                                   tmp_path, capsys):
    spec = documents.get(name) or fixture_path(f"{name}.json")
    dest = tmp_path / "report.json"
    assert main([command, spec, "--report", str(dest)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(dest.read_bytes()).hexdigest()
    assert digest == GOLDEN[(command, name)]
