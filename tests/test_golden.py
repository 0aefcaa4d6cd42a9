"""Golden SHA-256 digests of CLI output on the shipped bundle.

The digests were recorded from the all-index cochain bracket, dense row
reduction and regex scalar parsing that the sparse kernels replaced.  Those
kernels must reproduce their output byte for byte, so a change to any digest
here is a change of output and needs its own reason.
"""

import hashlib

import pytest

from lieop.cli import main
from lieop.fixtures import bundle_json


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "bundle.json"
    path.write_text(bundle_json(), encoding="utf-8")
    return str(path)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


REPORTS = {
    (0, "json"): "5f79a13db69ff0bf2dcb7f36923cc7f84075c8c86df90530d11ef48ababe9c0f",
    (0, "text"): "84f1819e254f9081e05194288ef8a41106af9823514e9d96eaa3a877c0b13a0b",
    (1, "json"): "5f79a13db69ff0bf2dcb7f36923cc7f84075c8c86df90530d11ef48ababe9c0f",
    (1, "text"): "84f1819e254f9081e05194288ef8a41106af9823514e9d96eaa3a877c0b13a0b",
    (7, "json"): "5f79a13db69ff0bf2dcb7f36923cc7f84075c8c86df90530d11ef48ababe9c0f",
    (7, "text"): "84f1819e254f9081e05194288ef8a41106af9823514e9d96eaa3a877c0b13a0b",
}


@pytest.mark.parametrize("seed,fmt", sorted(REPORTS))
def test_report_bytes_match_golden(bundle_file, capsys, seed, fmt):
    assert main(["report", "--input", bundle_file, "--seed", str(seed),
                 "--format", fmt]) == 0
    assert _sha(capsys.readouterr().out.encode("utf-8")) == REPORTS[seed, fmt]


# (kind, arguments, digest of the written document)
DERIVES = [
    ("induced-lie", ["aff1_adj_T"],
     "488d92be265bb50769eb1e0de1d97f908b01a06d421d0df644a70acb14ab2dca"),
    ("gauge", ["aff1_adj_T", "aff1_adj_B"],
     "8ab23d9875c85f7f5beab72618a35ab9567c751eb11112052684c305311b199f"),
    ("reduce", ["h3_adj_T", "h3_full", "h3_center", "h3_full"],
     "085c5fe2d98290dd77d5fbb3e4fcf806a2cb0d6c80ca5437bc6ad97d48bb5e10"),
    ("hierarchy", ["3", "aff1_on"],
     "804a1f70aafadc0b889c37e008df1554e70f3b8db7ae421e7ae9a1ce0cad489c"),
    ("deformed-bracket", ["aff1_N"],
     "b9f8fc53304dc29c022162a9988af6ea8d717a00f75cd4d75e18ce1a864df0da"),
    ("tilde-action", ["aff1_ns"],
     "f6ff993ea6bf1dbcb63c4d32ef1500877ebd51d4e38860b7a440366e778e0ecc"),
    ("twilled-from-o", ["aff1_adj_T"],
     "dadb65cf95ba6fea2b7667c5c8891877ee9051cfa0274009cb406e2b1ab91e43"),
    ("on-from-mc", ["aff1_adj_T", "aff1_mc"],
     "fd9781f6c2203761549e32acc9704c72d38b5c91803a48f69409dd223d4fe280"),
    ("mc-from-on", ["aff1_on"],
     "805355822ea539a84995fb7492d90d83e48e7d338aa1f6dbfc1c5384d9c66cff"),
    ("on-from-pair", ["aff1_coadj_T1", "aff1_coadj_T2"],
     "9789be3dbf4b90cdb14c4a3e80be7c0b92c5ecdc65bcb9b48b5e5f585f31e457"),
    ("gcs-from-o", ["aff1_coadj_T2"],
     "3356e707014551b80139da08d6754910939a426d16d2a1f7bfac52ab346994b3"),
    ("pre-lie-from-o", ["aff1_coadj_T2"],
     "759e2cba5d703634a9238b580aaa04fd5d4d15833039363809946942b960cfdf"),
    ("opposite-gcs", ["aff1_gcs"],
     "0711649f1433b8db3286faac132c122760bead95104b6dc13e936036a742e04c"),
    ("semidirect", ["aff1_adj"],
     "2ed1ff2c88e7e70b56ba85534ddf3405e59ce41e4e718e7777ae91a586929d9f"),
    ("dual", ["h3_adj"],
     "7fbc4d09085c55b8f83f97b7cdf8f817ed5340df0540bb4134995f1ffc264089"),
    ("adjoint", ["sl2"],
     "a5918310a906976f236062dbf74512def097d37d1ffa3903c7bf92f5f37dd950"),
    ("coadjoint", ["h3"],
     "11ac48721cd56535371d05ac3a5524ce9252db6d563e8ae8acbbadb84b1f8d3f"),
]


@pytest.mark.parametrize("kind,args,digest", DERIVES, ids=[c[0] for c in DERIVES])
def test_derive_bytes_match_golden(bundle_file, tmp_path, capsys, kind, args, digest):
    out = tmp_path / "out.json"
    assert main(["derive", kind, *args, "--input", bundle_file, "--output", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_bytes()) == digest
