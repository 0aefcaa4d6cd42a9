"""Golden SHA-256 digests of CLI output on the shipped bundle, and on a small
workspace of bundle objects beside invalid ones.

The digests were recorded from the all-index cochain bracket, dense row
reduction and regex scalar parsing that the sparse kernels replaced.  Those
kernels must reproduce their output byte for byte, so a change to any digest
here is a change of output and needs its own reason.  The invalid-object
digests pin the detail of each failed check: they were recorded while the
command line still re-ran each identity to find the witness it prints, and hold
now that the witness comes from the evaluation that decided the verdict.
"""

import hashlib
import json

import pytest

from lieop.cli import main
from lieop.fixtures import bundle, bundle_json


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


# A small workspace of bundle objects beside invalid ones, so that the witness
# text of each kind of failed check is pinned too.
INVALID_OBJECTS = {
    "aff1_adj_id": {"kind": "o_operator", "rep_ref": "aff1_adj",
                    "matrix": [["1", "0"], ["0", "1"]]},
    "h3_coadj_t1": {"kind": "o_operator", "rep_ref": "h3_coadj",
                    "matrix": [["0", "0", "-1"], ["0", "0", "-1"], ["0", "-1", "-1"]]},
    "h3_coadj_t2": {"kind": "o_operator", "rep_ref": "h3_coadj",
                    "matrix": [["0", "0", "-1"], ["0", "1", "1"], ["1", "-1", "1"]]},
    "aff1_mc_weak": {"kind": "mc_solution", "twilled_ref": "aff1_tw",
                     "omega": [["0", "-1"], ["1", "0"]]},
    "aff1_mc_id": {"kind": "mc_solution", "twilled_ref": "aff1_tw",
                   "omega": [["1", "0"], ["0", "1"]]},
    "sl2_r_bad": {"kind": "bivector", "algebra_ref": "sl2", "dim": 3,
                  "entries": [[1, 2, "1"]]},
    "sl2_N_bad": {"kind": "nijenhuis", "algebra_ref": "sl2",
                  "matrix": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
    "bad_prelie": {"kind": "pre_lie", "dim": 2,
                   "products": [[0, 0, ["0", "1"]], [1, 0, ["1", "0"]]]},
    "aff1_on_bad": {"kind": "on_structure", "rep_ref": "aff1_coadj",
                    "t": [["1", "0"], ["0", "1"]], "n": [["0", "0"], ["-1", "0"]],
                    "s": [["0", "1"], ["0", "0"]]},
}
BUNDLE_DEPS = ("aff1", "aff1_adj", "aff1_adj_T", "aff1_coadj", "aff1_mc", "aff1_tw",
               "aff1_tw_total", "h3", "h3_coadj", "sl2")


@pytest.fixture(scope="module")
def invalid_file(tmp_path_factory):
    objects = {name: bundle()["objects"][name] for name in BUNDLE_DEPS}
    path = tmp_path_factory.mktemp("golden") / "invalid.json"
    path.write_text(json.dumps({"objects": {**objects, **INVALID_OBJECTS}}), encoding="utf-8")
    return str(path)


# (arguments, exit code, digest of the output)
INVALID_RUNS = [
    (["validate", "--format", "text"], 1,
     "e355369f7d64c546b5f38f75e1a8f8675fa8a4672b24f20bd8677b2d711c49ce"),
    (["validate", "--format", "json"], 1,
     "d4b8f4fedde44bd346ca9f7a2924a55965d78fb39a0840084c5a0e13e0bc0589"),
    (["check", "o-operator", "aff1_adj_id"], 1,
     "1318e87da6033774d446a7de106bf29186dcad2b475bd7f42e352f6a4df5347d"),
    (["check", "compatible", "h3_coadj_t1", "h3_coadj_t2"], 1,
     "d4f71db75cf01d164e2687bef9e78cbab7c39b2e5869276b113f0f7b023426cd"),
    (["check", "mc", "aff1_mc_weak"], 0,
     "d3adcd4af6a1e07717f7530fcec3c1ba819430d72637791ef19993e5d6b1e307"),
    (["check", "strong-mc", "aff1_mc_weak"], 1,
     "60963182133656be3bff3646267c7ac0bc7669dbef22e20e529e3015801de374"),
    (["check", "mc", "aff1_mc_id"], 1,
     "99a6691abf74c09b0de4c693723464b9b80473fd4c501477192205f68dfee48e"),
    (["check", "r-matrix", "sl2_r_bad"], 1,
     "212b6413d8ffcf281b8bd810326e202134f4deec4f379c107496611d555b4f69"),
    (["check", "nijenhuis", "sl2_N_bad"], 1,
     "f84adcfe4ff114522f4147175a75904073e51282bd261e3c3553cb7308f4a2e5"),
    (["check", "pre-lie", "bad_prelie"], 1,
     "588befab1c13b133c494e55f8280b514b13d98b94c6751b052c09f28d44b6c49"),
    (["check", "on", "aff1_on_bad"], 1,
     "721b088cd6db6f7d9e90399419a57792bac4f536b4be06a4e43f46159f5f7784"),
]


@pytest.mark.parametrize("args,code,digest", INVALID_RUNS,
                         ids=["-".join(a.lstrip("-") for a in run[0]) for run in INVALID_RUNS])
def test_invalid_object_output_matches_golden(invalid_file, capsys, args, code, digest):
    assert main([*args, "--input", invalid_file]) == code
    assert _sha(capsys.readouterr().out.encode("utf-8")) == digest
