import json
import random
from pathlib import Path

import pytest

from lieop import cli, gcsholo, ooper, twilled
from lieop.cli import MAX_HIERARCHY_DEPTH, Workspace, build_report, main
from lieop.errors import OracleDisagreement
from lieop.fixtures import bundle, bundle_json


@pytest.fixture(scope="module")
def bundle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "bundle.json"
    path.write_text(bundle_json(), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_bundle(bundle_file, capsys):
    code, out = run(capsys, "validate", "--input", bundle_file)
    assert code == 0
    assert "INVALID" not in out


def test_validate_reports_jacobi_violation(tmp_path, capsys):
    doc = {"objects": {"bad": {
        "kind": "lie_algebra", "dim": 3,
        "brackets": [[0, 1, ["1", "0", "0"]], [1, 2, ["0", "1", "0"]],
                     [0, 2, ["0", "0", "-1"]]]}}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", str(p))
    assert code == 1
    assert "JacobiViolation" in out


def test_validate_dangling_reference(tmp_path, capsys):
    doc = {"objects": {"orphan": {"kind": "o_operator", "rep_ref": "missing",
                                  "matrix": [["0"]]}}}
    p = tmp_path / "dangling.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", str(p))
    assert code == 2
    assert "missing" in out


def test_check_valid_o_operator(bundle_file, capsys):
    code, out = run(capsys, "check", "o-operator", "aff1_adj_T",
                    "--input", bundle_file)
    assert code == 0 and "valid" in out


def test_check_invalid_gcs_names_identity(bundle_file, tmp_path, capsys):
    bad = {"objects": {"bad_J": {
        "kind": "gcs_module", "rep_ref": "aff1_coadj",
        "n": [["0", "0"], ["0", "0"]], "t": [["0", "0"], ["0", "0"]],
        "sigma": [["0", "0"], ["0", "0"]], "s": [["0", "0"], ["0", "0"]]}}}
    p = tmp_path / "bad_gcs.json"
    p.write_text(json.dumps(bad), encoding="utf-8")
    code, out = run(capsys, "check", "gcs", "bad_J",
                    "--input", bundle_file, str(p))
    assert code == 1
    assert "53" in out


def test_check_invalid_gcs_runs_each_route_once(bundle_file, tmp_path, capsys, monkeypatch):
    rng = random.Random(3)

    def entries():
        return [[str(rng.choice((-1, 0, 1))) for _ in range(3)] for _ in range(3)]

    bad = {"objects": {"J0": {"kind": "gcs_module", "rep_ref": "h3_adj", "n": entries(),
                              "t": entries(), "sigma": entries(), "s": entries()}}}
    p = tmp_path / "random_gcs.json"
    p.write_text(json.dumps(bad), encoding="utf-8")
    calls = []
    direct, components = gcsholo.gcs_check_direct, gcsholo.gcs_check_components

    def counted_direct(*args):
        calls.append("direct")
        return direct(*args)

    def counted_components(*args, report=False):
        calls.append("components report" if report else "components")
        return components(*args, report=report)

    monkeypatch.setattr(gcsholo, "gcs_check_direct", counted_direct)
    monkeypatch.setattr(gcsholo, "gcs_check_components", counted_components)
    code, out = run(capsys, "check", "gcs", "J0", "--input", bundle_file, str(p))
    assert code == 1 and "failed identities: [" in out
    assert sorted(calls) == ["components report", "direct"]


def _count(monkeypatch, module, name):
    """Wrap module.<name> and record the arguments of each call."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _write(tmp_path, objects, *bundle_names):
    """A document of `objects` beside the named bundle objects."""
    p = tmp_path / "extra.json"
    kept = {n: bundle()["objects"][n] for n in bundle_names}
    p.write_text(json.dumps({"objects": {**kept, **objects}}), encoding="utf-8")
    return str(p)


def test_check_invalid_o_operator_prints_the_deciding_witness(bundle_file, tmp_path, capsys,
                                                              monkeypatch):
    """The witness is the first failing pair of the walk that decided the
    verdict: no full residual and one pre-Lie product."""
    p = _write(tmp_path, {"aff1_adj_id": {"kind": "o_operator", "rep_ref": "aff1_adj",
                                          "matrix": [["1", "0"], ["0", "1"]]}})
    residuals = _count(monkeypatch, ooper, "o_residual")
    products = _count(monkeypatch, ooper, "o_product")
    code, out = run(capsys, "check", "o-operator", "aff1_adj_id", "--input", bundle_file, p)
    assert code == 1 and out.endswith("invalid first defect at (0, 1): ['0', '-1']\n")
    assert len(residuals) == 0 and len(products) == 1


def test_check_incompatible_pair_computes_the_mixed_residual_once(bundle_file, tmp_path,
                                                                  capsys, monkeypatch):
    p = _write(tmp_path, {
        "t1": {"kind": "o_operator", "rep_ref": "h3_coadj",
               "matrix": [["0", "0", "-1"], ["0", "0", "-1"], ["0", "-1", "-1"]]},
        "t2": {"kind": "o_operator", "rep_ref": "h3_coadj",
               "matrix": [["0", "0", "-1"], ["0", "1", "1"], ["1", "-1", "1"]]}})
    calls = _count(monkeypatch, ooper, "compatibility_defect")
    code, out = run(capsys, "check", "compatible", "t1", "t2", "--input", bundle_file, p)
    assert code == 1 and "first defect at (1, 2)" in out
    assert len(calls) == 1


def test_check_holo_o_decides_the_o_identity_of_t_i_once(monkeypatch):
    """is_on_structure decides T_I's O-identity; the oracle after it reads T_R only."""
    ws = Workspace.load([json.loads(bundle_json())])
    entry = ws.entries["ab2_holo_o"]
    t_r, t_i = entry.value[3:]
    calls = _count(monkeypatch, ooper, "o_defect")
    assert cli.check_entry(ws, entry) == (True, "")
    assert [args[1] for args in calls] == [t_i, t_r]


def test_validate_weak_only_mc_runs_the_mc_routes_once(tmp_path, capsys, monkeypatch):
    """Strong and weak verdicts come from one strong_mc_check: one derived
    bracket for a solution that is weak but not strong."""
    p = _write(tmp_path, {"weak": {"kind": "mc_solution", "twilled_ref": "aff1_tw",
                                   "omega": [["0", "-1"], ["1", "0"]]}},
               "aff1_tw", "aff1_tw_total")
    calls = _count(monkeypatch, twilled, "derived_bracket")
    code, out = run(capsys, "validate", "--input", p)
    assert code == 0 and "weak [mc_solution] valid (weak only)" in out
    assert len(calls) == 1


def test_check_invalid_bivector_squares_it_once(bundle_file, tmp_path, capsys, monkeypatch):
    """The verdict and the printed support of [r, r] come from one Schouten square."""
    p = _write(tmp_path, {"bad_r": {"kind": "bivector", "algebra_ref": "sl2", "dim": 3,
                                    "entries": [[0, 1, "1"], [1, 2, "1"]]}})
    calls = _count(monkeypatch, ooper, "schouten_self")
    code, out = run(capsys, "check", "r-matrix", "bad_r", "--input", bundle_file, p)
    assert code == 1 and out.endswith("invalid [r,r] has support [(0, 1, 2)]\n")
    assert len(calls) == 1


# A matrix entry and what it loads as: a value, or the exit-2 message.  "0"
# is read without parse_scalar; every other token is parsed as before.
ZERO_TOKENS = [
    ("0", 0), ("-0", 0), ("00", 0), ("0/1", 0), (0, 0), ("0.0", 0),
    (False, "N: WorkspaceError: scalar False is not an integer or a \"p/q\" string"),
    (0.0, "N: WorkspaceError: scalar 0.0 is not an integer or a \"p/q\" string"),
    ("", "N: ValueError: Invalid literal for Fraction: ''"),
]


@pytest.mark.parametrize("token,want", ZERO_TOKENS, ids=[repr(t) for t, _ in ZERO_TOKENS])
def test_zero_matrix_entries_load_as_before(token, want, tmp_path, capsys):
    doc = {"objects": {"aff1": bundle()["objects"]["aff1"],
                       "N": {"kind": "nijenhuis", "algebra_ref": "aff1",
                             "matrix": [[token, "1"], ["0", "0"]]}}}
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", str(p))
    if isinstance(want, str):
        assert code == 2 and out == f"error: workspace failed to load\n  {want}\n"
    else:
        assert code == 0 and "N [nijenhuis] valid" in out
        entries = Workspace.load([doc]).entries["N"].value[1].entries
        assert entries == ((want, 1), (0, 0))
        assert all(type(x) is int for row in entries for x in row)


def test_check_missing_name(bundle_file, capsys):
    code, out = run(capsys, "check", "mc", "missing_name", "--input", bundle_file)
    assert code == 2


def test_check_more_kinds(bundle_file, capsys):
    valid_cases = [
        ("r-matrix", ["aff1_r"]), ("r-matrix", ["h3_r"]), ("r-matrix", ["sl2_r"]),
        ("compatible", ["aff1_coadj_T1", "aff1_coadj_T2"]),
        ("nijenhuis", ["aff1_N"]), ("nijenhuis-structure", ["aff1_ns"]),
        ("on", ["aff1_on"]), ("on", ["h3_on"]), ("pn", ["h3_pn"]),
        ("twilled", ["aff1_tw"]), ("twilled", ["h3_tw"]),
        ("mc", ["aff1_mc"]), ("strong-mc", ["aff1_mc"]),
        ("gcs", ["aff1_gcs"]), ("gcs", ["ab2_gcs"]),
        ("gcs-lie", ["ab2_gcslie"]), ("gcs-lie", ["ab2_gcslie_cx"]),
        ("complex", ["ab2_cx"]), ("complex", ["aff1_cx"]),
        ("holo-o", ["ab2_holo_o"]), ("holo-r", ["ab4_holo_r"]),
        ("pre-lie", ["aff1_prelie"]),
    ]
    for kind, names in valid_cases:
        code, out = run(capsys, "check", kind, *names, "--input", bundle_file)
        assert code == 0, (kind, names, out)


def test_derive_all_kinds(bundle_file, tmp_path, capsys):
    cases = [
        ("induced-lie", ["aff1_adj_T"]),
        ("gauge", ["aff1_adj_T", "aff1_adj_B"]),
        ("reduce", ["h3_adj_T", "h3_full", "h3_center", "h3_full"]),
        ("hierarchy", ["3", "aff1_on"]),
        ("deformed-bracket", ["aff1_N"]),
        ("tilde-action", ["aff1_ns"]),
        ("twilled-from-o", ["aff1_adj_T"]),
        ("on-from-mc", ["aff1_adj_T", "aff1_mc"]),
        ("mc-from-on", ["aff1_on"]),
        ("on-from-pair", ["aff1_coadj_T1", "aff1_coadj_T2"]),
        ("gcs-from-o", ["aff1_coadj_T2"]),
        ("pre-lie-from-o", ["aff1_coadj_T2"]),
        ("opposite-gcs", ["aff1_gcs"]),
        ("semidirect", ["aff1_adj"]),
        ("dual", ["h3_adj"]),
        ("adjoint", ["sl2"]),
        ("coadjoint", ["h3"]),
    ]
    for i, (kind, args) in enumerate(cases):
        out_path = tmp_path / f"out_{i}.json"
        code, out = run(capsys, "derive", kind, *args,
                        "--input", bundle_file, "--output", str(out_path))
        assert code == 0, (kind, out)
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        ws = Workspace.load([doc])  # round-trip: re-loads and re-validates
        rep = build_report(ws, seed=0)
        assert all(o["valid"] for o in rep["objects"].values()), (kind, rep)


def test_derive_gauge_identity(bundle_file, tmp_path, capsys):
    zero_b = {"objects": {"B0": {"kind": "linmap",
                                 "matrix": [["0", "0"], ["0", "0"]]}}}
    p = tmp_path / "b0.json"
    p.write_text(json.dumps(zero_b), encoding="utf-8")
    out_path = tmp_path / "gauge0.json"
    code, _ = run(capsys, "derive", "gauge", "aff1_adj_T", "B0",
                  "--input", bundle_file, str(p), "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    derived = doc["objects"]["aff1_adj_T__gauge__B0"]
    assert derived["matrix"] == [["0", "0"], ["1", "0"]]


def test_derive_precondition_error(bundle_file, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    code, out = run(capsys, "derive", "gcs-from-o", "aff1_adj_T",
                    "--input", bundle_file, "--output", str(out_path))
    assert code == 2
    assert not out_path.exists()


@pytest.mark.parametrize("args", [
    ["hierarchy", "x", "aff1_on"],
    ["induced-lie", "aff1_adj_T", "extra"],
    ["gauge", "aff1_adj_T"],
    ["twilled-from-o", "aff1_on"],
    ["induced-lie", "aff1_N"],
    ["adjoint", "aff1_adj"],
], ids=["hierarchy-depth-not-an-integer", "induced-lie-extra-argument",
        "gauge-missing-argument", "on-structure-for-an-o-operator",
        "nijenhuis-for-an-o-operator", "representation-for-an-algebra"])
def test_derive_bad_arguments_are_errors(args, bundle_file, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    code, out = run(capsys, "derive", *args, "--input", bundle_file,
                    "--output", str(out_path))
    assert code == 2
    assert out.startswith("error:") and out.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("depth", [str(MAX_HIERARCHY_DEPTH + 1), "9" * 20, "9" * 5000],
                         ids=["one-past-the-bound", "20-digit", "5000-digit"])
def test_hierarchy_depth_past_the_bound_is_an_error(depth, bundle_file, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    code, out = run(capsys, "derive", "hierarchy", depth, "h3_on", "--input", bundle_file,
                    "--output", str(out_path))
    assert code == 2
    assert out.startswith("error: hierarchy depth") and out.count("\n") == 1
    assert not out_path.exists()


def test_hierarchy_at_the_depth_bound_is_derived(bundle_file, tmp_path, capsys):
    out_path = tmp_path / "deepest.json"
    code, _ = run(capsys, "derive", "hierarchy", str(MAX_HIERARCHY_DEPTH), "aff1_on",
                  "--input", bundle_file, "--output", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert f"aff1_on__t{MAX_HIERARCHY_DEPTH}" in doc["objects"]


def test_report_determinism(bundle_file, capsys):
    code1, out1 = run(capsys, "report", "--input", bundle_file, "--format", "json")
    code2, out2 = run(capsys, "report", "--input", bundle_file, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    code4, out4 = run(capsys, "report", "--input", bundle_file, "--format", "text")
    assert code4 == 0 and out4.count("suite ") == 3


def test_report_seed_changes_suites_not_verdicts(bundle_file, capsys):
    _, out_a = run(capsys, "report", "--input", bundle_file, "--format", "json",
                   "--seed", "1")
    _, out_b = run(capsys, "report", "--input", bundle_file, "--format", "json",
                   "--seed", "2")
    obj_a = json.loads(out_a)["objects"]
    obj_b = json.loads(out_b)["objects"]
    assert obj_a == obj_b


def test_empty_workspace_report(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"objects": {}}), encoding="utf-8")
    code, out = run(capsys, "report", "--input", str(p), "--format", "json")
    assert code == 0
    assert json.loads(out)["objects"] == {}


@pytest.mark.parametrize("doc", [
    {"objects": []},
    {"objects": {"g": 3}},
    {"objects": {"g": {"kind": "lie_algebra", "dim": -1}}},
    {"objects": {"g": {"kind": ["lie_algebra"], "dim": 1}}},
    {"objects": {"g": {"kind": "lie_algebra", "dim": 1, "bracket": []}}},
    {"objects": {"g": {"kind": "lie_algebra"}}},
], ids=["objects-not-a-map", "entry-not-a-map", "negative-dim", "list-kind",
        "unknown-key", "missing-key"])
def test_malformed_document_is_a_structural_error(doc, tmp_path, capsys):
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", str(p))
    assert code == 2
    assert out.startswith("error:")


def _flip(monkeypatch, module, name):
    route = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: not route(*args))


@pytest.mark.parametrize("route,suite", [
    ("graph_check", "o_operator_graph_oracle"),
    ("is_r_matrix", "cybe_coadjoint_oracle"),
])
def test_report_suites_count_disagreements(route, suite, monkeypatch):
    doc = json.loads(bundle_json())
    doc["objects"] = {n: raw for n, raw in doc["objects"].items()
                      if raw["kind"] in ("lie_algebra", "representation")}
    ws = Workspace.load([doc])
    _flip(monkeypatch, ooper, route)
    counts = build_report(ws)["suites"][suite]
    assert counts["agree"] < counts["total"]


@pytest.mark.parametrize("argv", [
    ["validate"], ["report"], ["check", "o-operator", "aff1_adj_T"],
])
def test_oracle_disagreement_in_a_command_exits_3(argv, bundle_file, monkeypatch, capsys):
    _flip(monkeypatch, ooper, "graph_check")
    code, out = run(capsys, *argv, "--input", bundle_file)
    assert code == 3
    assert "oracle disagreement" in out


@pytest.mark.parametrize("argv", [
    ["validate"], ["report"], ["check", "o-operator", "aff1_adj_T"],
    ["derive", "induced-lie", "aff1_adj_T"],
])
def test_oracle_disagreement_on_load_exits_3(argv, bundle_file, tmp_path, monkeypatch,
                                             capsys):
    def broken(*args):
        raise OracleDisagreement("twilled splitting", "injected")
    monkeypatch.setattr(twilled, "twilled_new", broken)
    if argv[0] == "derive":
        argv = argv + ["--output", str(tmp_path / "out.json")]
    code, out = run(capsys, *argv, "--input", bundle_file)
    assert code == 3
    assert not (tmp_path / "out.json").exists()
    assert "oracle disagreement in twilled splitting" in out


@pytest.mark.parametrize("scalar", [0.5, 2.0, True, False],
                         ids=["float", "integral-float", "true", "false"])
def test_json_float_and_bool_scalars_are_structural_errors(scalar, tmp_path, capsys):
    doc = {"objects": {"g": {"kind": "lie_algebra", "dim": 2,
                             "brackets": [[0, 1, ["0", scalar]]]}}}
    p = tmp_path / "scalars.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", str(p))
    assert code == 2
    assert out.startswith("error:")
    assert "is not an integer" in out


def _load_error(tmp_path, capsys, objects, *extra_inputs):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps({"objects": objects}), encoding="utf-8")
    code, out = run(capsys, "validate", "--input", *extra_inputs, str(p))
    lines = out.splitlines()
    # the load error, then one line for the one bad object
    assert code == 2 and len(lines) == 2, out
    assert lines[0].startswith("error:")
    return lines[1]


@pytest.mark.parametrize("triple", [
    [0, 5, ["1", "0"]], [-1, 0, ["1", "0"]], [True, 0, ["1", "0"]], [0, "1", ["1", "0"]],
], ids=["index-past-dim", "negative-index", "boolean-index", "string-index"])
@pytest.mark.parametrize("kind", ["pre_lie", "deformation"])
def test_bad_triple_index_is_a_structural_error(kind, triple, bundle_file, tmp_path, capsys):
    if kind == "pre_lie":
        raw = {"kind": "pre_lie", "dim": 2, "products": [triple]}
    else:
        raw = {"kind": "deformation", "rep_ref": "aff1_adj", "bracket1": [triple],
               "action1": [[["0", "0"], ["0", "0"]]] * 2}
    line = _load_error(tmp_path, capsys, {"bad": raw}, bundle_file)
    assert line.startswith("  bad: WorkspaceError: triple index")


def test_wrong_triple_length_is_a_structural_error(tmp_path, capsys):
    raw = {"kind": "pre_lie", "dim": 2, "products": [[0, 1, ["1", "0", "1"]]]}
    line = _load_error(tmp_path, capsys, {"bad": raw})
    assert "has 3 coefficients, expected 2" in line


@pytest.mark.parametrize("kind", ["lie_algebra", "pre_lie"])
def test_boolean_dim_is_a_structural_error(kind, tmp_path, capsys):
    line = _load_error(tmp_path, capsys, {"bad": {"kind": kind, "dim": True}})
    assert "dim must be a non-negative integer, got True" in line


_Z2 = [["0", "0"], ["0", "0"]]


def _sparse_object(field, item):
    """One object over a dim-2 algebra `g` whose i < j pair field `field` holds `item`."""
    return {
        "brackets": {"kind": "lie_algebra", "dim": 2, "brackets": [item[:2] + [["1", "0"]]]},
        "entries": {"kind": "bivector", "dim": 2, "entries": [item]},
        "r": {"kind": "pn_structure", "algebra_ref": "g", "r": [item], "n": _Z2},
        "sigma2": {"kind": "gcs_lie", "algebra_ref": "g", "n": _Z2, "sigma2": [item]},
        "r_r": {"kind": "holo_r", "algebra_ref": "g", "j": _Z2, "r_r": [item]},
        "r_i": {"kind": "holo_r", "algebra_ref": "g", "j": _Z2, "r_i": [item]},
        "values": {"kind": "cochain", "degree": 1, "source_dim": 2, "target_dim": 1,
                   "values": [[item[:1], ["1"]]]},
    }[field]


_G2 = {"kind": "lie_algebra", "dim": 2}


@pytest.mark.parametrize("index", [True, -1, 2, "1"],
                         ids=["boolean", "negative", "past-dim", "string"])
@pytest.mark.parametrize("field", ["brackets", "entries", "r", "sigma2", "r_i", "values"])
def test_badly_typed_index_is_a_structural_error(field, index, tmp_path, capsys):
    bad = _sparse_object(field, [index, 1, "1"])
    line = _load_error(tmp_path, capsys, {"g": _G2, "bad": bad})
    assert f"index {index!r} is not an integer in [0, 2)" in line


@pytest.mark.parametrize("value", [True, -1, "2"], ids=["boolean", "negative", "string"])
@pytest.mark.parametrize("kind,key", [
    ("subspace", "ambient"), ("cochain", "degree"), ("cochain", "source_dim"),
    ("cochain", "target_dim"),
])
def test_badly_typed_count_is_a_structural_error(kind, key, value, tmp_path, capsys):
    raw = ({"kind": "subspace", "ambient": 2, "basis": []} if kind == "subspace" else
           {"kind": "cochain", "degree": 1, "source_dim": 2, "target_dim": 1})
    raw[key] = value
    line = _load_error(tmp_path, capsys, {"bad": raw})
    assert f"{key} must be a non-negative integer, got {value!r}" in line


@pytest.mark.parametrize("field", ["brackets", "entries", "r", "sigma2", "r_r", "r_i"])
def test_repeated_pair_is_a_structural_error(field, tmp_path, capsys):
    bad = _sparse_object(field, [0, 1, "1"])
    items = bad[field]
    items.append(list(items[0]))
    line = _load_error(tmp_path, capsys, {"g": _G2, "bad": bad})
    assert "triple (0, 1) appears twice" in line


def test_bivector_dim_must_match_its_algebra(tmp_path, capsys):
    bad = {"kind": "bivector", "algebra_ref": "g", "dim": 3, "entries": []}
    line = _load_error(tmp_path, capsys, {"g": _G2, "bad": bad})
    assert "dim is 3, but the referenced object has 2" in line


@pytest.mark.parametrize("name", [["g"], {"g": 1}, 2, None])
def test_non_string_reference_is_a_structural_error(name, tmp_path, capsys):
    bad = {"kind": "nijenhuis", "algebra_ref": name, "matrix": _Z2}
    line = _load_error(tmp_path, capsys, {"g": _G2, "bad": bad})
    assert f"algebra_ref must be an object name, got {name!r}" in line


@pytest.mark.parametrize("raw,what", [
    ({"kind": "lie_algebra", "dim": 2, "brackets": ""}, "brackets"),
    ({"kind": "lie_algebra", "dim": 2, "brackets": [[0, 1, "01"]]}, "triple (0, 1)"),
    ({"kind": "subspace", "ambient": 2, "basis": ["01"]}, "vector"),
    ({"kind": "linmap", "matrix": "01"}, "matrix"),
    ({"kind": "linmap", "matrix": ["01", "10"]}, "matrix row"),
    ({"kind": "cochain", "degree": 0, "source_dim": 1, "target_dim": 1,
      "values": [[{}, ["1"]]]}, "index tuple"),
], ids=["sparse-field", "coefficients", "vector", "matrix", "matrix-row", "index-tuple"])
def test_string_or_map_for_a_list_is_a_structural_error(raw, what, tmp_path, capsys):
    line = _load_error(tmp_path, capsys, {"bad": raw})
    assert f"{what} must be a list, got" in line


def test_input_that_is_not_utf8_is_an_error(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"objects": {"\xe9": {}}}')
    code, out = run(capsys, "validate", "--input", str(p))
    assert code == 2
    assert out.startswith("error:") and out.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_derive_output_is_an_error(where, bundle_file, tmp_path, capsys):
    out_path = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    code, out = run(capsys, "derive", "induced-lie", "aff1_adj_T", "--input", bundle_file,
                    "--output", str(out_path))
    assert code == 2
    assert out.startswith("error:") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "o-operator", "aff1_adj_T", "--format", "json"],
    ["check", "o-operator", "aff1_adj_T", "--seed", "9"],
    ["derive", "induced-lie", "aff1_adj_T", "--output", "never.json", "--format", "json"],
], ids=["check-format", "check-seed", "derive-format"])
def test_report_options_are_usage_errors_elsewhere(argv, bundle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", bundle_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


TRIVIAL_AB2 = {
    "ab2": {"kind": "lie_algebra", "dim": 2, "brackets": []},
    "ab2_triv2": {"kind": "representation", "algebra_ref": "ab2", "dim": 2,
                  "actions": [[["0", "0"], ["0", "0"]]] * 2},
}
IDENTITY2 = [["1", "0"], ["0", "1"]]
ZERO2 = [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("kind,entry", [
    ("holo-o", {"kind": "holo_o", "rep_ref": "ab2_triv2", "j": IDENTITY2,
                "j_m": [["0", "-1"], ["1", "0"]], "t_r": ZERO2, "t_i": ZERO2}),
    ("holo-r", {"kind": "holo_r", "algebra_ref": "ab2", "j": IDENTITY2,
                "r_r": [], "r_i": []}),
])
def test_a_failed_holomorphic_precondition_is_an_error_in_every_command(kind, entry, tmp_path,
                                                                        capsys):
    """J (or (J, J_M)) is not a complex structure: `check` and the report
    commands alike exit 2 with the library's message, not a traceback."""
    p = tmp_path / "holo.json"
    p.write_text(json.dumps({"objects": {**TRIVIAL_AB2, "bad": entry}}), encoding="utf-8")
    code, line = run(capsys, "check", kind, "bad", "--input", str(p))
    assert code == 2 and line.startswith("error: ") and line.count("\n") == 1
    for argv in (["validate"], ["report"], ["report", "--format", "json"]):
        assert run(capsys, *argv, "--input", str(p)) == (2, line)


def test_every_kind_has_one_verdict_and_every_command_names_kinds():
    assert set(cli.VERDICTS) == set(cli.KINDS)
    for kinds, _ in cli.CHECKS.values():
        assert kinds and set(kinds) <= set(cli.KINDS)
    for kinds, _ in cli.DERIVES.values():
        assert kinds and all(k in cli.KINDS or callable(k) for k in kinds)


def _choices(command):
    (sub,) = [a for a in cli._parser()._actions if a.dest == "command"]
    (kind,) = [a for a in sub.choices[command]._actions if a.dest == "kind"]
    return kind.choices


def test_the_command_line_offers_exactly_the_table_keys():
    assert _choices("check") == sorted(cli.CHECKS)
    assert _choices("derive") == sorted(cli.DERIVES)


def _readme_list(label):
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    listed = text.split(f"{label}: ", 1)[1].split(".", 1)[0]
    return sorted(item.split("`")[1].split()[0] for item in listed.split(", "))


def test_the_readme_lists_the_table_keys():
    assert _readme_list("Check kinds") == sorted(cli.CHECKS)
    assert _readme_list("Derive kinds") == sorted(cli.DERIVES)


def test_write_is_the_inverse_of_load():
    """Each bundle object's value writes back to its document entry, a
    reference as the name of the object it loaded.  A twilled algebra is left
    out: its value is re-expressed in the block basis of its two parts."""
    doc = bundle()
    ws = Workspace.load([doc])
    names = {id(entry.value): name for name, entry in ws.entries.items()}
    kinds = set()
    for name, entry in sorted(ws.entries.items()):
        if entry.kind != "twilled":
            assert cli.write(entry.kind, entry.value, names) == doc["objects"][name], name
            kinds.add(entry.kind)
    assert kinds == set(cli.KINDS) - {"twilled"}


@pytest.mark.parametrize("name,code,detail", [
    ("aff1_deform", 0, ""), ("bad_deform", 1, " condition action1_rep fails"),
])
def test_check_deformation(name, code, detail, bundle_file, tmp_path, capsys):
    p = _write(tmp_path, {"bad_deform": {
        "kind": "deformation", "rep_ref": "aff1_adj", "bracket1": [[0, 1, ["1", "0"]]],
        "action1": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}})
    word = "valid" if code == 0 else "invalid"
    assert run(capsys, "check", "deformation", name, "--input", bundle_file, p) == (
        code, f"deformation {name}: {word}{detail}\n")


@pytest.mark.parametrize("argv", [["validate"], ["check", "mc", "weak"],
                                  ["check", "strong-mc", "weak"]],
                         ids=["validate", "check-mc", "check-strong-mc"])
def test_each_mc_reading_runs_one_strong_mc_check(argv, tmp_path, capsys, monkeypatch):
    p = _write(tmp_path, {"weak": {"kind": "mc_solution", "twilled_ref": "aff1_tw",
                                   "omega": [["0", "-1"], ["1", "0"]]}},
               "aff1_tw", "aff1_tw_total")
    calls = _count(monkeypatch, twilled, "strong_mc_check")
    code, _ = run(capsys, *argv, "--input", p)
    assert code == (1 if "strong-mc" in argv else 0)
    assert len(calls) == 1
