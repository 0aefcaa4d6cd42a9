"""A construction that builds a carrier a theorem guarantees, from inputs that
passed their own checks, treats a refusal of that carrier as a library bug: it
goes through `errors.theorem`, so the command exits 3 (a library bug), not 2
(a refused input).  Each derive kind that builds such a carrier runs with one
named mutation of a builder it reads; without `errors.theorem` each mutated
command would exit 2, as if the input were at fault.  `derive gauge` checks
its carrier T_B through an oracle of its own, the isomorphism id + BT of the
two brackets, so a mutation of that check exits 3 as well.  Library
constructions that no derive kind reaches are checked the same way in-process."""

import json

import pytest

from lieop import cli, cohomology, errors, gcsholo, liecore, onstruct, ooper, twilled
from lieop.cli import Workspace, run_derive
from lieop.exactla import Matrix
from lieop.fixtures import ROT, bundle
from lieop.liecore import trivial_rep

from test_oracle import _gains_e0_at_01


def _gains_e0(route):
    """A row builder whose rows at (0, 1) gain e_0, so they are not skew."""
    return lambda *args: _gains_e0_at_01(route(*args))


def _b_bracket_unshifted(route):
    """block_rows with the bracket of b written at a's coordinates, the shift
    past a forgotten."""
    def rows(sa, sb, s1, s2):
        out, da = route(sa, sb, s1, s2), len(sa)
        return out[:da] + tuple(row[:da] + sb[u] for u, row in enumerate(out[da:]))
    return rows


# name -> (derive argv, module, builder, its mutation)
THEOREM_SITES = {
    "[.,.]_N, rows at (0, 1) gain e_0": (
        ["deformed-bracket", "sl2_N"], onstruct, "deformed_tensor", _gains_e0),
    "subalgebra bracket, rows at (0, 1) gain e_0": (
        ["reduce", "h3_adj_T", "h3_full", "h3_center", "h3_full"], liecore, "transport",
        _gains_e0),
    "T2 inverted plus the identity": (
        ["on-from-pair", "aff1_coadj_T1", "aff1_coadj_T2"], onstruct, "invert",
        lambda route: lambda A: route(A) + Matrix.identity(A.rows)),
    "mu2 of on-from-mc, b's bracket unshifted": (
        ["on-from-mc", "h3_adj_T2", "h3_on__mc"], cohomology, "block_rows", _b_bracket_unshifted),
    "mu2 of mc-from-on, b's bracket unshifted": (
        ["mc-from-on", "h3_on"], cohomology, "block_rows", _b_bracket_unshifted),
    "T inverted twice over": (
        ["gcs-from-o", "aff1_coadj_T2"], gcsholo, "invert",
        lambda route: lambda A: route(A).scale(2)),
    "negation doubles": (
        ["opposite-gcs", "aff1_gcs"], Matrix, "__neg__", lambda route: lambda A: A.scale(-2)),
    "every pre-Lie product gains e_0": (
        ["pre-lie-from-o", "aff1_coadj_T2"], ooper, "_row",
        lambda route: lambda acc: route({**acc, 0: acc.get(0, 0) + 1})),
    "id + BT no bracket morphism at (0, 1)": (
        ["gauge", "aff1_adj_T", "aff1_adj_B"], ooper, "morphism_defect",
        lambda route: lambda *args: (0, 1, (1,))),
}


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    """The bundle with the strong MC solution of h3_on, whose twilled algebra
    has a bracket on its b part and three pairs in its a part."""
    doc = bundle()
    new, _ = run_derive(Workspace.load([doc]), "mc-from-on", ["h3_on"])
    path = tmp_path_factory.mktemp("theorem") / "in.json"
    path.write_text(json.dumps({"objects": {**doc["objects"], **new}}), encoding="utf-8")
    return path


def test_every_derive_kind_that_builds_a_theorem_carrier_is_covered():
    kinds = {argv[0] for argv, *_ in THEOREM_SITES.values()}
    assert kinds == {"deformed-bracket", "reduce", "on-from-pair", "on-from-mc", "mc-from-on",
                     "gcs-from-o", "opposite-gcs", "pre-lie-from-o", "gauge"}


@pytest.mark.parametrize("mutation", sorted(THEOREM_SITES))
def test_a_theorem_site_that_fails_its_check_exits_3(doc_path, tmp_path, monkeypatch, capsys,
                                                    mutation):
    args, module, builder, mutate = THEOREM_SITES[mutation]
    argv = ["derive", *args, "--input", str(doc_path), "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    monkeypatch.setattr(module, builder, mutate(getattr(module, builder)))
    assert cli.main(argv) == 3
    assert "oracle disagreement" in capsys.readouterr().out


@pytest.fixture(scope="module")
def ws():
    return Workspace.load([bundle()])


def test_library_theorem_sites_raise_oracle_disagreement(ws, monkeypatch):
    """With the check before it passing everything, the strong-MC ON-structure,
    the GCS of a complex pair and the PN hierarchy refuse their carrier as a
    library bug."""
    rep, t = ws.get("aff1_adj_T").value
    monkeypatch.setattr(twilled, "strong_mc_check", lambda tw, omega: (True, {}))
    with pytest.raises(errors.OracleDisagreement, match="on from strong mc"):
        twilled.on_from_strong_mc(rep, t, Matrix([[1, 1], [0, 1]]))
    monkeypatch.setattr(gcsholo, "is_module_complex_pair", lambda *args: True)
    with pytest.raises(errors.OracleDisagreement, match="gcs from complex"):
        gcsholo.gcs_from_complex(trivial_rep(ws.get("ab2").value, 2), ROT, Matrix.identity(2))
    g, r, _ = ws.get("h3_pn").value
    monkeypatch.setattr(onstruct, "is_pn_structure", lambda *args: True)
    with pytest.raises(errors.OracleDisagreement, match="pn hierarchy"):
        onstruct.pn_hierarchy(g, r, Matrix([[1, 0, 0], [0, 1, 0], [1, 0, 1]]), 1)


def test_input_checks_still_exit_2(doc_path, tmp_path, capsys):
    """The refusal of an input the caller gave stays exit 2: here an h that is
    not a subalgebra, an O-operator whose image leaves h, and a block map that
    is not a GCS."""
    doc = json.loads(doc_path.read_text(encoding="utf-8"))
    doc["objects"]["h3_e12"] = {"kind": "subspace", "ambient": 3,
                                "basis": [["1", "1", "0"], ["1", "0", "0"]]}
    doc["objects"]["aff1_zero_gcs"] = {"kind": "gcs_module", "rep_ref": "aff1_coadj",
                                       **{key: [["0", "0"], ["0", "0"]]
                                          for key in ("n", "t", "sigma", "s")}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for args, message in (
            (["reduce", "h3_adj_T", "h3_e12", "h3_center", "h3_full"],
             "not closed under the bracket"),
            (["reduce", "h3_adj_T", "h3_sub", "h3_center", "h3_full"],
             "operator image leaves the chosen subalgebra"),
            (["opposite-gcs", "aff1_zero_gcs"], "block map fails almost-complexity")):
        argv = ["derive", *args, "--input", str(path), "--output", str(tmp_path / "out.json")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().out
