import importlib.resources as resources

from lieop.cli import KINDS, Workspace, build_report
from lieop.exactla import invert
from lieop.fixtures import (
    AFF1_ADJ_OMEGA, AFF1_ADJ_T, AFF1_COADJ_T2, AFF1_N, H3_N, SL2_N,
    bundle, bundle_json, standard_fixtures,
)
from lieop.onstruct import is_nijenhuis
from lieop.ooper import is_o_operator
from lieop.twilled import strong_mc_check, twilled_from_o


def test_bundle_all_objects_validate():
    ws = Workspace.load([bundle()])
    report = build_report(ws, seed=0)
    bad = {n: o for n, o in report["objects"].items() if not o["valid"]}
    assert not bad


def test_bundle_objects_carry_exactly_their_kinds_fields():
    for name, raw in bundle()["objects"].items():
        assert set(raw) - {"kind"} == {f.key for f in KINDS[raw["kind"]]}, name


def test_shipped_bundle_file_matches_generator():
    data = resources.files("lieop").joinpath("data/bundle.json").read_text("utf-8")
    assert data == bundle_json()


def test_o_operator_fixtures():
    algebras, reps, o_ops = standard_fixtures()
    for name, (rep_name, t) in o_ops.items():
        assert is_o_operator(reps[rep_name], t), name


def test_nijenhuis_fixtures():
    algebras, _, _ = standard_fixtures()
    for g_name, n in (("aff1", AFF1_N), ("h3", H3_N), ("sl2", SL2_N)):
        assert is_nijenhuis(algebras[g_name], n)[0]


def test_frozen_strong_mc_solution():
    _, reps, _ = standard_fixtures()
    tw = twilled_from_o(reps["aff1_adj"], AFF1_ADJ_T)
    ok, _ = strong_mc_check(tw, AFF1_ADJ_OMEGA)
    assert ok and not AFF1_ADJ_OMEGA.is_zero()


def test_invertible_fixture():
    invert(AFF1_COADJ_T2)
