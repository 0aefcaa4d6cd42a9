"""The one oracle helper: every two-route verdict raises through it, and no
module but errors.py constructs OracleDisagreement."""

import ast
import json
from pathlib import Path

import pytest

import lieop
from lieop import cli, errors, gcsholo, liecore, onstruct, ooper, twilled
from lieop.cli import Workspace
from lieop.errors import OracleDisagreement, oracle
from lieop.exactla import Matrix
from lieop.fixtures import AFF1_ADJ_OMEGA, AFF1_DEFORM_S, AFF1_N, H3_ADJ_T2, bundle_json
from lieop.liecore import trivial_rep


@pytest.fixture(scope="module")
def ws():
    return Workspace.load([json.loads(bundle_json())])


def _flip(route):
    return lambda *args: not route(*args)


def _shift(route):
    """A residual route whose every entry is off by one."""
    return lambda *args: {k: tuple(x + 1 for x in v) for k, v in route(*args).items()}


def _trivial_module(route):
    """A module route that keeps the algebra but drops the action."""
    return lambda rep, *args: trivial_rep(route(rep, *args).algebra, rep.dim_m)


def _flip_on(matrix):
    """Flip a route only on the calls whose second argument is `matrix`."""
    return lambda route: lambda *args: (args[1] == matrix) != route(*args)


def _defect_on(matrix):
    """A morphism route that reports a defect on the calls whose map A (its
    second argument) is `matrix`, and runs as it is on all others."""
    return lambda route: lambda *args: (0, 1, (1,)) if args[1] == matrix else route(*args)


def _shift_first_row(route):
    """A change of basis whose first row is off by one at coordinate 0."""
    def shifted(*args):
        rows = route(*args)
        first = dict(rows[0][0])
        first[0] = first.get(0, 0) + 1
        return ((tuple(sorted(first.items())),) + rows[0][1:],) + rows[1:]
    return shifted


def _flip_verdict(route):
    """Flip the verdict of a route that returns (verdict, detail)."""
    return lambda *args: (not route(*args)[0], "flipped")


def _values(*names):
    return lambda ws: sum((tuple(ws.entries[n].value) for n in names), ())


def compatibility(*args):
    """The verdict of `ooper.compatibility`."""
    return ooper.compatibility(*args)[0]


# (module, route patched, how, args from the bundle, verdict, the site's `what`)
SITES = [
    (ooper, "graph_check", _flip, _values("aff1_adj_T"), ooper.graph_oracle,
     "o-operator graph characterization"),
    (ooper, "is_r_matrix", _flip, _values("aff1_r"), ooper.lemma_r_equiv,
     "classical r-matrix characterization"),
    (onstruct, "nijenhuis_structure_defect", _flip, _values("aff1_ns"),
     onstruct.is_nijenhuis_structure, "nijenhuis structure"),
    (onstruct, "is_r_matrix", _flip, _values("h3_pn"), onstruct.is_pn_structure,
     "pn structure"),
    (onstruct, "is_nijenhuis_nr", _flip, _values("h3_pn"), onstruct.is_pn_structure,
     "pn structure"),
    (gcsholo, "gcs_check_components", _flip, _values("aff1_gcs"), gcsholo.gcs_oracle,
     "gcs characterization"),
    (gcsholo, "nijenhuis_structure_defect", _flip, _values("aff1_cx"),
     gcsholo.is_module_complex_pair, "module complex pair"),
    (gcsholo, "is_pn_structure", _flip, _values("ab4_holo_r"), gcsholo.is_holomorphic_r,
     "holomorphic r-matrix"),
    (ooper, "mixed_residual", lambda route: lambda *args: {(0, 1): (1,)},
     lambda ws: ws.entries["aff1_coadj_T1"].value + ws.entries["aff1_coadj_T2"].value[1:],
     compatibility, "compatibility"),
    (ooper, "pre_lie_defect_tensor", _flip,
     lambda ws: (ooper.PreLieProduct(*ws.entries["aff1_prelie"].value),) * 2,
     ooper.pre_lie_compatible, "pre-Lie compatibility"),
    (onstruct, "mixed_jacobi_defect", _flip, lambda ws: ws.entries["sl2_N"].value + (3,),
     onstruct.nijenhuis_power_props, "nijenhuis power combinations"),
    (ooper, "is_o_operator", _flip_on(AFF1_ADJ_OMEGA),
     lambda ws: ws.entries["aff1_adj_T"].value + (AFF1_ADJ_OMEGA,),
     twilled.omega_structures, "omega structures"),
    (twilled, "cocycle_residual", _shift, _values("aff1_mc"), twilled.mc_check,
     "strong mc cocycle residual"),
    (twilled, "o_residual", _shift, _values("aff1_mc"), twilled.strong_mc_check,
     "strong mc quadratic residual"),
    (onstruct, "_tilde_module", _trivial_module, _values("h3_on"), onstruct.is_on_structure,
     "on structure"),
    (onstruct, "is_infinitesimal_deformation", _flip_verdict,
     lambda ws: (ws.entries["aff1_adj"].value, AFF1_N, AFF1_DEFORM_S),
     onstruct.trivial_deformation_from, "trivial deformation"),
    (onstruct, "morphism_defect", _defect_on(H3_ADJ_T2),
     lambda ws: ws.entries["h3_on"].value + (2,), onstruct.hierarchy, "hierarchy"),
    (ooper, "transport", _shift_first_row,
     lambda ws: ws.entries["h3_adj_T"].value + tuple(
         ws.entries[n].value for n in ("h3_full", "h3_zero", "h3_full")),
     ooper.mr_reduce, "mr reduction"),
]


@pytest.mark.parametrize("module,name,patch,args,verdict,what", SITES,
                         ids=[site[-2].__name__ + "-" + site[1] for site in SITES])
def test_flipped_route_raises_with_the_site_name(ws, monkeypatch, module, name, patch,
                                                 args, verdict, what):
    args = args(ws)
    assert verdict(*args)
    monkeypatch.setattr(module, name, patch(getattr(module, name)))
    with pytest.raises(OracleDisagreement) as exc:
        verdict(*args)
    assert exc.value.what == what


def test_independent_routes_do_not_read_the_deformed_form(ws, monkeypatch):
    """The direct Nijenhuis-structure route and the GCS components route stay
    apart from onstruct.deformed_form, which their oracles' other routes read."""
    def refuse(*args):
        raise AssertionError("deformed_form read")

    monkeypatch.setattr(onstruct, "deformed_form", refuse)
    rep, n, s = ws.entries["aff1_ns"].value
    with pytest.raises(AssertionError, match="deformed_form read"):
        onstruct.is_nijenhuis(rep.algebra, n)
    assert onstruct.nijenhuis_structure_defect(rep, n, s) is None
    assert onstruct.nijenhuis_structure_defect(rep, n, n) is not None
    assert gcsholo.gcs_check_components(*ws.entries["aff1_gcs"].value)
    rep, n, t, sigma, s = ws.entries["aff1_gcs"].value
    assert not gcsholo.gcs_check_components(rep, n, t, -sigma, s)


def test_oracle_returns_the_first_route_and_formats_only_on_raise():
    assert oracle("same", (1, 2), (1, 2), "{missing}") == (1, 2)
    with pytest.raises(OracleDisagreement, match=r"in pair: direct=1 other=2 at 5"):
        oracle("pair", 1, 2, "direct={a} other={b} at {k}", k=5)


def _constructions(path):
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        target = node.func if isinstance(node, ast.Call) else \
            node.exc if isinstance(node, ast.Raise) else None
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name == "OracleDisagreement":
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_errors_constructs_oracle_disagreement():
    src = Path(lieop.__file__).parent
    assert _constructions(src / "errors.py")
    offenders = [site for path in sorted(src.glob("*.py")) if path.name != "errors.py"
                 for site in _constructions(path)]
    assert offenders == []


def _imported_modules(path):
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_only_the_cli_imports_random():
    src = Path(lieop.__file__).parent
    assert "random" in _imported_modules(src / "cli.py")
    offenders = [path.name for path in sorted(src.glob("*.py"))
                 if path.name != "cli.py" and "random" in _imported_modules(path)]
    assert offenders == []


def _referenced_names(func):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(func) if isinstance(node, (ast.Name, ast.Attribute))}


def _functions(path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_a_verdict_and_its_witness_come_from_one_evaluation():
    """The command line prints the witness the library returned with the
    verdict: no code in it recomputes an O-identity residual or an MC residual
    beside the verdict's own evaluation, and no function decides compatibility
    through `ooper.compatibility` and then recomputes the mixed residual it was
    decided from, or decides it again."""
    src = Path(lieop.__file__).parent
    cli_module = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    assert not _referenced_names(cli_module) & {"o_residual", "mc_check"}
    offenders = [f"{path.name}:{f.name}" for path in sorted(src.glob("*.py"))
                 for f in _functions(path)
                 if "compatibility" in _referenced_names(f)
                 and _referenced_names(f) & {"mixed_residual", "compatibility_oracle"}]
    assert offenders == []


# The kinds whose verdict on every bundle object reaches no `errors.oracle`:
# one-route verdicts, and the carriers that loading validates.  A kind leaves
# this set when its verdict gains a second route.
ONE_ROUTE = {"nijenhuis", "pre_lie", "deformation"}
CARRIERS = {"lie_algebra", "subspace", "representation", "cochain", "twilled", "linmap"}


def test_the_verdicts_that_reach_no_oracle(ws, monkeypatch):
    calls = []
    for module in (cli, errors, gcsholo, liecore, onstruct, ooper, twilled):
        monkeypatch.setattr(module, "oracle",
                            lambda *args, **kw: calls.append(args[0]) or oracle(*args, **kw))
    reached = {kind: False for kind in cli.KINDS}
    for _, entry in sorted(ws.entries.items()):
        before = len(calls)
        assert cli.check_entry(ws, entry)[0], entry.name
        reached[entry.kind] |= len(calls) > before
    assert {kind for kind, hit in reached.items() if not hit} == ONE_ROUTE | CARRIERS


def _bundle_closure(objects, name, out=None):
    """The bundle object `name` with every object it refers to."""
    out = {} if out is None else out
    if name not in out:
        out[name] = objects[name]
        for key, value in objects[name].items():
            if key.endswith("_ref"):
                _bundle_closure(objects, value, out)
    return out


def _gains_e0_at_01(p):
    """The rows P of an O-product with e_0 added to P[0][1]; P - P^t stays skew."""
    return ((p[0][0], liecore._combine(p[0][1], 1, ((0, 1),))) + p[0][2:],) + p[1:]


def _negated(rows):
    return tuple(tuple(liecore._neg(r) for r in row) for row in rows)


# (derive kind, bundle object, module, row builder, its named mutation): each
# carrier is valid by a theorem once the inputs passed their own checks
THEOREM_MUTATIONS = {
    "M^T bracket, P[0][1] gains e_0": (
        "induced-lie", "sl2_coadj_T", ooper, "_bracket_rows",
        lambda route: lambda p: route(_gains_e0_at_01(p))),
    "bar action rows doubled": (
        "twilled-from-o", "sl2_coadj_T", twilled, "_row",
        lambda route: lambda acc: route({k: 2 * v for k, v in acc.items()})),
    "matched pair, g acts by -rho": (
        "twilled-from-o", "aff1_adj_T", twilled, "block_rows",
        lambda route: lambda sa, sb, s1, s2: route(sa, sb, _negated(s1), s2)),
    "tilde action, S transposed": (
        "tilde-action", "aff1_ns", onstruct, "deformed_action",
        lambda route: lambda rep, N, S: route(rep, N, S.transpose())),
}


@pytest.mark.parametrize("mutation", sorted(THEOREM_MUTATIONS))
def test_a_theorem_carrier_that_fails_its_check_exits_3(tmp_path, monkeypatch, capsys, mutation):
    """M^T, the bar module, the matched pair of twilled_from_o and the tilde
    module are checked although a theorem says they pass: a failure there is a
    library bug, not a refused input, so the command exits 3, not 2."""
    kind, name, module, builder, mutate = THEOREM_MUTATIONS[mutation]
    doc = tmp_path / "in.json"
    doc.write_text(json.dumps({"objects": _bundle_closure(
        json.loads(bundle_json())["objects"], name)}), encoding="utf-8")
    argv = ["derive", kind, name, "--input", str(doc), "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    monkeypatch.setattr(module, builder, mutate(getattr(module, builder)))
    assert cli.main(argv) == 3
    assert "oracle disagreement" in capsys.readouterr().out


def test_a_non_o_operator_is_refused_before_any_theorem_check(ws):
    rep = ws.get("aff1_adj").value
    for build in (ooper.induced_lie, twilled.bar_action, twilled.twilled_from_o):
        with pytest.raises(errors.NotOOperator):
            build(rep, Matrix.identity(2))
