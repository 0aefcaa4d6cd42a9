"""Acceptance suite: every criterion runs at its exact (rational) tolerance
and prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`.
"""

import itertools
import random
import time
from itertools import combinations

from lieop.cli import Workspace, build_report, render_report
from lieop.cohomology import Cochain, ce_differential, one_cocycle_basis
from lieop.errors import (
    ImageEscapesH, NotAdmissible, NotIdeal, NotStable, NotSubalgebra,
    QuotientError, Singular,
)
from lieop.exactla import Matrix, invert
from lieop.fixtures import (
    AFF1_ADJ_OMEGA, AFF1_ADJ_T, AFF1_N, H3_ADJ_T, H3_N, SL2_N,
    standard_fixtures,
)
from lieop import gcsholo
from lieop.gcsholo import (
    gcs_check_components, gcs_check_direct, gcs_components_grid, gcs_direct_grid,
    is_complex_structure, is_holomorphic_r,
)
from lieop.liecore import Subspace
from lieop.onstruct import hierarchy, nijenhuis_power_props, on_from_compatible_pair
from lieop.ooper import (
    bivector, compatibility, gauge_transform, graph_check, is_o_operator, lemma_r_equiv,
    mr_reduce,
)
from lieop.twilled import (
    find_strong_mc, mc_check, on_from_strong_mc, strong_mc_check,
    strong_mc_from_on, twilled_from_o, twilled_new,
)


ALGEBRAS, REPS, O_OPS = standard_fixtures()


def _line(num, ok, desc):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _fixture_on_structures():
    out = {}
    out["aff1_on"] = ("aff1_coadj",
                      on_from_compatible_pair(REPS["aff1_coadj"],
                                              Matrix([[0, 0], [0, 1]]),
                                              Matrix([[0, -1], [1, 0]])))
    out["h3_on"] = ("h3_adj",
                    on_from_compatible_pair(REPS["h3_adj"],
                                            Matrix([[-1, -1, 0], [-1, 0, 0], [-1, 0, 1]]),
                                            Matrix([[-1, -1, 0], [-1, 0, 0], [-1, -1, 1]])))
    from lieop.onstruct import ONStructure
    out["aff1_on_id"] = ("aff1_adj",
                         ONStructure(REPS["aff1_adj"], AFF1_ADJ_T,
                                     Matrix.identity(2), Matrix.identity(2)))
    return out


def test_criterion_01_o_operator_graph_oracle():
    rng = random.Random(101)
    t0 = time.monotonic()
    disagreements = 0
    samples = 0
    for name in sorted(REPS):
        rep = REPS[name]
        d, m = rep.algebra.dim, rep.dim_m
        for _ in range(500):
            t = Matrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(d)])
            if graph_check(rep, t) != is_o_operator(rep, t):
                disagreements += 1
            samples += 1
    elapsed = time.monotonic() - t0
    _line(1, disagreements == 0 and elapsed < 10.0,
          f"O-operator graph oracle: {samples} samples, "
          f"{disagreements} disagreements, {elapsed:.1f}s")


BLOCKS_22 = [(t[0:2], t[2:4]) for t in itertools.product((-1, 0, 1), repeat=4)]


def _compare_slice(rep, n_blk, t_blk, blocks):
    """Both grid routes on every (sigma, S) of one (N, T) slice, tuple by tuple:
    (tuples, direct-valid, components-valid, disagreements)."""
    direct = gcs_direct_grid(rep, n_blk, t_blk, blocks, blocks)
    comps = gcs_components_grid(rep, n_blk, t_blk, blocks, blocks)
    split = 0 if direct == comps else sum(a != b for a, b in zip(direct, comps, strict=True))
    return len(direct), direct.count(True), comps.count(True), split


def test_criterion_02_gcs_oracle_exhaustive():
    rep22 = REPS["aff1_adj"]
    tuples = disagreements = valid = 0
    valid_slices = {}
    t0 = time.monotonic()
    for n_idx, n_blk in enumerate(BLOCKS_22):
        for t_idx, t_blk in enumerate(BLOCKS_22):
            count, ok, _, split = _compare_slice(rep22, n_blk, t_blk, BLOCKS_22)
            tuples += count
            disagreements += split
            valid += ok
            if ok:
                valid_slices[n_idx, t_idx] = ok
    exhaustive_elapsed = time.monotonic() - t0
    exhaustive_ok = (tuples == 3 ** 16 and disagreements == 0 and valid == 18
                     and valid_slices == {(34, 40): 9, (46, 40): 9})
    rep32 = REPS["h3_rep2"]
    rng = random.Random(202)
    for _ in range(250):
        n_blk = tuple(tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(3))
        t_blk = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(3))
        g_blk = tuple(tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(2))
        s_blk = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(2))
        a = gcs_check_direct(rep32, n_blk, t_blk, g_blk, s_blk)
        if a != gcs_check_components(rep32, n_blk, t_blk, g_blk, s_blk):
            disagreements += 1
    _line(2, exhaustive_ok and disagreements == 0,
          f"GCS oracle: {tuples} tuples exhaustive at (2,2) in {exhaustive_elapsed:.0f}s "
          f"({valid} valid, by slice {valid_slices}) plus 250 random at (3,2); "
          f"{disagreements} disagreements")


def test_criterion_02_sees_a_route_that_skips_integrability(monkeypatch):
    """Slice (34, 40) has 18 tuples with J^2 = -id and 9 integrable ones, so a
    direct route that skips integrability (the Nijenhuis check of J on the
    semi-direct product) must split from the components route on 9 tuples: the
    early rejection the grids share hides neither route."""
    rep22 = REPS["aff1_adj"]
    n_blk, t_blk = BLOCKS_22[34], BLOCKS_22[40]
    assert _compare_slice(rep22, n_blk, t_blk, BLOCKS_22) == (6561, 9, 9, 0)
    monkeypatch.setattr(gcsholo, "is_nijenhuis", lambda *args: (True, None))
    assert _compare_slice(rep22, n_blk, t_blk, BLOCKS_22) == (6561, 18, 9, 9)


def test_criterion_03_cybe_oracle_exhaustive():
    cases = 0
    for name in ("ab2", "aff1", "h3"):
        g = ALGEBRAS[name]
        idx = [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)]
        for vals in itertools.product((-1, 0, 1), repeat=len(idx)):
            r = bivector(g.dim, dict(zip(idx, vals)))
            lemma_r_equiv(g, r)  # raises OracleDisagreement on any mismatch
            cases += 1
    _line(3, cases == 3 + 3 + 27,
          f"CYBE Schouten vs coadjoint oracle, exhaustive on {cases} bivectors")


def test_criterion_04_gauge_theorems():
    instances = 0
    invertible_checked = 0
    for name in sorted(O_OPS):
        rep_name, t = O_OPS[name]
        rep = REPS[rep_name]
        basis = one_cocycle_basis(rep)
        if not basis:
            continue
        for coeffs in itertools.product((-1, 0, 1), repeat=len(basis)):
            if all(c == 0 for c in coeffs):
                continue
            b = Matrix.zeros(rep.dim_m, rep.algebra.dim)
            for c, base in zip(coeffs, basis):
                if c:
                    b = b + base.scale(c)
            try:
                # validates the O-identity, the image and the isomorphism id + BT
                tb = gauge_transform(rep, t, b)
            except NotAdmissible:
                continue
            instances += 1
            try:
                tinv = invert(t)
            except Singular:
                continue
            assert invert(tb) == tinv + b
            invertible_checked += 1
    _line(4, instances >= 20 and invertible_checked >= 1,
          f"gauge: {instances} admissible (T, B) instances validated, "
          f"{invertible_checked} inverse-formula checks")


def test_criterion_05_reduction_theorem():
    rep = REPS["h3_adj"]
    red = mr_reduce(rep, H3_ADJ_T, Subspace.full(3),
                    Subspace(3, [(0, 0, 1)]), Subspace.full(3))
    assert is_o_operator(red.reduced_rep, red.reduced_T)
    assert red.quotient.algebra.dim == 2
    rng = random.Random(77)
    fixture_list = [("h3_adj", H3_ADJ_T), ("aff1_adj", AFF1_ADJ_T)]
    successes = 0
    trials = 0
    while successes < 8 and trials < 4000:
        rep_name, t = fixture_list[trials % 2]
        rep = REPS[rep_name]
        d, m = rep.algebra.dim, rep.dim_m
        h = Subspace.span(d, [[rng.randint(-1, 1) for _ in range(d)]
                              for _ in range(rng.randint(0, d))])
        e = Subspace.span(d, [[rng.randint(-1, 1) for _ in range(d)]
                              for _ in range(rng.randint(0, d))])
        n = Subspace.span(m, [[rng.randint(-1, 1) for _ in range(m)]
                              for _ in range(rng.randint(0, m))])
        trials += 1
        try:
            out = mr_reduce(rep, t, h, e, n)  # verifies Tbar(m).n = T(m).n inside
        except (NotSubalgebra, NotStable, ImageEscapesH, QuotientError, NotIdeal):
            continue
        assert is_o_operator(out.reduced_rep, out.reduced_T)
        successes += 1
    _line(5, successes >= 5,
          f"reduction: ideal-consequence fixture plus {successes} randomized "
          f"hypothesis-satisfying triples reduced exactly")


def test_criterion_06_on_hierarchy():
    checked = 0
    for name, (rep_name, on) in sorted(_fixture_on_structures().items()):
        rep = REPS[rep_name]
        ts = hierarchy(rep, on.T, on.N, on.S, 3)  # raises unless every identity holds
        assert len(ts) == 4
        assert all(is_o_operator(rep, tk) for tk in ts)
        for a, b in itertools.combinations(range(4), 2):
            assert compatibility(rep, ts[a], ts[b])[0]
        checked += 1
    _line(6, checked == 3,
          f"ON hierarchy: {checked} fixture structures, T_0..T_3 all O-operators, "
          f"6 pairs compatible, deformation identities exact for k+l <= 3")


def test_criterion_07_strong_mc_on_roundtrip():
    roundtrips = 0
    for name, (rep_name, on) in sorted(_fixture_on_structures().items()):
        rep = REPS[rep_name]
        try:
            invert(on.T)
        except Singular:
            continue
        omega = strong_mc_from_on(rep, on.T, on.N, on.S)
        back = on_from_strong_mc(rep, on.T, omega)
        assert (back.T, back.N, back.S) == (on.T, on.N, on.S)
        roundtrips += 1
    rep = REPS["aff1_adj"]
    solutions = [AFF1_ADJ_OMEGA] + [s for s in find_strong_mc(rep, AFF1_ADJ_T)
                                    if not s.is_zero()][:5]
    hierarchies = 0
    for omega in solutions:
        on = on_from_strong_mc(rep, AFF1_ADJ_T, omega)  # validated ON-structure
        hierarchy(rep, on.T, on.N, on.S, 3)            # Corollary: compatible T_k
        hierarchies += 1
    _line(7, roundtrips >= 2 and hierarchies >= 3,
          f"strong MC <-> ON: {roundtrips} exact roundtrips with invertible T, "
          f"{hierarchies} solutions giving compatible hierarchies to k = 3")


def test_criterion_08_mc_oracle():
    tws = {
        "aff1_from_o": twilled_from_o(REPS["aff1_adj"], AFF1_ADJ_T),
        "aff1_coadj_from_o": twilled_from_o(REPS["aff1_coadj"], Matrix([[0, -1], [1, 0]])),
        "h3_split": twilled_new(ALGEBRAS["h3"], Subspace(3, [(1, 0, 0), (0, 0, 1)]),
                                Subspace(3, [(0, 1, 0)])),
        "aff1_split": twilled_new(ALGEBRAS["aff1"], Subspace(2, [(1, 0)]),
                                  Subspace(2, [(0, 1)])),
    }
    rng = random.Random(808)
    runs = 0
    for name in sorted(tws):
        tw = tws[name]
        for _ in range(120):
            omega = Matrix([[rng.randint(-2, 2) for _ in range(tw.dim_a)]
                            for _ in range(tw.dim_b)])
            mc_check(tw, omega)         # raises on explicit-vs-derived mismatch
            strong_mc_check(tw, omega)  # raises on cocycle/quadratic mismatch
            runs += 1
    _line(8, runs == 480,
          f"Maurer-Cartan residual oracle: {runs} random solutions, "
          f"explicit grid == differential + derived bracket grid everywhere")


def test_criterion_09_nijenhuis_tower():
    towers = 0
    for g_name, n in (("aff1", AFF1_N), ("h3", H3_N), ("sl2", SL2_N)):
        report = nijenhuis_power_props(ALGEBRAS[g_name], n, 3)
        assert all(report.values()), (g_name, report)
        towers += 1
    _line(9, towers == 3,
          "Nijenhuis towers: powers, iterated deformations, and the mixed "
          "Jacobi term of each bracket pair, by triples and by the NR bracket, "
          "all pass to k = 3")


def test_criterion_10_delta_squared_zero():
    rng = random.Random(99)
    checked = 0
    for name in sorted(REPS):
        rep = REPS[name]
        d, m = rep.algebra.dim, rep.dim_m
        for degree in range(0, 4):
            for _ in range(5):
                vals = {idx: tuple(rng.randint(-2, 2) for _ in range(m))
                        for idx in combinations(range(d), degree)}
                f = Cochain(degree, d, m, vals)
                assert ce_differential(rep, ce_differential(rep, f)).is_zero()
                checked += 1
    _line(10, checked > 0,
          f"d_CE o d_CE = 0 on {checked} random cochains of degree 0..3")


def test_criterion_11_holomorphic_equivalence():
    runs = 0
    g2 = ALGEBRAS["ab2"]
    for j in (Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]])):
        for a, b in itertools.product((-1, 0, 1), repeat=2):
            is_holomorphic_r(g2, j, bivector(2, {(0, 1): a}),
                             bivector(2, {(0, 1): b}))
            runs += 1
    aff1 = ALGEBRAS["aff1"]
    js = []
    for f in itertools.product((-2, -1, 0, 1, 2), repeat=4):
        j = Matrix([f[0:2], f[2:4]])
        if is_complex_structure(aff1, j):
            js.append(j)
    assert len(js) >= 2
    rng = random.Random(404)
    for _ in range(120):
        j = js[rng.randrange(len(js))]
        rr = bivector(2, {(0, 1): rng.randint(-2, 2)})
        ri = bivector(2, {(0, 1): rng.randint(-2, 2)})
        is_holomorphic_r(aff1, j, rr, ri)  # raises if (ii) and (iii) disagree
        runs += 1
    _line(11, runs >= 118,
          f"holomorphic r-matrix: PN route vs GCS route agree on {runs} inputs")


def test_criterion_12_cli_determinism(tmp_path):
    from lieop.fixtures import bundle_json
    path = tmp_path / "bundle.json"
    path.write_text(bundle_json(), encoding="utf-8")
    ws1 = Workspace.load_files([str(path)])
    ws2 = Workspace.load_files([str(path)])
    out_a = render_report(build_report(ws1, seed=0), "json")
    out_b = render_report(build_report(ws2, seed=0), "json")
    out_c = render_report(build_report(ws1, seed=0), "json")
    out_d = render_report(build_report(ws2, seed=0), "json")
    text_a = render_report(build_report(ws1, seed=0), "text")
    text_b = render_report(build_report(ws2, seed=0), "text")
    text_c = render_report(build_report(ws1, seed=0), "text")
    ok = out_a == out_b == out_c == out_d and text_a == text_b == text_c
    _line(12, ok, "CLI report byte-identical across loads and repeated builds")
