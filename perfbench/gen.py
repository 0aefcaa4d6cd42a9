"""Seed-driven input generators for the lieop benchmark.

Standard library only: nothing here imports lieop, so the program under test
sees nothing but the JSON documents, coefficient lists and slice orders these
functions return.  The same arguments always give the same output.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# Criterion-02 block space at (2, 2): every 2x2 block with entries in {-1, 0, 1},
# in itertools.product order.  A slice fixes the N block and the T block and
# sweeps all 81 * 81 (sigma, S) pairs.
BLOCKS = tuple((t[0:2], t[2:4]) for t in itertools.product((-1, 0, 1), repeat=4))
SLICE_TUPLES = len(BLOCKS) ** 2
ZERO_BLOCK = 40  # ((0, 0), (0, 0))
# The exhaustive 3^16 sweep finds exactly 18 valid tuples, all with T = 0 and
# N = +-rotation (blocks 34 and 46): 9 in each of these two slices and none
# anywhere else.
VALID_PER_SLICE = {(34, ZERO_BLOCK): 9, (46, ZERO_BLOCK): 9}
# Every run reaches the two accepting slices within this many slices.
ACCEPT_WITHIN = 8
# Seeded +-1 O-operator candidates in the gl(n) workspace.
CANDIDATES = 2


def _s(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_json(rows):
    return [[_s(Fraction(x)) for x in row] for row in rows]


def gl_structure(n):
    """Structure constants c[a][b][k] of gl(n) in the basis E_ij (index i*n+j),
    from [E_ij, E_kl] = delta_jk E_il - delta_li E_kj."""
    d = n * n
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out = c[i * n + j][k * n + l]
        if j == k:
            out[i * n + l] += 1
        if l == i:
            out[k * n + j] -= 1
    return c


def _algebra_json(c):
    d = len(c)
    brackets = [[a, b, [_s(Fraction(x)) for x in c[a][b]]]
                for a in range(d) for b in range(a + 1, d) if any(c[a][b])]
    return {"kind": "lie_algebra", "dim": d, "brackets": brackets}


def adjoint_actions(c):
    """ad(e_a) as a matrix: column b is [e_a, e_b]."""
    d = len(c)
    return [[[c[a][b][k] for b in range(d)] for k in range(d)] for a in range(d)]


def _rep_json(algebra, actions):
    return {"kind": "representation", "algebra_ref": algebra,
            "dim": len(actions[0]), "actions": [_matrix_json(m) for m in actions]}


def centre_projection(n):
    """x -> (tr x / n) I on gl(n) coordinates: an O-operator on the adjoint."""
    d = n * n
    diag = [i * n + i for i in range(n)]
    t = [[0] * d for _ in range(d)]
    for k in diag:
        for b in diag:
            t[k][b] = Fraction(1, n)
    return t


def scaled_identity(d, s):
    return [[s if i == j else 0 for j in range(d)] for i in range(d)]


def random_candidates(n, seed, count):
    """Dense seeded +-1 matrices: O-operator candidates that fail the identity."""
    rng = random.Random(f"gl{n}-candidates-{seed}")
    d = n * n
    return [[[rng.choice((-1, 1)) for _ in range(d)] for _ in range(d)]
            for _ in range(count)]


def omega_coefficients(seed, count):
    """Seeded integers, not all zero, that combine the 1-cocycle basis into omega."""
    rng = random.Random(f"omega-{seed}")
    coeffs = [rng.randint(-3, 3) for _ in range(count)]
    if not any(coeffs):
        coeffs[rng.randrange(count)] = 1
    return coeffs


def gl_workspace(n, seed):
    """The gl(n) workspace document: algebra, adjoint, coadjoint, O-operators
    (zero, centre projection, seeded +-1 candidates), the Nijenhuis operator
    2 id and the ON-structure (centre projection, 2 id, 2 id)."""
    c = gl_structure(n)
    d = n * n
    ad = adjoint_actions(c)
    coad = [[[-m[j][i] for j in range(d)] for i in range(d)] for m in ad]
    centre = _matrix_json(centre_projection(n))
    two = _matrix_json(scaled_identity(d, 2))
    objects = {
        "gl": _algebra_json(c),
        "gl_adj": _rep_json("gl", ad),
        "gl_coadj": _rep_json("gl", coad),
        "T_zero": {"kind": "o_operator", "rep_ref": "gl_adj",
                   "matrix": _matrix_json(scaled_identity(d, 0))},
        "T_centre": {"kind": "o_operator", "rep_ref": "gl_adj", "matrix": centre},
        "N_two": {"kind": "nijenhuis", "algebra_ref": "gl", "matrix": two},
        "on_centre": {"kind": "on_structure", "rep_ref": "gl_adj",
                      "t": centre, "n": two, "s": two},
    }
    for k, m in enumerate(random_candidates(n, seed, CANDIDATES)):
        objects[f"T_rand{k}"] = {"kind": "o_operator", "rep_ref": "gl_adj",
                                 "matrix": _matrix_json(m)}
    return {"objects": objects}


def gl_expected_verdicts(doc):
    """Pinned check_entry verdicts: every object is valid except the +-1 candidates."""
    return {name: not name.startswith("T_rand") for name in doc["objects"]}


def aff1_adjoint_workspace():
    """aff1 ([e1, e2] = e2) with its adjoint module: the criterion-02 carrier."""
    c = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    return {"objects": {"aff1": _algebra_json(c),
                        "aff1_adj": _rep_json("aff1", adjoint_actions(c))}}


def gcs_slice_order(seed):
    """All 81 * 81 (N block, T block) slices in a seeded order.

    The two accepting slices sit at seeded places among the first
    ACCEPT_WITHIN, so every run exercises the accept path of both routes.
    """
    rng = random.Random(f"gcs-slices-{seed}")
    accept = sorted(VALID_PER_SLICE)
    rest = [s for s in itertools.product(range(len(BLOCKS)), repeat=2)
            if s not in VALID_PER_SLICE]
    rng.shuffle(rest)
    head = rest[:ACCEPT_WITHIN - len(accept)] + accept
    rng.shuffle(head)
    return head + rest[ACCEPT_WITHIN - len(accept):]
