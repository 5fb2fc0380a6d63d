import ast
import pathlib
import random

import numpy as np
import pytest

from wordhom import Chain, PrimeField, Simplex, boundary_chain
from oracle import (
    CosetReducer,
    betti_numbers,
    betti_of_complex,
    chain_add,
    face_closure,
    homology_basis,
    rank_mod_p,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def arm_cycle(field):
    # [0,2] + [2,4] - [0,4]
    return Chain.from_items(
        [(Simplex((0, 2)), 1), (Simplex((2, 4)), 1), (Simplex((0, 4)), -1)], field
    )


def test_rank_matches_reference_over_rationals():
    # random integer matrices: over Z/p with p large enough, rank
    # agrees with the numpy rank over the rationals
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = rng.integers(-3, 4, size=(rng.integers(1, 8), rng.integers(1, 8)))
        expected = np.linalg.matrix_rank(a.astype(float))
        assert rank_mod_p(a, 10007) == expected


def test_rank_mod_two_differs_when_torsion_like():
    a = [[2]]
    assert rank_mod_p(a, 2) == 0
    assert rank_mod_p(a, 3) == 1


def test_shell_arm_betti(shell_arm):
    for field in (F2, F3, F5):
        assert betti_of_complex(shell_arm, 0, field) == 1
        assert betti_of_complex(shell_arm, 1, field) == 1


def test_sphere_betti(octahedron):
    for field in (F2, F3, F5):
        assert betti_numbers(octahedron, 2, field) == (1, 0, 1)


def test_torus_betti(torus7):
    for field in (F2, F3, F5):
        assert betti_numbers(torus7, 2, field) == (1, 2, 1)


def test_filled_triangle_has_no_hole():
    filled = face_closure([Simplex((0, 1, 2))])
    assert homology_basis(filled, 1, F2) == []
    assert betti_of_complex(filled, 1, F2) == 0


def test_two_points_have_two_components():
    pts = {Simplex((0,)), Simplex((1,))}
    basis = homology_basis(pts, 0, F2)
    assert len(basis) == 2
    assert betti_of_complex(pts, 0, F2) == 2


def test_homology_basis_counts_match_betti(shell_arm, octahedron, torus7):
    for cx in (shell_arm, octahedron, torus7):
        for field in (F2, F3, F5):
            for k in (0, 1, 2):
                basis = homology_basis(cx, k, field)
                assert len(basis) == betti_of_complex(cx, k, field)
                for z in basis:
                    assert boundary_chain(z, field).is_zero


def test_shell_arm_generator_is_the_arm_loop(shell_arm):
    for field in (F2, F3, F5):
        basis = homology_basis(shell_arm, 1, field)
        assert len(basis) == 1
        reducer = CosetReducer(shell_arm, 1, field)
        rep = reducer.representative(basis[0])
        assert not rep.is_zero
        assert rep == reducer.representative(arm_cycle(field))


def test_basis_rejects_non_closed_input():
    with pytest.raises(ValueError, match="face-closed"):
        homology_basis({Simplex((0, 1))}, 1, F2)
    with pytest.raises(ValueError, match="face-closed"):
        CosetReducer({Simplex((0, 1))}, 1, F2)


def test_coset_vertex_classes_merge(shell_arm):
    reducer = CosetReducer(shell_arm, 0, F5)
    c3 = Chain(0, {Simplex((3,)): 1})
    c4 = Chain(0, {Simplex((4,)): 1})
    assert reducer.same_class(c3, c4)


def test_coset_representative_absorbs_boundaries(shell_arm):
    rng = random.Random(31)
    reducer = CosetReducer(shell_arm, 1, F5)
    z = arm_cycle(F5)
    triangles = sorted(s for s in shell_arm if s.dim == 2)
    for _ in range(20):
        w = Chain.from_items(
            [
                (t, rng.randint(0, 4))
                for t in triangles
                if rng.random() < 0.8
            ],
            F5,
            dim=2,
        )
        shifted = chain_add(z, boundary_chain(w, F5), F5)
        assert reducer.representative(shifted) == reducer.representative(z)


def test_coset_rejects_non_cycles(shell_arm):
    reducer = CosetReducer(shell_arm, 1, F5)
    not_cycle = Chain(1, {Simplex((0, 1)): 1})
    with pytest.raises(ValueError, match="cycle"):
        reducer.representative(not_cycle)


def test_arm_cycle_not_a_boundary(shell_arm):
    reducer = CosetReducer(shell_arm, 1, F2)
    assert not reducer.is_boundary(arm_cycle(F2))
    # triangle boundaries are boundaries
    from oracle import boundary_simplex

    tri = boundary_simplex(Simplex((0, 1, 2)), F2)
    assert reducer.is_boundary(tri)


def test_betti_independent_of_field_on_fixture_complexes(shell_arm, octahedron, torus7):
    for cx in (shell_arm, octahedron, torus7):
        reference = betti_numbers(cx, 2, F2)
        for field in (F3, F5):
            assert betti_numbers(cx, 2, field) == reference


def test_oracle_imports_only_the_homology_route():
    # the oracle checks reduction, filtrations and clustering, so it may
    # share none of their code
    tree = ast.parse((pathlib.Path(__file__).parent / "oracle.py").read_text())
    allowed = {"wordhom.chains", "wordhom.simplices", "wordhom.fields"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    package = {name for name in imported if name.split(".")[0] in ("wordhom", "")}
    assert package and package <= allowed, sorted(package - allowed)
