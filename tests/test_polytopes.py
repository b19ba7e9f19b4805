from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    UP_TO_14,
    dependency_roots_by_sorting,
    face_adjacency,
    gluings,
    polytope_edges,
    three_color_by_adjacency,
    validate_by_sorted_edges,
)
from galehull import IncidenceSystem, catalog, hamiltonian_cycle, three_color, validate
from galehull.errors import (
    BadEdge,
    BadParameters,
    DegenerateFace,
    Disconnected,
    EulerViolation,
    GalehullError,
    NotCubic,
    NotThreeColorable,
    OddPrism,
    TooLarge,
    UnknownName,
)
from galehull.polytopes import _prism_faces, coloring_from_assignment
from instances import INSTANCE_BUILDERS, two_cubes_polytope

TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

# K(3,3) drawn on the torus: three hexagonal faces, every vertex cubic,
# V - E + F = 0. Glued (disjointly) to a sphere map it fools Euler's
# formula read globally, but not connectivity.
K33_TORUS = [
    [0, 1, 2, 3, 4, 5],
    [0, 3, 2, 5, 4, 1],
    [0, 5, 2, 1, 4, 3],
]


def test_validate_cube(cube):
    assert cube.n == 4
    assert cube.fvector == (8, 12, 6)
    assert len(polytope_edges(cube)) == 12
    assert all(len(owners) == 3 for owners in cube.vertex_faces)


def test_validate_tetrahedron_passes_then_coloring_fails():
    p = validate(TETRAHEDRON)
    assert p.n == 2
    assert p.fvector == (4, 6, 4)
    with pytest.raises(NotThreeColorable):
        three_color(p)


def test_validate_truncated_face_is_bad_edge(cube):
    raw = [list(f) for f in cube.faces]
    raw[0] = raw[0][:3]
    with pytest.raises(BadEdge):
        validate(raw)


def test_validate_vertex_id_gap_is_not_cubic(cube):
    raw = [[v + 1 for v in f] for f in cube.faces]  # id 0 unused
    with pytest.raises(NotCubic):
        validate(raw)
    raw = [list(f) for f in cube.faces]
    raw[0][0] = 10**12  # refused before a table of that size is built
    with pytest.raises(NotCubic):
        validate(raw)


def test_validate_degenerate_faces():
    with pytest.raises(DegenerateFace):
        validate([])
    with pytest.raises(DegenerateFace):
        validate([[0, 1], [0, 1], [0, 1]])
    with pytest.raises(DegenerateFace):
        validate([[0, 1, 1, 2]])


def test_validate_euler_violation():
    # two disjoint tetrahedra: every local condition holds, V-E+F = 4
    second = [[v + 4 for v in f] for f in TETRAHEDRON]
    with pytest.raises(EulerViolation):
        validate(TETRAHEDRON + second)


def test_validate_disconnected():
    # tetrahedron plus a torus map: V-E+F = 2 + 0, all vertices cubic,
    # all edges on two faces -- only connectivity can reject it
    torus = [[v + 4 for v in f] for f in K33_TORUS]
    with pytest.raises(Disconnected):
        validate(TETRAHEDRON + torus)


def test_three_color_cube_opposite_pairs(cube):
    c = three_color(cube)
    assert c.class_sizes == (2, 2, 2)
    classes = {frozenset(c.class_members(i)) for i in range(3)}
    # prism(4) face order: top, bottom, then four sides in belt order
    assert classes == {frozenset({0, 1}), frozenset({2, 4}), frozenset({3, 5})}
    assert c.essential_colorings == 1


def test_three_color_hexagonal_prism(prism6):
    c = three_color(prism6)
    assert c.class_sizes == (2, 3, 3)
    assert frozenset(c.class_members(0)) == frozenset({0, 1})  # the hexagons
    belts = {frozenset(c.class_members(1)), frozenset(c.class_members(2))}
    assert belts == {frozenset({2, 4, 6}), frozenset({3, 5, 7})}


def test_three_color_deterministic(prism8):
    assert three_color(prism8).colors == three_color(prism8).colors


def test_three_color_class_sums_are_all_ones(prism6, prism6_analysis):
    s = prism6_analysis.system
    V = prism6.num_vertices
    for slot in range(3):
        members = s.class_indices(slot)
        for v in range(V):
            assert sum(s.vectors[i][v] for i in members) == 1


def _backtracking_colors(p):
    """Lexicographically first proper face coloring with face 0 fixed to 1,
    by plain backtracking: the reference the propagation must reproduce."""
    colors = [0] * len(p.faces)
    adjacency = face_adjacency(p)

    def extend(idx):
        if idx == len(colors):
            return True
        for c in (1,) if idx == 0 else (1, 2, 3):
            if all(colors[j] != c for j in adjacency[idx] if j < idx):
                colors[idx] = c
                if extend(idx + 1):
                    return True
        colors[idx] = 0
        return False

    return tuple(colors) if extend(0) else None


def test_propagation_equals_backtracking_colors(cube, prism6, prism8, trunc_oct):
    rng = random.Random(7)
    polytopes = [cube, prism6, prism8, trunc_oct, catalog("prism", 12)]
    polytopes += [build() for build in INSTANCE_BUILDERS]
    for p in polytopes:
        variants = [p]
        for _ in range(3):
            labels = list(range(p.num_vertices))
            rng.shuffle(labels)
            faces = [[labels[v] for v in f] for f in p.faces]
            rng.shuffle(faces)
            variants.append(validate(faces))
        for q in variants:
            c = three_color(q)
            assert c.colors == _backtracking_colors(q)
            assert c.essential_colorings == 1


def test_catalog_prism6_fvector(prism6):
    assert prism6.fvector == (12, 18, 8)


def test_catalog_cube_is_prism4(cube):
    assert cube.faces == catalog("prism", 4).faces


def test_catalog_truncated_octahedron(trunc_oct):
    assert trunc_oct.fvector == (24, 36, 14)
    squares = [f for f in trunc_oct.faces if len(f) == 4]
    hexagons = [f for f in trunc_oct.faces if len(f) == 6]
    assert len(squares) == 6 and len(hexagons) == 8
    c = three_color(trunc_oct)
    assert c.class_sizes == (4, 4, 6)
    # the squares are pairwise non-adjacent and form the size-6 class
    square_idx = frozenset(i for i, f in enumerate(trunc_oct.faces) if len(f) == 4)
    assert frozenset(c.class_members(2)) == square_idx


def test_catalog_errors():
    with pytest.raises(OddPrism):
        catalog("prism", 5)
    with pytest.raises(BadParameters):
        catalog("prism", 2)
    with pytest.raises(BadParameters):
        catalog("prism")
    with pytest.raises(BadParameters):
        catalog("cube", 4)
    with pytest.raises(UnknownName):
        catalog("dodecahedron")


def _assert_hamiltonian(p, cycle):
    assert cycle is not None
    assert len(cycle) == p.num_vertices
    assert len(set(cycle)) == p.num_vertices
    edges = polytope_edges(p)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert frozenset((a, b)) in edges


def test_hamiltonian_cycles_on_catalog(cube, prism6, prism8, trunc_oct):
    for p, length in ((cube, 8), (prism6, 12), (prism8, 16), (trunc_oct, 24)):
        cycle = hamiltonian_cycle(p)
        _assert_hamiltonian(p, cycle)
        assert len(cycle) == length


def test_hamiltonian_cap():
    with pytest.raises(TooLarge):
        hamiltonian_cycle(catalog("prism", 16))  # 32 vertices


# --- the front end against the reference it replaced ------------------------

def _outcome(f, *args):
    """What f(*args) returns, or the class and message of the error it raises."""
    try:
        return f(*args), None
    except GalehullError as exc:
        return None, (type(exc), str(exc))


def _bases():
    """Face lists to mutate: the catalog, the hand-glued instances, maps that
    pass validation but have no proper coloring, and a disconnected one."""
    maps = [catalog("cube"), catalog("prism", 6), catalog("prism", 8),
            catalog("truncated-octahedron"), catalog("prism", 12), two_cubes_polytope()]
    maps += [build() for build in INSTANCE_BUILDERS]
    bases = [[list(f) for f in p.faces] for p in maps]
    bases += [_prism_faces(5), _prism_faces(7), TETRAHEDRON]
    bases += [TETRAHEDRON + [[v + 4 for v in f] for f in K33_TORUS]]
    return bases


BASES = _bases()
BAD_IDS = (True, False, -1, -7, 1.0, "3", None, [0], 10**12)
BAD_FACES = (5, "abc", None, (), [0, 1], {"a": 1})


@st.composite
def mutated_face_lists(draw):
    """A catalog or glued face list with up to three mutations: dropped,
    duplicated, merged, reversed, truncated or relabelled faces, shuffled
    faces, and bad vertex ids or faces."""
    faces = draw(st.one_of(
        st.sampled_from(BASES), gluings(UP_TO_14).map(lambda inst: inst.faces)
    ))
    faces = [list(f) for f in faces]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from((
            "drop", "duplicate", "merge", "reverse", "truncate", "relabel",
            "rename", "shuffle", "bad id", "repeat id", "bad face", "tuple face",
        )))
        if not faces:
            break
        i = draw(st.integers(0, len(faces) - 1))
        j = draw(st.integers(0, len(faces) - 1))
        face = faces[i]
        k = draw(st.integers(0, len(face) - 1)) if isinstance(face, list) and face else None
        if kind == "drop":
            del faces[i]
        elif kind == "duplicate":
            faces.insert(j, face)
        elif kind == "merge" and i != j and isinstance(face, list) and isinstance(faces[j], list):
            faces[i] = face + faces[j]
            del faces[j]
        elif kind == "reverse" and isinstance(face, list):
            faces[i] = face[::-1]
        elif kind == "truncate" and isinstance(face, list):
            faces[i] = face[:-1]
        elif kind == "relabel":
            ids = sorted({v for f in faces if isinstance(f, list) for v in f if type(v) is int})
            perm = dict(zip(ids, draw(st.permutations(ids))))
            faces = [[perm.get(v, v) for v in f] if isinstance(f, list) else f for f in faces]
        elif kind == "rename" and k is not None:
            faces[i] = face[:k] + [draw(st.integers(0, 2 * len(faces)))] + face[k + 1:]
        elif kind == "shuffle":
            faces = draw(st.permutations(faces))
        elif kind == "bad id" and k is not None:
            faces[i] = face[:k] + [draw(st.sampled_from(BAD_IDS))] + face[k + 1:]
        elif kind == "repeat id" and k:
            faces[i] = face[:k] + [face[k - 1]] + face[k + 1:]
        elif kind == "bad face":
            faces[i] = draw(st.sampled_from(BAD_FACES))
        elif kind == "tuple face" and isinstance(face, list):
            faces[i] = tuple(face)
    return faces


def _require_reference_front_end(raw, assignment=None):
    """validate, three_color and dependency_roots equal their references on
    raw: the same polytope, coloring and roots, or the same error class and
    message. An assignment of colors also checks the roots of that coloring,
    proper or not."""
    p, error = _outcome(validate, raw)
    ref, ref_error = _outcome(validate_by_sorted_edges, raw)
    assert error == ref_error
    if error:
        return error
    fields = ("faces", "n", "num_vertices", "vertex_faces", "skeleton")
    assert [getattr(p, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert (face_adjacency(p), polytope_edges(p)) == (ref.adjacency, ref.edges)
    colorings = [_outcome(three_color, p)]
    assert colorings[0] == _outcome(three_color_by_adjacency, ref)
    if assignment is not None:
        colorings.append((coloring_from_assignment(assignment[:len(p.faces)]), None))
    for coloring, _ in colorings:
        if coloring is not None:
            s = IncidenceSystem(p, coloring)
            roots = _outcome(lambda: s.dependency_roots)
            assert roots == _outcome(dependency_roots_by_sorting, IncidenceSystem(p, coloring))
    return colorings[0][1]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_face_lists(), st.lists(st.integers(1, 3), min_size=80, max_size=80))
@example([[0, 1, 2], [0, 2, 1]], [1] * 80)
@example({"faces": []}, [1] * 80)
@example(TETRAHEDRON + [[v + 4 for v in f] for f in K33_TORUS], [1] * 80)    # Disconnected
@example(TETRAHEDRON + [[v + 4 for v in f] for f in TETRAHEDRON], [1] * 80)  # EulerViolation
@example([[v + 1 for v in f] for f in _prism_faces(4)], [1] * 80)             # NotCubic
def test_front_end_equals_the_reference(raw, assignment):
    _require_reference_front_end(raw, assignment)


def test_the_first_bad_edge_in_uv_order_is_named():
    """The cube without its bottom face has four edges on one face each.
    With the side through (4,7) listed first, its bad edge is counted
    first, but (4,5) comes first in (u, v) order and is the one named."""
    faces = [list(f) for f in catalog("cube").faces]
    del faces[1]
    faces.insert(0, faces.pop())
    assert faces[0] == [3, 0, 4, 7]
    error = _require_reference_front_end(faces)
    assert error == (BadEdge, "edge (4,5) lies in faces [2], expected exactly 2")


def test_a_face_listed_twice_is_named_with_all_its_owners():
    faces = _prism_faces(996)
    faces.append(faces[2])
    error = _require_reference_front_end(faces)
    assert error == (BadEdge, "edge (0,1) lies in faces [0, 2, 998], expected exactly 2")

