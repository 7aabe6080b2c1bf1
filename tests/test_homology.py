from __future__ import annotations

import itertools
import math
import random
import signal

import pytest

from srdepth.complexes import SimplicialComplex, clique_complex
from srdepth.graphs import Graph, bits, mask_of
from srdepth.homology import (
    GF2,
    GF3,
    RATIONAL,
    FieldSpec,
    betti_from_sizes,
    boundary_columns,
    boundary_rank,
    rank_gf2,
    rank_sparse,
)
from srdepth.verify import construct_example

from conftest import masks_to_tuples, oracle_reduced_betti, random_graph
from helpers import from_faces, reduced_betti, restrict

C6 = construct_example("cycle", t=6)


def boundary_matrix(c: SimplicialComplex, ell: int, field: FieldSpec = GF2) -> list[list]:
    """Dense signed boundary matrix from ell-faces to (ell-1)-faces.

    Rows and columns are ordered lexicographically by face mask; for ell = 0
    the single row is the empty face (augmentation).
    """
    if c.is_void:
        raise ValueError("the void complex has no boundary matrices")
    if ell < 0:
        raise ValueError("boundary degree must be >= 0")
    grouped = c.faces_by_size()
    faces_k = grouped[ell + 1] if ell + 1 < len(grouped) else []
    faces_km1 = grouped[ell] if ell < len(grouped) else []
    p = field.characteristic
    mat = [[0] * len(faces_k) for _ in faces_km1]
    row_index = {f: i for i, f in enumerate(faces_km1)}
    for col, f in enumerate(faces_k):
        for pos, v in enumerate(bits(f)):
            sign = -1 if pos % 2 else 1
            mat[row_index[f ^ (1 << v)]][col] = sign % p if p else sign
    return mat


class TestFieldSpec:
    @pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 101, 2**31 - 1])
    def test_valid(self, p):
        assert FieldSpec(p).characteristic == p

    @pytest.mark.parametrize("p", [1, 4, 6, 9, -2, 2**61 - 1, 10**18 + 3])
    def test_invalid(self, p):
        with pytest.raises(ValueError):
            FieldSpec(p)


class TestRank:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        # a broken elimination step can cycle on one row forever
        def expire(signum, frame):
            raise TimeoutError("rank kernel did not finish within 30 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_gf2_examples(self):
        assert rank_gf2([]) == 0
        assert rank_gf2([0b11, 0b01, 0b10]) == 2
        assert rank_gf2([0b101, 0b011, 0b110]) == 2  # columns sum to zero mod 2

    def test_sparse_gf3(self):
        # [[1,1],[1,2]] is invertible mod 3
        cols = [{0: 1, 1: 1}, {0: 1, 1: 2}]
        assert rank_sparse(cols, 3) == 2
        # [[1,2],[2,4]] has rank 1 everywhere
        assert rank_sparse([{0: 1, 1: 2}, {0: 2, 1: 4}], 3) == 1

    def test_characteristic_dependence(self):
        # [[1,1],[1,-1]] has determinant -2: singular only in characteristic 2
        cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        assert rank_sparse(cols, 2) == 1
        assert rank_sparse(cols, 3) == 2
        assert rank_sparse(cols, 0) == 2

    def test_sparse_input_not_modified(self):
        cols = [{0: 1, 1: 1}, {0: 1, 1: 2}]
        snapshot = [dict(c) for c in cols]
        rank_sparse(cols, 5)
        assert cols == snapshot

    def test_random_matrices_against_oracle(self):
        import sympy
        rng = random.Random(11)
        for _ in range(25):
            rows, cols_n = rng.randint(1, 5), rng.randint(1, 5)
            dense = [[rng.randint(-2, 2) for _ in range(cols_n)] for _ in range(rows)]
            cols = [{i: dense[i][j] for i in range(rows) if dense[i][j]}
                    for j in range(cols_n)]
            assert rank_sparse(cols, 0) == sympy.Matrix(dense).rank()
            for p in (3, 5):
                assert rank_sparse(cols, p) == _rank_mod_p(dense, p)

    def test_gf3_against_oracles(self):
        # +-1/+-2 entries, all-zero columns and rows, and the empty matrix
        rng = random.Random(12)
        assert rank_sparse([], 3) == 0
        for _ in range(120):
            rows, cols_n = rng.randint(1, 9), rng.randint(1, 9)
            density = rng.choice((0.2, 0.5, 0.9))
            dense = [[rng.choice((-2, -1, 1, 2)) if rng.random() < density else 0
                      for _ in range(cols_n)] for _ in range(rows)]
            for j in rng.sample(range(cols_n), rng.randint(0, min(2, cols_n))):
                for row in dense:
                    row[j] = 0
            assert rank_sparse(_dict_columns(dense, 3), 3) == _rank_mod_p(dense, 3), dense

    def test_rational_against_oracle(self):
        import sympy
        rng = random.Random(13)
        assert rank_sparse([], 0) == 0
        for _ in range(60):
            rows, cols_n = rng.randint(1, 9), rng.randint(1, 9)
            dense = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.6 else 0
                      for _ in range(cols_n)] for _ in range(rows)]
            if rng.random() < 0.5:  # a dependent column and an all-zero one
                a, b = rng.randrange(cols_n), rng.randrange(cols_n)
                for row in dense:
                    row.append(3 * row[a] - 2 * row[b])
                    row.append(0)
            assert rank_sparse(_dict_columns(dense, 0), 0) == sympy.Matrix(dense).rank(), dense

    def test_rational_entries_stay_below_hadamard_square(self):
        # Every column reduced against pivots is made primitive, so by Cramer's
        # rule it divides a vector of minors and its entries are at most the
        # Hadamard bound H; a product or difference formed on the way stays
        # within 2 H^2.  Without the gcd step the entries grow past that.
        widest = [0]

        class Entry(int):
            def _track(self, value):
                widest[0] = max(widest[0], value.bit_length())
                return Entry(value)

            def __mul__(self, other):
                return self._track(int(self) * int(other))

            __rmul__ = __mul__

            def __sub__(self, other):
                return self._track(int(self) - int(other))

            def __rsub__(self, other):
                return self._track(int(other) - int(self))

            def __floordiv__(self, other):
                return self._track(int(self) // int(other))

        import sympy
        rng = random.Random(14)
        for size in (6, 8, 10, 12, 14):
            dense = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            cols = [{i: Entry(row[j]) for i, row in enumerate(dense) if row[j]} for j in range(size)]
            hadamard_squared = math.prod(max(sum(row[j] ** 2 for row in dense), 1) for j in range(size))
            widest[0] = 0
            assert rank_sparse(cols, 0) == sympy.Matrix(dense).rank()
            assert widest[0] <= (2 * hadamard_squared).bit_length(), (size, widest[0])

    def test_boundary_matrices_of_clique_complexes(self):
        import sympy
        rng = random.Random(15)
        for _ in range(10):
            c = clique_complex(random_graph(rng, rng.randint(4, 8), rng.choice((0.4, 0.6, 0.8))))
            by_size = c.faces_by_size()
            for field in (GF3, FieldSpec(5), RATIONAL):
                p = field.characteristic
                for k in range(1, len(by_size)):
                    dense = boundary_matrix(c, k - 1, field)
                    expected = _rank_mod_p(dense, p) if p else sympy.Matrix(dense).rank()
                    assert boundary_rank(boundary_columns(by_size[k], by_size[k - 1], p), field) == expected

    def test_boundary_columns_reduced_mod_p(self):
        faces = clique_complex(C6).faces_by_size()
        for p, minus in ((3, 2), (5, 4), (7, 6), (0, -1)):
            cols = boundary_columns(faces[2], faces[1], p)
            assert {v for col in cols for v in col.values()} == {1, minus}


def _dict_columns(dense, p):
    """{row: entry} columns of a dense matrix, keeping entries nonzero mod p."""
    return [{i: row[j] for i, row in enumerate(dense) if (row[j] % p if p else row[j])}
            for j in range(len(dense[0]))] if dense else []


def _rank_mod_p(dense, p):
    m = [row[:] for row in dense]
    rank = 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] % p), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(cols)]
        r += 1
        rank += 1
    return rank


class TestBoundaryMatrix:
    def test_edge_boundary_of_triangle(self):
        c = clique_complex(construct_example("complete", t=3))
        mat = boundary_matrix(c, 1, RATIONAL)
        # rows = vertices {0},{1},{2}; cols = edges {0,1},{0,2},{1,2}
        assert mat == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]

    def test_augmentation_row(self):
        c = clique_complex(Graph(2, (0, 0)))
        assert boundary_matrix(c, 0, RATIONAL) == [[1, 1]]

    def test_gf2_entries(self):
        c = clique_complex(construct_example("complete", t=3))
        mat = boundary_matrix(c, 1, GF2)
        assert all(v in (0, 1) for row in mat for v in row)

    def test_empty_degrees(self):
        c = clique_complex(Graph(2, (0, 0)))
        assert boundary_matrix(c, 2, RATIONAL) == []

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrix(SimplicialComplex(2, frozenset()), 0)

    def test_boundary_of_boundary_is_zero(self, small_corpus):
        for g in small_corpus[:15]:
            c = clique_complex(g)
            grouped = c.faces_by_size()
            for ell in range(1, len(grouped) - 1):
                a = boundary_matrix(c, ell, RATIONAL)
                b = boundary_matrix(c, ell + 1, RATIONAL)
                if not a or not b:
                    continue
                for i in range(len(a)):
                    for j in range(len(b[0])):
                        assert sum(a[i][k] * b[k][j] for k in range(len(b))) == 0


class TestBoundaryRank:
    def test_c6_edge_boundary_gf3(self):
        faces = clique_complex(C6).faces_by_size()
        assert boundary_rank(boundary_columns(faces[2], faces[1], 3), GF3) == 5

    def test_empty_inputs(self):
        for field in (GF2, GF3, RATIONAL):
            assert boundary_rank([], field) == 0
        assert boundary_rank([0, 0], GF2) == 0
        assert boundary_rank([{}, {}], GF3) == 0
        assert boundary_rank([{}, {}], RATIONAL) == 0
        assert rank_sparse([{}, {}], 3) == 0


class TestReducedBetti:
    def test_void(self):
        assert reduced_betti(SimplicialComplex(3, frozenset())) == {}

    def test_irrelevant(self):
        assert reduced_betti(SimplicialComplex(3, frozenset({0}))) == {-1: 1}

    def test_two_points(self):
        c = clique_complex(Graph(2, (0, 0)))
        assert reduced_betti(c) == {0: 1}

    def test_c6_circle(self):
        for field in (GF2, GF3, RATIONAL):
            assert reduced_betti(clique_complex(C6), field) == {1: 1}

    def test_octahedron_sphere(self):
        c = clique_complex(construct_example("multipartite", t=2))  # K_{2,2,2}
        assert reduced_betti(c, RATIONAL) == {2: 1}

    def test_six_vertex_projective_plane(self):
        # H_1(RP^2; Z) = Z/2: torsion shows over GF(2) only, in degrees 1 and 2
        facets = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                  (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
        c = from_faces(6, [mask_of(f) for f in facets])
        assert len(c.faces_by_size()[2]) == 15
        assert reduced_betti(c, GF2) == {1: 1, 2: 1}
        for field in (GF3, FieldSpec(5), RATIONAL):
            assert reduced_betti(c, field) == {}
        assert oracle_reduced_betti(masks_to_tuples(set(c.faces))) == {}

    def test_full_simplex_acyclic(self):
        c = clique_complex(construct_example("complete", t=4))
        assert reduced_betti(c) == {}

    def test_components_minus_one(self, small_corpus):
        for g in small_corpus:
            comps = _component_count(g)
            assert reduced_betti(clique_complex(g)).get(0, 0) == comps - 1

    def test_euler_characteristic(self, small_corpus):
        for g in small_corpus[:25]:
            c = clique_complex(g)
            grouped = c.faces_by_size()
            chi = sum((-1) ** (k - 1) * len(grouped[k]) for k in range(len(grouped)))
            b = reduced_betti(c, RATIONAL)
            alt = sum((-1) ** ell * d for ell, d in b.items())
            assert chi == alt

    def test_matches_sympy_oracle(self, small_corpus):
        rng = random.Random(3)
        for g in small_corpus[:20]:
            c = clique_complex(g)
            w = rng.randrange(1 << g.n)
            r = restrict(c, w)
            expected = oracle_reduced_betti(masks_to_tuples(set(r.faces)))
            assert reduced_betti(r, RATIONAL) == expected

    def test_window_consistency(self, small_corpus):
        for g in small_corpus[:10]:
            grouped = clique_complex(g).faces_by_size()
            for field in (GF2, GF3):
                full = betti_from_sizes(grouped, field)
                for lo, hi in ((-1, 0), (0, 1), (1, 3)):
                    window = betti_from_sizes(grouped, field, ell_lo=lo, ell_hi=hi)
                    assert window == {k: v for k, v in full.items() if lo <= k <= hi}

    def test_empty_window(self):
        grouped = clique_complex(C6).faces_by_size()
        assert betti_from_sizes(grouped, GF2, ell_lo=3, ell_hi=1) == {}


def grouped_faces(selected: set[int]) -> list[list[int]]:
    """A subcomplex's face masks by size, in the whole complex's vertex labels."""
    grouped: list[list[int]] = [[] for _ in range(max(f.bit_count() for f in selected) + 1)]
    for f in selected:
        grouped[f.bit_count()].append(f)
    return grouped


class TestGlobalColumns:
    """A subcomplex's faces, left in the whole complex's vertex labels, give its homology.

    The subcomplexes here have no torsion, so every field agrees with the
    sympy oracle over the rationals.
    """

    def test_selected_columns_match_restriction(self):
        # seeded clique complexes and non-flag complexes, random W and masks
        rng = random.Random(21)
        complexes = [clique_complex(random_graph(rng, rng.randint(3, 8), rng.choice((0.4, 0.6, 0.8))))
                     for _ in range(12)]
        for _ in range(12):
            n = rng.randint(3, 8)
            facets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))]
            complexes.append(from_faces(n, facets))
        oracle: dict[frozenset[int], dict[int, int]] = {}
        for c in complexes:
            full = (1 << c.n) - 1
            subsets = [0, 1 << rng.randrange(c.n), full] + [rng.randrange(1 << c.n) for _ in range(6)]
            for field in (GF2, GF3, RATIONAL):
                for w in subsets:
                    verts = list(bits(w))
                    mask_sets = [()]
                    if verts:
                        mask_sets += [tuple(mask_of(rng.sample(verts, rng.randint(1, min(3, len(verts)))))
                                            for _ in range(rng.randint(1, 3))) for _ in range(2)]
                    for masks in mask_sets:
                        sub = SimplicialComplex(c.n, frozenset(
                            f for f in c.faces if f & ~w == 0 and all(f & m != m for m in masks)))
                        if sub.faces not in oracle:
                            oracle[sub.faces] = oracle_reduced_betti(masks_to_tuples(set(sub.faces)))
                        got = betti_from_sizes(grouped_faces(sub.faces), field)
                        assert got == oracle[sub.faces], (c, w, masks, field)

    def test_empty_and_one_vertex_subsets(self):
        for field in (GF2, GF3, RATIONAL):
            assert betti_from_sizes(grouped_faces({0}), field) == {-1: 1}
            assert betti_from_sizes(grouped_faces({0, 1 << 4}), field) == {}


def _component_count(g: Graph) -> int:
    seen = 0
    comps = 0
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comps += 1
        stack = [v]
        seen |= 1 << v
        while stack:
            u = stack.pop()
            for w in bits(g.adj[u] & ~seen):
                seen |= 1 << w
                stack.append(w)
    return comps
