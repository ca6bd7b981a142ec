import numpy as np
import pytest
import scipy.sparse as sp

from conicproj import AffineMap, BlockPoint, ConeSpec

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_cone(r, max_psd=6, max_soc=5, max_nonneg=4):
    psd = tuple(int(d) for d in r.integers(1, max_psd + 1, size=r.integers(0, 3)))
    soc = tuple(int(d) for d in r.integers(1, max_soc + 1, size=r.integers(0, 3)))
    nonneg = int(r.integers(0, max_nonneg + 1))
    if not psd and not soc and nonneg == 0:
        psd = (int(r.integers(1, max_psd + 1)),)
    return ConeSpec(psd_dims=psd, soc_dims=soc, nonneg=nonneg)


def random_point(r, cone, scale=1.0):
    blocks = []
    for kind, d, _ in cone.blocks:
        if kind == "psd":
            g = r.standard_normal((d, d)) * scale
            blocks.append((g + g.T) / 2.0)
        else:
            blocks.append(r.standard_normal(d) * scale)
    return BlockPoint(cone, blocks)


def random_affine(r, cone, m, feasible=True):
    """Random symmetric-row affine map; when feasible, b = A x0 for a cone
    point x0 so the intersection is nonempty."""
    from conicproj import project_cone

    rows = np.stack([random_point(r, cone).ravel() for _ in range(m)])
    amap_probe = sp.csr_matrix(rows)
    if feasible:
        x0 = project_cone(cone, random_point(r, cone))
        b = amap_probe @ x0.ravel()
    else:
        b = r.standard_normal(m)
    return AffineMap(cone, amap_probe, b)


def fixture_path(name):
    return f"{FIXTURES}/{name}"


def fixture_text(name):
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


def independence_number(graph) -> int:
    """Brute-force stable number (n <= ~16)."""
    import itertools

    n = graph.num_vertices
    edges = graph.edges
    best = 0
    for mask in range(1 << n):
        verts = [i for i in range(n) if mask >> i & 1]
        if len(verts) <= best:
            continue
        if all(
            (min(a, b), max(a, b)) not in edges
            for a, b in itertools.combinations(verts, 2)
        ):
            best = len(verts)
    return best


def chromatic_number(graph) -> int:
    """Brute-force chromatic number by backtracking (n <= ~16)."""
    n = graph.num_vertices
    adj = [set() for _ in range(n)]
    for i, j in graph.edges:
        adj[i].add(j)
        adj[j].add(i)

    def colorable(k):
        colors = [-1] * n

        def assign(v):
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in adj[v]):
                    colors[v] = c
                    if assign(v + 1):
                        return True
                    colors[v] = -1
            return False

        return assign(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def complement_graph(graph):
    from conicproj import Graph

    n = graph.num_vertices
    return Graph(
        n,
        frozenset(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in graph.edges
        ),
    )


def gnp_theta(n, p, seed):
    """The Lovász theta problem of a G(n, p) graph drawn from ``seed``; its
    one PSD block has order n."""
    from conicproj import Graph, build_theta

    iu = np.triu_indices(n, 1)
    keep = rng(seed).uniform(size=iu[0].size) < p
    edges = zip(iu[0][keep].tolist(), iu[1][keep].tolist())
    return build_theta(Graph(n, frozenset(edges)))
