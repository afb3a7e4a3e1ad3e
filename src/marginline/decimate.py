"""Quadric-error-metric edge-collapse decimation.

Boundary loops are preserved by constraining boundary vertices (they can
only absorb interior neighbors, or collapse along boundary edges into
another boundary vertex) and by adding perpendicular boundary-plane
penalty quadrics. Topology is guarded by the link condition, so the
number of boundary loops and the genus never change.

The work runs in passes over numpy arrays. Each pass ranks every live
edge (quadric cost, optimal position, stable cost order), then
takes the greedy vertex-disjoint matching of collapses in that order: the
cheapest edge first, skipping any edge that touches a vertex already
taken. The whole batch is checked together, each collapse against the
mesh as the cheaper collapses of its batch leave it: the link condition
(common-neighbour count equals the number of third vertices of the shared
faces), no surviving face may flip, and afterwards no edge may carry more
than two faces. A collapse that fails is dropped and the rest checked
again; edges its vertices blocked get a further matching in the same
pass. The face budget is met by cutting the batch to its cheapest prefix.
When no check fails, a pass collapses exactly the edges that a
one-collapse-at-a-time loop over the same ranking would. Edges are
costed, and collapses checked, in fixed-size blocks, so the temporaries
of both steps do not grow with the mesh; the blocks change no result.
"""

from __future__ import annotations

import warnings

import numpy as np

from .mesh import TriangleMesh, compact_mesh, edge_codes, repeated_vertex

_BOUNDARY_WEIGHT = 1000.0
_RANK_BLOCK = 1 << 13  # edges costed per vectorized block
_CHECK_BLOCK = 1 << 9  # collapses checked per vectorized block

# packed symmetric 4x4 quadric layout:
# [xx, xy, xz, xd, yy, yz, yd, zz, zd, dd]
_PACK = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
         (2, 2), (2, 3), (3, 3)]


def _plane_quadrics(planes, weights):
    """(n, 10) packed quadrics for (n, 4) plane equations."""
    p = planes.T
    return np.stack([p[i] * p[j] * weights for i, j in _PACK], axis=1)


def _edge_table(faces, nv):
    """Sorted unique edge codes and the number of faces on each."""
    return np.unique(edge_codes(faces, nv), return_counts=True)


def _initial_state(mesh: TriangleMesh):
    """Edge table, vertex quadrics and boundary flags of the input mesh.

    Raises TopologyError on an edge shared by more than two faces."""
    nv = mesh.n_vertices
    adjacency = mesh.adjacency()
    codes = adjacency.edge_vertices[:, 0] * nv + adjacency.edge_vertices[:, 1]
    counts = np.where(adjacency.edge_faces[:, 1] >= 0, 2, 1)
    bedges, bfaces = adjacency.boundary_edges()

    normals, areas = mesh.face_normals, mesh.face_areas
    d = -np.einsum("ij,ij->i", normals, mesh.vertices[mesh.faces[:, 0]])
    plane = (*normals.T, d)
    corners = mesh.faces.T.ravel()
    quadrics = np.empty((nv, 10))
    # one packed column at a time, summed per vertex in corner order (as
    # np.add.at would)
    for j, (a, b) in enumerate(_PACK):
        weights = np.tile(plane[a] * plane[b] * areas, 3)
        quadrics[:, j] = np.bincount(corners, weights, minlength=nv)
    boundary = np.zeros(nv, dtype=bool)
    if len(bedges):
        boundary[bedges.ravel()] = True
        # planes containing each boundary edge, perpendicular to its face
        edge = mesh.vertices[bedges[:, 1]] - mesh.vertices[bedges[:, 0]]
        perp = np.cross(edge, normals[bfaces])
        norm = np.linalg.norm(perp, axis=1)
        ok = norm > 1e-30
        perp = perp[ok] / norm[ok][:, None]
        anchor = mesh.vertices[bedges[ok, 0]]
        d = -np.einsum("ij,ij->i", perp, anchor)
        w = _BOUNDARY_WEIGHT * np.sum(edge[ok] ** 2, axis=1)
        packed = _plane_quadrics(np.concatenate([perp, d[:, None]], axis=1), w)
        for k in range(2):
            np.add.at(quadrics, bedges[ok, k], packed)
    return codes, counts, quadrics, boundary


def _quadric_cost(q, x, y, z):
    """v^T Q v at points (x, y, z) for (10, n) packed quadrics."""
    return (
        q[0] * x * x + 2 * q[1] * x * y + 2 * q[2] * x * z
        + 2 * q[3] * x + q[4] * y * y + 2 * q[5] * y * z
        + 2 * q[6] * y + q[7] * z * z + 2 * q[8] * z + q[9]
    )


def _rank_edges(codes, counts, points, quadrics, boundary):
    """Cheapest collapse target per live edge, cheapest first.

    codes/counts is the sorted edge table. Returns (u, v, position,
    face count) arrays in stable cost order; edges joining two boundary
    vertices through the interior are dropped. Costs and positions are
    worked out _RANK_BLOCK edges at a time, so the temporaries stay the
    same size on any mesh."""
    nv = len(points)
    u, v = codes // nv, codes % nv
    cost = np.empty(len(u))
    pos = np.empty((len(u), 3))
    keep = np.ones(len(u), dtype=bool)
    for lo in range(0, len(u), _RANK_BLOCK):
        s = slice(lo, lo + _RANK_BLOCK)
        _collapse_targets(
            u[s], v[s], counts[s], points, quadrics, boundary,
            cost[s], pos[s], keep[s],
        )
    keep = np.flatnonzero(keep)
    order = keep[np.argsort(cost[keep], kind="stable")]
    return u[order], v[order], pos[order], counts[order]


def _collapse_targets(
    u, v, counts, points, quadrics, boundary, cost, pos, keep
):
    """Write into cost and pos the cost and position of the cheapest
    collapse of each edge (u, v) with `counts` faces; clear keep for two
    boundary ends joined through the interior. Writing into the caller's
    arrays keeps a block's results from being allocated twice."""
    qt = quadrics.T
    q = qt[:, u] + qt[:, v]
    a, b, c = q[0], q[1], q[2]
    d, e, f = q[4], q[5], q[7]
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    scale = np.maximum.reduce([np.abs(a), np.abs(d), np.abs(f)])
    solvable = np.abs(det) >= 1e-9 * np.maximum(scale, 1e-30) ** 3
    safe_det = np.where(solvable, det, 1.0)
    rx, ry, rz = -q[3], -q[6], -q[8]
    ix = (d * f - e * e) / safe_det
    iy = (c * e - b * f) / safe_det
    iz = (b * e - c * d) / safe_det
    jy = (a * f - c * c) / safe_det
    jz = (b * c - a * e) / safe_det
    kz = (a * d - b * b) / safe_det
    opt = (
        ix * rx + iy * ry + iz * rz,
        iy * rx + jy * ry + jz * rz,
        iz * rx + jz * ry + kz * rz,
    )
    cost[:] = _quadric_cost(q, *opt)
    for k, x in enumerate(opt):
        pos[:, k] = x
    bu, bv = boundary[u], boundary[v]
    fix = np.flatnonzero(bu | bv | ~solvable)
    if len(fix):
        # singular quadric: best of mid/endpoints; a boundary endpoint is
        # kept in place, and of two boundary endpoints the cheaper is kept
        pu, pv = points[u[fix]].T, points[v[fix]].T
        cands = np.stack([0.5 * (pu + pv), pu, pv])
        qf = q[:, fix]
        costs = np.stack([_quadric_cost(qf, *p) for p in cands])
        bu, bv = bu[fix], bv[fix]
        pick = costs.argmin(axis=0)
        pick[bu & ~bv] = 1
        pick[bv & ~bu] = 2
        both = bu & bv
        pick[both] = 1 + costs[1:, both].argmin(axis=0)
        cols = np.arange(len(fix))
        cost[fix] = costs[pick, cols]
        pos[fix] = cands[pick, :, cols]
        both = fix[both]
        keep[both[counts[both] != 1]] = False  # two boundary ends, interior edge


def _greedy_matching(u, v, nv):
    """Indices of the edges, in order, whose endpoints no earlier picked
    edge touches."""
    used = bytearray(nv)
    picked = []
    for lo in range(0, len(u), _RANK_BLOCK):  # Python ints for one block
        s = slice(lo, lo + _RANK_BLOCK)
        for i, (a, b) in enumerate(zip(u[s].tolist(), v[s].tolist()), lo):
            if not (used[a] or used[b]):
                used[a] = used[b] = 1
                picked.append(i)
    return np.asarray(picked, dtype=np.int64)


def _distinct(x):
    """Sorted distinct values of an int array."""
    x = np.sort(x)
    first = np.ones(len(x), dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return x[first]


def _normals(coords, tri):
    """Unnormalised normals of (n, 3) triangles over (3, V) coordinates."""
    (ax, bx, cx), (ay, by, cy), (az, bz, cz) = (
        [axis[tri[:, k]] for k in range(3)] for axis in coords
    )
    return (
        (by - ay) * (cz - az) - (bz - az) * (cy - ay),
        (bz - az) * (cx - ax) - (bx - ax) * (cz - az),
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
    )


def _check_block(F, corners, midx, img, coords, u, v, lo, hi):
    """Link and flip checks of collapses lo..hi-1 of a batch (see
    _Decimator._check): F the live faces, corners the batch index of
    each face corner's vertex, midx/img each vertex's batch index and
    image, coords the (3, V + b) positions before and after."""
    nv, b = len(img), len(u)
    # one row per (collapse, face around u or v)
    sel = np.flatnonzero((corners >= lo) & (corners < hi))
    rs = corners[sel]
    tri = F[sel // 3]
    on_v = F.ravel()[sel] == v[rs]
    mt = midx[tri]
    rd = np.full(len(sel), b)  # step at which the face collapses away
    for i, j in ((0, 1), (1, 2), (0, 2)):
        rd = np.where(mt[:, i] == mt[:, j], np.minimum(rd, mt[:, i]), rd)
    alive = rd >= rs
    moved = mt < rs[:, None]
    hit = (tri == u[rs][:, None]) | (tri == v[rs][:, None])

    # link condition: |N(u) & N(v)| == distinct third vertices of the
    # shared faces, neighbours renamed by the earlier collapses
    key = (rs - lo)[:, None] * nv + np.where(moved, img[tri], tri)
    other = alive[:, None] & ~hit
    sides = _distinct((2 * key + on_v[:, None])[other]) // 2
    common = sides[1:][sides[1:] == sides[:-1]]
    shared = (rd == rs) & ~on_v
    third = _distinct(key[shared][other[shared]])
    n_shared = np.bincount(rs[shared] - lo, minlength=hi - lo)
    ok = (
        (n_shared >= 1)
        & (n_shared <= 2)
        & (np.bincount(common // nv, minlength=hi - lo)
           == np.bincount(third // nv, minlength=hi - lo))
    )

    # flip test on every surviving face around u and v: corner ids
    # index coords, nv + k for a vertex that collapse k moved
    keep = rd > rs
    tri, mt, hit, rs = tri[keep], mt[keep], hit[keep], rs[keep]
    cur = np.where(mt < rs[:, None], nv + mt, tri)
    new = np.where(hit, nv + rs[:, None], cur)
    n0x, n0y, n0z = _normals(coords, cur)
    n1x, n1y, n1z = _normals(coords, new)
    flips = n0x * n1x + n0y * n1y + n0z * n1z <= 0
    ok[rs[flips] - lo] = False
    return ok


class _Decimator:
    """Live faces, vertex positions, quadrics and boundary flags, with the
    current edge table; collapsed in batches by run()."""

    def __init__(self, mesh: TriangleMesh):
        self.faces = mesh.faces
        self.points = mesh.vertices.copy()
        self.codes, self.counts, self.quadrics, self.boundary = _initial_state(mesh)

    @property
    def n_alive(self):
        return len(self.faces)

    def _check(self, u, v, pos, first):
        """Link and flip checks of collapses first..b-1 of the batch, each
        on the mesh that collapses 0..k-1 leave. (b,) bool; collapses
        before `first` are taken as passed. The collapses are checked
        _CHECK_BLOCK at a time; each check reads only its own rows, so the
        blocks do not change the outcome."""
        F, P = self.faces, self.points
        nv, b = len(P), len(u)
        midx = np.full(nv, b)  # batch index of each vertex, b when free
        midx[u] = np.arange(b)
        midx[v] = np.arange(b)
        img = np.arange(nv)
        img[v] = u
        corners = midx[F.ravel()]
        coords = np.concatenate([P, pos]).T.copy()
        ok = np.ones(b, dtype=bool)
        for lo in range(first, b, _CHECK_BLOCK):
            hi = min(lo + _CHECK_BLOCK, b)
            ok[lo:hi] = _check_block(
                F, corners, midx, img, coords, u, v, lo, hi
            )
        return ok

    def _collapse_batch(self, u, v, pos, dead, target_faces):
        """Check, cut to the face budget and apply one matching. Returns
        the indices of the applied collapses and a mask of those a check
        dropped."""
        nv = len(self.points)
        live = np.ones(len(u), dtype=bool)
        settled = 0  # leading collapses of idx known to pass
        while True:
            idx = np.flatnonzero(live)
            removed_before = np.cumsum(dead[idx]) - dead[idx]
            idx = idx[removed_before < self.n_alive - target_faces]
            ok = self._check(u[idx], v[idx], pos[idx], settled)
            if not ok.all():
                settled = int(np.argmin(ok))
                live[idx[~ok]] = False
                continue
            img = np.arange(nv)
            img[v[idx]] = u[idx]
            faces = img[self.faces]
            faces = faces[~repeated_vertex(faces)]
            codes, counts = _edge_table(faces, nv)
            over = codes[counts > 2]
            if len(over):
                # no edge may end up with more than two faces: drop the
                # collapses that merged into either of its ends
                midx = np.full(nv, len(idx))
                midx[u[idx]] = np.arange(len(idx))
                blame = midx[np.concatenate([over // nv, over % nv])]
                blame = blame[blame < len(idx)]
                settled = int(blame.min())
                live[idx[blame]] = False
                continue
            break
        a, b = u[idx], v[idx]
        self.faces, self.codes, self.counts = faces, codes, counts
        self.points[a] = pos[idx]
        self.quadrics[a] += self.quadrics[b]
        self.boundary[a] |= self.boundary[b]
        return idx, ~live

    def run(self, target_faces):
        """Greedy cheapest-first passes of batched collapses.

        Each pass ranks every live edge, then collapses a vertex-disjoint
        matching of them in cost order. Edges that only a rejected
        collapse blocked are matched again against the updated mesh, in
        the same pass and with the same ranking (their endpoints are
        untouched, so their cost and position still hold)."""
        nv = len(self.points)
        while self.n_alive > target_faces:
            before = self.n_alive
            u, v, pos, dead = _rank_edges(
                self.codes, self.counts, self.points, self.quadrics,
                self.boundary,
            )
            open_ = np.ones(len(u), dtype=bool)
            while self.n_alive > target_faces:
                cand = np.flatnonzero(open_)
                batch = cand[_greedy_matching(u[cand], v[cand], nv)]
                done, failed = self._collapse_batch(
                    u[batch], v[batch], pos[batch], dead[batch], target_faces
                )
                if not failed.any():
                    break
                touched = np.zeros(nv, dtype=bool)
                touched[u[batch[done]]] = True
                touched[v[batch[done]]] = True
                open_ &= ~(touched[u] | touched[v])
                open_[batch] = False
            if self.n_alive == before:
                break
        return self.n_alive


def decimate(mesh: TriangleMesh, target_faces: int) -> TriangleMesh:
    """Reduce the mesh to approximately target_faces triangles.

    Raises TopologyError on an edge shared by more than two faces."""
    if target_faces < 4:
        raise ValueError("target_faces must be at least 4")
    if target_faces >= mesh.n_faces:
        if target_faces > mesh.n_faces:
            warnings.warn(
                f"target {target_faces} above current face count "
                f"{mesh.n_faces}; returning mesh unchanged"
            )
        return mesh
    dec = _Decimator(mesh)
    reached = dec.run(target_faces)
    if reached > target_faces * 1.005:
        warnings.warn(
            f"decimation stalled at {reached} faces (target {target_faces})"
        )
    return compact_mesh(dec.points, dec.faces)
