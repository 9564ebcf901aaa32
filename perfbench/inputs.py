"""Seeded input generators: lattice tori and a sliver flat torus.

A generator builds a metric as two arrays: ``faces`` (F, 3) oriented
vertex triples and ``side`` (F, 3), where ``side[f, s]`` is the length of
the edge from ``faces[f, s]`` to ``faces[f, (s + 1) % 3]``.  ``relabel``
turns such a metric into an isomorphic copy under a seeded vertex
numbering, face order and corner rotation, and ``document`` writes the
per-face lengths-JSON format of the plcurv README.  One seed always gives
byte-identical files.  Nothing here imports plcurv.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# Relative slack a drawn face must clear in its strict triangle
# inequality; a draw closer to degenerate than this is redrawn.  Sliver
# faces clear it by about 0.5 %, so it must stay far below that.
DEGENERACY_SLACK = 1e-9


def lattice_faces(m: int) -> np.ndarray:
    """Oriented faces of the m x m triangular-lattice torus.

    Cell (r, c) has corners P=(r,c), Q=(r,c+1), R=(r+1,c+1), S=(r+1,c),
    indices taken mod m, and is split along Q-S into (P,Q,S) and (Q,R,S).
    V = m*m, E = 3V, F = 2V.
    """
    r, c = np.divmod(np.arange(m * m), m)

    def v(rr, cc):
        return m * (rr % m) + (cc % m)

    p, q, rr, s = v(r, c), v(r, c + 1), v(r + 1, c + 1), v(r + 1, c)
    faces = np.empty((2 * m * m, 3), dtype=np.int64)
    faces[0::2] = np.stack([p, q, s], axis=1)
    faces[1::2] = np.stack([q, rr, s], axis=1)
    return faces


def _slot_edges(faces: np.ndarray) -> tuple[np.ndarray, int]:
    """Undirected edge id of every (face, slot) half-edge."""
    a = faces
    b = np.roll(faces, -1, axis=1)
    key = np.minimum(a, b) * (faces.max() + 1) + np.maximum(a, b)
    _, ids = np.unique(key, return_inverse=True)
    ids = ids.reshape(faces.shape)
    return ids, int(ids.max()) + 1


def _degenerate(side: np.ndarray) -> np.ndarray:
    """Faces (rows of side lengths) within DEGENERACY_SLACK of degenerate."""
    longest = side.max(axis=1)
    return longest >= (side.sum(axis=1) - longest) * (1.0 - DEGENERACY_SLACK)


def random_lattice_torus(m: int, amplitude: float, rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray]:
    """m x m lattice torus, every edge length exp(U(-amplitude, amplitude)).

    A draw that leaves some face degenerate is discarded whole and the
    next draw from the same stream is taken, so the result is still a
    function of the stream alone.
    """
    faces = lattice_faces(m)
    edge, n_edges = _slot_edges(faces)
    while True:
        length = np.exp(rng.uniform(-amplitude, amplitude, size=n_edges))
        side = length[edge]
        if not _degenerate(side).any():
            return faces, side


def sliver_flat_torus(m: int, a, b, jitter: float, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Flat m x m torus on the lattice spanned by ``a`` and ``b``.

    Vertex (r, c) sits at c*a + r*b plus a jitter drawn uniformly from
    the disc of radius ``jitter``; the torus periods are m*a and m*b, and
    each edge length is the distance between its endpoints in the
    covering plane.  A thin lattice cell makes every face a sliver, so
    ``delaunay --fix`` has to flip most edges.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    faces = lattice_faces(m)
    cell = np.arange(m * m)
    r, c = np.divmod(cell, m)
    # unreduced lattice coordinates (row, col) of each face's corners
    rows = np.empty((2 * m * m, 3), dtype=np.int64)
    cols = np.empty_like(rows)
    rows[0::2] = np.stack([r, r, r + 1], axis=1)
    cols[0::2] = np.stack([c, c + 1, c], axis=1)
    rows[1::2] = np.stack([r, r + 1, r + 1], axis=1)
    cols[1::2] = np.stack([c + 1, c + 1, c], axis=1)
    while True:
        radius = jitter * np.sqrt(rng.uniform(0.0, 1.0, size=m * m))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=m * m)
        offset = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        pts = cols[..., None] * a + rows[..., None] * b + offset[faces]
        side = np.linalg.norm(np.roll(pts, -1, axis=1) - pts, axis=2)
        if not _degenerate(side).any():
            return faces, side


def relabel(faces: np.ndarray, side: np.ndarray, rng: np.random.Generator
            ) -> tuple[np.ndarray, np.ndarray]:
    """Isomorphic copy: random vertex numbers, face order and corner rotation.

    The surface, its metric and therefore every quantity plcurv computes
    are unchanged up to the renaming; only the ids, and with them the
    order in which the program visits edges and faces, differ.
    """
    n = int(faces.max()) + 1
    perm = rng.permutation(n)
    order = rng.permutation(len(faces))
    shift = rng.integers(0, 3, size=len(faces))
    slot = (np.arange(3)[None, :] + shift[:, None]) % 3
    rows = np.arange(len(faces))[:, None]
    return perm[faces][rows, slot][order], side[rows, slot][order]


def document(faces: np.ndarray, side: np.ndarray) -> dict:
    """Lengths-JSON document: the slot-s edge of face f is opposite f[s+2]."""
    records = []
    for f, (tri, lens) in enumerate(zip(faces.tolist(), side.tolist())):
        for s in range(3):
            records.append({"face": f, "opposite": tri[(s + 2) % 3],
                            "length": lens[s]})
    return {"vertices": int(faces.max()) + 1, "faces": faces.tolist(),
            "lengths": records}


def document_bytes(doc: dict) -> bytes:
    """Canonical file bytes of a document (floats printed by repr)."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
