"""Did a set-up change move any bit? Print one SHA-256 per (layer, mesh, p).

    python tools/setup_digest.py [--smoke] [--out PATH] [--against FILE]

Builds each mesh of the set, its `DgSpace` at p = 0..3 and the operators
assembled on it, and hashes the dtype, shape and bytes of each layer's
arrays:
- `mesh`: the arrays of the PolyMesh (vertices, cells, edges, periods);
- `basis`: the `DgSpace` coefficients, each group's cells, quadrature
  nodes, weights and basis values, and the edge quadratures;
- `advection`: the assembled mass matrix M and advection operator L;
- `euler`: the Euler residual and Jacobian at the projected vortex (on
  the Euler meshes only).
The set is the four regular patterns on the `advect` meshes (h = 0.05) and
on the Euler vortex meshes, the periodic hexagon `advect` mesh and the
seed-0 random Delaunay/Voronoi pairs at h = 0.1, 0.05 (the mesh of
`run_random_advect`) and 0.2. `--smoke` runs the hexagon meshes and the
h = 0.2 pair at p = 0 and 1 only, in about a second.

Each output line is `layer mesh p sha256` (p is `-` for the mesh layer).
`--against FILE` compares the digests with those of a file written by an
earlier run, say of the parent commit, prints every line that differs or
has no line in FILE, and exits 1 if there is one. Lines of FILE that this
run does not compute (a smoke run against a full file) are not compared.
"""

import argparse
import contextlib
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from polydg import experiments  # noqa: E402
from polydg.basis import DEGREES, DgSpace  # noqa: E402
from polydg.discretization import (assemble_advection,  # noqa: E402
                                   rotating_velocity)
from polydg.euler import EulerDiscretization, EulerParams  # noqa: E402
from polydg.mesh import PATTERN_KINDS, build_random_mesh_pair  # noqa: E402

MESH_ARRAYS = ("vertices", "cell_ptr", "cell_idx", "cell_areas",
               "cell_centroids", "edge_left", "edge_right", "edge_vertices",
               "edge_normals", "edge_lengths", "edge_shifts", "periodic_map",
               "periods")
SMOKE_KIND, SMOKE_DEGREES = "hexagon", (0, 1)
# (name suffix, h) of the seed-0 random pairs; the last is the smoke one
RANDOM_PAIRS = (("", 0.1), ("-h0.05", experiments.ADVECTION_H),
                ("-h0.2", 0.2))


def digest(arrays):
    """SHA-256 of the dtypes, shapes and bytes of arrays, in order; None
    entries count as absent."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"None;")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def matrix_arrays(A):
    return A.indptr, A.indices, A.blocks


def meshes(smoke):
    """(name, mesh, Euler?) of the set, built one at a time."""
    kinds = (SMOKE_KIND,) if smoke else PATTERN_KINDS
    for kind in kinds:
        yield f"advect-{kind}", experiments.advection_mesh(kind), False
    for kind in kinds:
        yield f"euler-{kind}", experiments.euler_mesh(kind), True
    if not smoke:
        yield ("advect-hexagon-periodic",
               experiments.advection_mesh("hexagon", periodic=True), False)
    for suffix, h in RANDOM_PAIRS[-1:] if smoke else RANDOM_PAIRS:
        delaunay, voronoi = build_random_mesh_pair(h, seed=0)
        yield f"random-delaunay{suffix}", delaunay, False
        yield f"random-voronoi{suffix}", voronoi, False


def digests(smoke):
    """Yield (layer, mesh name, p, sha256) over the set."""
    for name, mesh, is_euler in meshes(smoke):
        yield "mesh", name, "-", digest(getattr(mesh, a) for a in MESH_ARRAYS)
        for p in SMOKE_DEGREES if smoke else DEGREES:
            space = DgSpace(mesh, p)
            yield "basis", name, p, digest(
                [space.coeffs, space.edge_nodes, space.edge_weights]
                + [a for group in space.groups for a in group])
            if is_euler:
                disc = EulerDiscretization(space, EulerParams())
                U = disc.project_exact(0.0)
                r, alphas = disc.spatial_residual(U, 0.0)
                J = disc.spatial_jacobian(U, alphas)
                yield "euler", name, p, digest([U, r, alphas,
                                                *matrix_arrays(J)])
            else:
                M, L = assemble_advection(space, rotating_velocity)
                yield "advection", name, p, digest([*matrix_arrays(M),
                                                    *matrix_arrays(L)])


def read_digests(path):
    """{(layer, mesh, p): sha256} of a file this tool wrote."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            tok = line.split()
            if len(tok) != 4:
                raise ValueError(f"{path}:{lineno}: expected 'layer mesh p "
                                 f"sha256'")
            out[tuple(tok[:3])] = tok[3]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--against", metavar="FILE",
                        help="a digest file to compare with")
    args = parser.parse_args(argv)
    try:
        # read first, so that a bad file fails before the builds
        parent = read_digests(args.against) if args.against else None
    except (OSError, ValueError) as exc:
        print(f"error: --against: {exc}", file=sys.stderr)
        return 2
    differ = 0
    with (open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        for layer, name, p, sha in digests(args.smoke):
            line = f"{layer} {name} {p} {sha}"
            print(line, file=out, flush=True)
            if parent is not None:
                old = parent.get((layer, name, str(p)))
                if old != sha:
                    differ += 1
                    print(f"differs: {line} (against "
                          f"{old or 'no line'})", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
