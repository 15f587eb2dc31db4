"""Traced-memory bounds of the whole-mesh passes.

The per-face helpers hold their output plus one block's temporaries, the
binary STL writer one block's records, and clearing starts after the weld
pool is gone. Each bound is one that the whole-array versions exceed by
several times at 81,920 faces (see tests/oracle_geometry.py). The CLI run on
the spheres-fine benchmark inputs bounds the run's traced peak about 25%
above what the blocked passes measure; the whole-array passes peaked near
15.6 MB there.

On the nested-shell benchmark inputs, where nothing crosses, the STL load,
the octree build, the pair pass and the containment test are bounded about
20% above what they measure in bounded working sets, and so is the CLI run;
the whole-array forms peaked at 1.8-3x these bounds.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meshbool
from meshbool import cli, geometry
from meshbool.blocks import point_in_closed_mesh
from meshbool.io import load_mesh
from meshbool.octree import build_octree, candidate_pairs, clip_to_shared_region
from meshbool.geometry import BLOCK, TriMesh, signed_volume, triangle_areas, triangle_normals, unit_normals
from meshbool.intersect import SegmentTable
from meshbool.io import save_mesh
from meshbool.merge import build_merged_state
from meshes import icosphere_arrays, nested_shell_pair, spheres_fine_pair
from peak import line_peaks, stage_peaks, traced_peak

MB = 1e6
# One block's temporaries: ~150 bytes per face of the block in the helpers,
# its 50-byte records and their sources in the STL writer.
HELPER_SLACK = 256 * BLOCK
SAVE_BOUND = 512 * BLOCK


@pytest.fixture(scope="module")
def sphere6():
    v, f = icosphere_arrays(6)
    mesh = TriMesh(v, f)
    assert mesh.num_faces == 81_920 and mesh.closed  # closedness is known before any peak is taken
    return mesh


@pytest.mark.parametrize("helper, row_bytes", [
    (lambda m: triangle_areas(m.vertices, m.faces), 8),
    (lambda m: triangle_normals(m.vertices, m.faces), 24),
    (lambda m: unit_normals(m.vertices, m.faces), 24),
    (lambda m: unit_normals(m.vertices, m.faces, "<f4"), 12),
    (signed_volume, 8),  # its per-face terms, summed whole
], ids=["areas", "normals", "unit_normals", "unit_normals_f4", "signed_volume"])
def test_helper_holds_its_output_and_one_block(sphere6, helper, row_bytes):
    with traced_peak() as peak:
        helper(sphere6)
    assert peak.bytes <= row_bytes * sphere6.num_faces + HELPER_SLACK


def test_save_mesh_peak_does_not_grow_with_the_mesh(sphere6, tmp_path):
    with traced_peak() as peak:
        save_mesh(sphere6, tmp_path / "sphere.stl")
    assert peak.bytes < SAVE_BOUND
    assert (tmp_path / "sphere.stl").stat().st_size == 84 + 50 * sphere6.num_faces


def test_clearing_starts_without_the_weld_pool(sphere6):
    """Two disjoint 81,920-face spheres with nothing split: at clearing's
    entry the merge holds its merged arrays and not the 2 MB weld pool."""
    a = sphere6
    b = TriMesh(a.vertices + 3.0, a.faces, source="B")
    unsplit = (np.zeros(0, np.int64), [], np.zeros((0, 3)))
    with stage_peaks("meshbool.merge.clear_topology") as calls:
        state = build_merged_state(a, b, [unsplit, unsplit], SegmentTable.empty(), 1e-9)
    (clear,) = calls["meshbool.merge.clear_topology"]
    merged = sum(x.nbytes for x in (state.vertices, state.faces, state.face_source, state.edges))
    pool = 24 * (a.num_vertices + b.num_vertices)
    assert clear.entry - merged < pool / 4


def test_stage_peaks_nests_and_restores(sphere6):
    """A nested call's peak counts towards its caller's, exit minus entry is
    what the call leaves allocated, and the hooks are gone afterwards."""
    names = ("meshbool.geometry.triangle_areas", "meshbool.geometry._face_cross")
    originals = [geometry.triangle_areas, geometry._face_cross]
    with stage_peaks(*names) as calls:
        areas = geometry.triangle_areas(sphere6.vertices, sphere6.faces)
    assert [geometry.triangle_areas, geometry._face_cross] == originals
    (outer,) = calls[names[0]]
    inner = calls[names[1]]
    assert len(inner) == -(-sphere6.num_faces // BLOCK)
    assert outer.peak >= max(c.peak for c in inner) > inner[0].entry >= outer.entry
    assert outer.exit - outer.entry >= areas.nbytes > outer.exit - outer.entry - HELPER_SLACK


STAGES = (
    "meshbool.cli.main",
    "meshbool.cli.load_mesh",
    "meshbool.cli.save_mesh",
    "meshbool.pipeline.build_merged_state",
    "meshbool.merge.clear_topology",
    "meshbool.subsurfaces.build_subsurfaces",
    "meshbool.blocks.classify_subtractions",
)


def test_spheres_fine_run_traced_peak(tmp_path):
    """`meshbool all` on the spheres-fine inputs (seed 1), the stages hooked
    where their callers look them up: the run's traced peak, measured at
    10.0 MB, stays below 12.5 MB."""
    paths = []
    for mesh in spheres_fine_pair(1):
        paths.append(str(tmp_path / f"{mesh.name}.stl"))
        save_mesh(mesh, paths[-1])
    with stage_peaks(*STAGES) as calls:
        assert cli.main(["all", *paths, "-o", str(tmp_path / "out")]) == 0
    (run,) = calls["meshbool.cli.main"]
    assert len(calls["meshbool.cli.save_mesh"]) == 4
    peaks = {name.rsplit(".", 1)[1]: [round(c.peak / MB, 2) for c in cs] for name, cs in calls.items()}
    assert run.peak < 12.5 * MB, peaks


@pytest.fixture(scope="module")
def nested_shell(tmp_path_factory):
    """The nested-shell inputs (seed 1) as meshes and as saved STL paths."""
    pair, out = nested_shell_pair(1), tmp_path_factory.mktemp("nested")
    paths = [str(out / f"{mesh.name}.stl") for mesh in pair]
    for mesh, path in zip(pair, paths):
        save_mesh(mesh, path)
    return pair, paths


def test_stl_load_holds_no_whole_soup_copies(nested_shell):
    """Loading 20,480 facets peaks at 126 bytes a facet: the float32 corners,
    the sort order and the faces, not the file bytes, a float64 soup and its
    sorted copy (329 bytes a facet)."""
    _, (_, path) = nested_shell
    with traced_peak() as peak:
        mesh = load_mesh(path)
    assert peak.bytes < 150 * mesh.num_faces


def test_broad_phase_calls_on_nested_shell(nested_shell):
    """The octree build (measured 2.90 MB) and the pair pass (1.73 MB) on
    the nested-shell pair; the whole-level build and the 65,536-row pair
    runs peaked at 5.61 and 4.44 MB."""
    a, b = nested_shell[0]
    ids_a, ids_b, cube, boxes = clip_to_shared_region(a, b)
    with traced_peak() as build:
        tree = build_octree(ids_a, ids_b, *boxes, cube)
    del ids_a, ids_b, boxes
    with traced_peak() as pairs:
        assert len(candidate_pairs(tree)) == 16_638
    assert build.bytes < 3.5 * MB
    assert pairs.bytes < 2.1 * MB


def test_containment_holds_one_block_of_corners(sphere6):
    """One ray test over 81,920 faces holds one block's corners and ray
    temporaries (measured 277 B x BLOCK), not every face's (22.4 MB)."""
    with traced_peak() as peak:
        assert point_in_closed_mesh([0.01, 0.02, 0.03], sphere6)
    assert peak.bytes < 320 * BLOCK


def test_nested_shell_run_traced_peak(nested_shell, tmp_path):
    """`meshbool all` on the nested-shell inputs: the run, measured at
    6.86 MB, stays below 8.2 MB (10.64 MB before the broad phase, the load
    and the containment test worked in bounded sets)."""
    with stage_peaks(*STAGES[:3], "meshbool.pipeline.build_octree", "meshbool.pipeline.candidate_pairs",
                     "meshbool.blocks.point_in_closed_mesh") as calls:
        assert cli.main(["all", *nested_shell[1], "-o", str(tmp_path / "out")]) == 0
    (run,) = calls["meshbool.cli.main"]
    peaks = {name.rsplit(".", 1)[1]: [round(c.peak / MB, 2) for c in cs] for name, cs in calls.items()}
    assert len(calls["meshbool.cli.save_mesh"]) == 3
    assert run.peak < 8.2 * MB, peaks


NUMPY_MA_PROBE = """
import json, sys
from meshbool import cli
from meshbool.io import load_mesh
from meshbool.octree import find_candidates
a, b, out = sys.argv[1:]
seen = ["numpy.ma" in sys.modules]
find_candidates(load_mesh(a), load_mesh(b, source="B"))
seen.append("numpy.ma" in sys.modules)
assert cli.main(["all", a, b, "-o", out]) == 0
seen.append("numpy.ma" in sys.modules)
print(json.dumps(seen))
"""


def test_nested_shell_does_not_import_numpy_ma(nested_shell, tmp_path):
    """numpy 2.4's first np.unique call in a process imports numpy.ma
    (1.09 MB traced), so a np.unique in the broad phase or the trivial path
    would land inside nested-shell's first op, whose growth peak_rss_mb
    measures. In a fresh interpreter, neither find_candidates nor a nested
    `meshbool all` run (trivial path included) imports it."""
    env = {**os.environ, "PYTHONPATH": str(Path(meshbool.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, *nested_shell[1], str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [False, False, False]


def test_line_peaks_charges_each_line_its_own_arrays():
    """line_peaks gives each line of the traced function the highest memory
    while it ran, above the memory at the call, calls it makes included; a
    line run in a loop keeps its highest peak, and lines that did not run
    are absent."""
    def work(n):
        first = np.ones(n)  # n * 8 bytes held from here on
        for k in range(1, 3):
            scratch = np.ones(k * n)  # a temporary of k * n * 8 bytes
            del scratch
        return np.zeros(n)  # peaks with first: 2 * n * 8
        never = 1  # noqa: F841

    n = 100_000
    peaks = line_peaks(work, n)
    start = work.__code__.co_firstlineno
    body = {line - start: peak for line, peak in peaks.items()}
    assert set(body) == {1, 2, 3, 4, 5}
    assert 8 * n <= body[1] < 8 * n + 4096
    assert 3 * 8 * n <= body[3] < 3 * 8 * n + 4096  # first and the larger scratch
    assert 2 * 8 * n <= body[5] < 2 * 8 * n + 4096
