import json
import struct

import numpy as np
import pytest

from meshbool import io
from meshbool.cli import main
from meshbool.errors import EmptyInput, ParseError
from meshbool.geometry import TriMesh, signed_volume
from meshbool.io import _index_soup, dump_debug, load_mesh, save_mesh, sniff_format
from meshbool.pipeline import run_pipeline
from meshes import cube, icosphere, tangent_cylinders


def test_binary_stl_roundtrip_cube(tmp_path):
    path = tmp_path / "cube.stl"
    save_mesh(cube(), path)
    assert sniff_format(path) == "stl_binary"
    back = load_mesh(path)
    assert back.num_vertices == 8 and back.num_faces == 12
    assert back.closed
    assert signed_volume(back) == pytest.approx(1.0, abs=1e-12)
    # cube coordinates are float32-exact, round-trip is bit-exact
    again = tmp_path / "again.stl"
    save_mesh(back, again)
    twice = load_mesh(again)
    assert np.array_equal(np.sort(back.vertices, axis=0), np.sort(twice.vertices, axis=0))


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
def test_stl_facets_match_the_row_formula(tmp_path, scale):
    """Facet normals in both STL forms equal those of np.cross, divided by
    np.linalg.norm (zero normals by 1), byte for byte, zero-area faces too."""
    ico = icosphere(1.3, subdivisions=2)
    faces = np.concatenate([ico.faces, [[0, 0, 5], [3, 3, 3]]])
    mesh = TriMesh(ico.vertices * scale + [0.25, -1.0, 3.0], faces)
    p = mesh.vertices[mesh.faces]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    lens = np.linalg.norm(n, axis=1)
    lens[lens == 0] = 1.0
    want = n / lens[:, None]
    save_mesh(mesh, tmp_path / "b.stl")
    rec = np.frombuffer((tmp_path / "b.stl").read_bytes()[84:], dtype=np.uint8).reshape(-1, 50)
    assert rec[:, :12].tobytes() == want.astype("<f4").tobytes()
    save_mesh(mesh, tmp_path / "a.stl", format="stl_ascii")
    lines = [ln for ln in (tmp_path / "a.stl").read_text().splitlines() if "facet normal" in ln]
    assert lines == [f"  facet normal {x:.9g} {y:.9g} {z:.9g}" for x, y, z in want]


def test_ascii_stl_roundtrip(tmp_path):
    path = tmp_path / "cube_ascii.stl"
    save_mesh(cube(), path, format="stl_ascii")
    assert sniff_format(path) == "stl_ascii"
    back = load_mesh(path)
    assert back.num_faces == 12 and back.closed


def test_obj_roundtrip_topology(tmp_path):
    path = tmp_path / "cube.obj"
    c = cube()
    save_mesh(c, path)
    back = load_mesh(path)
    assert back.num_faces == 12
    assert np.array_equal(back.vertices, c.vertices)
    assert np.array_equal(back.faces, c.faces)


def test_obj_quad_fan_split(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    m = load_mesh(path)
    assert m.num_faces == 2


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    m = load_mesh(path)
    assert m.num_faces == 1 and np.array_equal(m.faces[0], [0, 1, 2])


def test_empty_ascii_stl(tmp_path):
    path = tmp_path / "empty.stl"
    path.write_text("solid nothing\nendsolid nothing\n")
    with pytest.raises(EmptyInput):
        load_mesh(path)


def test_truncated_binary_stl(tmp_path):
    path = tmp_path / "trunc.stl"
    save_mesh(cube(), path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ParseError):
        load_mesh(path)


class CountedReads:
    """A file that records the length of every read."""

    def __init__(self, fh, sizes):
        self.fh, self.sizes = fh, sizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, *args):
        data = self.fh.read(*args)
        self.sizes.append(len(data))
        return data


def test_sniff_reads_only_the_preamble_of_a_binary_stl_named_solid(tmp_path, monkeypatch):
    """A binary STL whose header starts with 'solid' is still binary, told
    by the facet count against the file size, from at most 84 bytes."""
    path = tmp_path / "solid.stl"
    save_mesh(cube(), path)
    path.write_bytes(b"solid" + path.read_bytes()[5:])
    sizes = []
    with monkeypatch.context() as mp:
        mp.setattr(io, "open", lambda *args, **kw: CountedReads(open(*args, **kw), sizes), raising=False)
        mp.setattr(type(path), "read_bytes", lambda self: pytest.fail("the whole file was read"))
        assert sniff_format(path) == "stl_binary"
    assert 0 < sum(sizes) <= 84
    assert load_mesh(path).num_faces == 12


def test_binary_facet_count_matches_records(tmp_path):
    path = tmp_path / "cube.stl"
    save_mesh(cube(), path)
    data = path.read_bytes()
    (count,) = struct.unpack_from("<I", data, 80)
    assert count == 12
    assert len(data) == 84 + 50 * count


def test_open_surface_stl_warns_but_saves(tmp_path, caplog):
    open_mesh = cube()
    from meshbool.geometry import TriMesh

    open_mesh = TriMesh(open_mesh.vertices, open_mesh.faces[:-2])
    path = tmp_path / "open.stl"
    with caplog.at_level("WARNING"):
        save_mesh(open_mesh, path)
    assert "open surface" in caplog.text
    assert load_mesh(path).num_faces == 10


def test_bad_coordinate_reports_line(tmp_path):
    path = tmp_path / "bad.stl"
    path.write_text("solid x\nfacet\nouter loop\nvertex 0 0 zero\n")
    with pytest.raises(ParseError, match=":4"):
        load_mesh(path)


def test_obj_bad_coordinate_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 abc\nv 0 1 0\nf 1 2 3\n")
    other = tmp_path / "b.stl"
    save_mesh(cube(), other)
    assert main(["all", str(path), str(other), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: bad coordinate" in err


def test_dump_debug_cylinders_soft_loops(tmp_path):
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    out = tmp_path / "debug.json"
    dump_debug(state, out)
    doc = json.loads(out.read_text())
    assert doc["version"] == 1
    soft = [lp for lp in doc["loops"] if lp["kind"] == "soft_closed"]
    assert len(soft) == 4
    assert len(doc["blocks"]) == 6
    assert {b_["label"] for b_ in doc["blocks"]} == {
        "union", "intersection", "a_minus_b", "b_minus_a",
    }


def test_dump_debug_empty_pipeline(tmp_path):
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((5, 5, 5), 1.0, "B")
    state = run_pipeline(a, b)
    out = tmp_path / "empty.json"
    dump_debug(state, out)
    doc = json.loads(out.read_text())
    assert doc["loops"] == [] and doc["surfaces"] == [] and doc["blocks"] == []


def test_dump_debug_cube_cube_blocks(tmp_path):
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    state = run_pipeline(a, b)
    out = tmp_path / "cc.json"
    dump_debug(state, out)
    doc = json.loads(out.read_text())
    # hand enumeration for offset cubes: four blocks, one per Boolean result
    assert len(doc["blocks"]) == 4
    assert sorted(b_["label"] for b_ in doc["blocks"]) == [
        "a_minus_b", "b_minus_a", "intersection", "union",
    ]
    assert all(len(e) == 4 for e in doc["edges"])


def test_index_soup_matches_row_unique_with_signed_zeros():
    corners = np.array(
        [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, -0.0],
         [0.0, 1.0, 0.0], [0.0, 1.0, -0.0], [0.0, 0.0, 1.0], [-0.0, -0.0, 1.0]]
    )
    rng = np.random.default_rng(5)
    tris = corners[np.array([[0, 2, 4], [1, 4, 6], [3, 5, 7], [0, 6, 2], [1, 3, 5], [2, 4, 7]])]
    tris = np.concatenate([tris, tris[rng.permutation(len(tris))]])  # repeated corners
    flat = tris.reshape(-1, 3)
    mesh = _index_soup(tris, "A", "soup")
    verts, inverse = np.unique(flat, axis=0, return_inverse=True)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.faces, inverse.reshape(-1, 3))
    # The first row seen of each equal group represents it, sign of zero included.
    first = flat[[int(np.argmax(inverse == k)) for k in range(len(verts))]]
    assert np.array_equal(np.signbit(mesh.vertices), np.signbit(first))


def _non_finite_file(tmp_path, reader, value):
    """A one-facet file of `reader`'s format with `value` as the third
    coordinate of its second corner; returns the path and the location the
    error must name."""
    tri = [[0.0, 0.0, 0.0], [1.0, 0.0, value], [0.0, 1.0, 0.0]]
    if reader == "obj":
        path = tmp_path / "bad.obj"
        path.write_text("".join(f"v {x} {y} {z}\n" for x, y, z in tri) + "f 1 2 3\n")
        return path, f"{path}:2: non-finite coordinate"
    path = tmp_path / "bad.stl"
    if reader == "stl_ascii":
        corners = "".join(f"vertex {x} {y} {z}\n" for x, y, z in tri)
        path.write_text(f"solid x\nfacet normal 0 0 1\nouter loop\n{corners}endloop\nendfacet\nendsolid\n")
        return path, f"{path}:5: non-finite coordinate"
    save_mesh(cube(), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<f", data, 84 + 50 * 7 + 12 + 4 * 5, value)  # facet 7, corner 1, z
    path.write_bytes(bytes(data))
    return path, f"{path}: facet 7 (0-based): non-finite coordinate"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("reader", ["obj", "stl_ascii", "stl_binary"])
def test_non_finite_coordinate_exits_2_naming_the_location(tmp_path, capsys, reader, value):
    path, where = _non_finite_file(tmp_path, reader, value)
    assert sniff_format(path) == reader
    with pytest.raises(ParseError, match="non-finite"):
        load_mesh(path)
    other = tmp_path / "b.stl"
    save_mesh(cube(), other)
    assert main(["all", str(path), str(other), "-o", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err
