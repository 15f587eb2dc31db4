import hashlib
import json
import pytest

from meshbool.cli import RunConfig, main, run
from meshbool.errors import GeometryError
from meshbool.geometry import signed_volume
from meshbool.io import load_mesh, save_mesh
from meshbool.pipeline import STAGES, PipelineOptions, run_pipeline
from meshes import cube, icosphere, lobed_blob, tangent_cylinders, torus_pair, vw_pair


def write_pair(tmp_path, a, b, ext=".stl"):
    pa = tmp_path / f"a{ext}"
    pb = tmp_path / f"b{ext}"
    save_mesh(a, pa)
    save_mesh(b, pb)
    return str(pa), str(pb)


def test_union_cli_offset_cubes_analytic_volume(tmp_path, capsys):
    pa, pb = write_pair(tmp_path, cube((0, 0, 0), 1.0), cube((0.5, 0.5, 0.5), 1.0))
    out = tmp_path / "out.stl"
    code = main(["union", pa, pb, "-o", str(out)])
    assert code == 0
    # analytic: 1 + 1 - 0.125
    assert signed_volume(load_mesh(out)) == pytest.approx(1.875, rel=1e-9)
    printed = capsys.readouterr().out
    assert sum(1 for line in printed.splitlines() if line.startswith("stage ")) == 6


def test_all_on_torus_pair_writes_files(tmp_path):
    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    pa, pb = write_pair(tmp_path, a, b)
    outdir = tmp_path / "results"
    code = main(["all", pa, pb, "-o", str(outdir)])
    assert code == 0
    names = sorted(p.name for p in outdir.glob("*.stl"))
    assert "union.stl" in names
    assert any(n.startswith("intersection") for n in names)
    assert any(n.startswith("a_minus_b") for n in names)
    assert any(n.startswith("b_minus_a") for n in names)


def test_split_surfaces_vw_five_files_each(tmp_path):
    a, b = vw_pair()
    pa, pb = write_pair(tmp_path, a, b, ext=".obj")
    outdir = tmp_path / "subs"
    code = main(["split-surfaces", pa, pb, "-o", str(outdir)])
    assert code == 0
    a_files = list(outdir.glob("a_sub_*.stl"))
    b_files = list(outdir.glob("b_sub_*.stl"))
    assert len(a_files) == 5 and len(b_files) == 5


def test_intersect_open_requires_open(tmp_path):
    pa, pb = write_pair(tmp_path, cube((0, 0, 0), 1.0), cube((0.5, 0.5, 0.5), 1.0))
    code = main(["intersect-open", pa, pb, "-o", str(tmp_path / "x")])
    assert code == 3  # geometry class


def test_exit_codes(tmp_path):
    pa, pb = write_pair(tmp_path, cube((0, 0, 0), 1.0), cube((0, 0, 0), 1.0))
    assert main(["union", pa, pb, "-o", str(tmp_path / "o.stl")]) == 5  # coincident
    bad = tmp_path / "missing.stl"
    code = main(["union", str(bad), pb, "-o", str(tmp_path / "o.stl")])
    assert code == 2


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.stl"
    bad.write_bytes(b"solid nothing but words endsolid")
    pb = tmp_path / "b.stl"
    save_mesh(cube(), pb)
    assert main(["union", str(bad), str(pb), "-o", str(tmp_path / "o.stl")]) == 2


def test_op_flag_and_positional_conflict(tmp_path):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    assert main(["union", pa, pb, "--op", "all", "-o", str(tmp_path / "o.stl")]) == 2
    # --op alone works
    out = tmp_path / "i.stl"
    assert main([pa, pb, "--op", "intersect", "-o", str(out)]) == 0
    assert signed_volume(load_mesh(out)) == pytest.approx(0.125, rel=1e-9)


def test_byte_identical_outputs_across_runs_and_threads(tmp_path):
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    pa, pb = write_pair(tmp_path, a, b)
    outs = []
    for name, threads in (("r1.stl", "1"), ("r2.stl", "1"), ("r4.stl", "4")):
        out = tmp_path / name
        code = main(["union", pa, pb, "-o", str(out), "--threads", threads])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# SHA-256 of every file `all` writes, recorded with the dict-based edge
# adjacency that the numpy edge table replaced (the nested pair and the blob,
# before the ear clipper lost its fallback passes). A rewrite of any stage
# must leave these bytes unchanged; change a digest only with a deliberate
# change of output.
RECORDED_OUTPUTS = {
    "cube_sphere": (
        lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
        {
            "a_minus_b.stl": "42fa7d87663ad18a18ba34defdee441ff478a839719110a71597fbe42a20d49e",
            "b_minus_a_0.stl": "8e7029a43af0c808d2bbc2c15c7e7c0bde365bfd4ef658a4a67f5dcccf4fd504",
            "b_minus_a_1.stl": "8cba7605a5c020a09dbf96aed00515db77ea88ded36acc46fbe16e11b7f611c7",
            "b_minus_a_2.stl": "ed3b89d7bc90eece4a8bef91bf23a94c00ffae91a6368f7c3cdb53b82a244c50",
            "b_minus_a_3.stl": "b9a3f47814044ff4330c7bf134d6c2eeca36aa7452059177aba0dc9bbb8aeed6",
            "b_minus_a_4.stl": "85814c820ed2cec397c5f6ae8e03fabae3ea4be1e1faec7fccd880ddd1c8ce69",
            "b_minus_a_5.stl": "605861f1474fe9769cfe7bf9dc99f37381f7f6742914b3fbf4c9079b19af3143",
            "intersection.stl": "2e9a329215eaed830510eb46442dde13f3b4f5d5d57eeecfc25fc95b67644d4e",
            "union.stl": "04a21d935e08f7f34337d5dc2b4974190a4d436b51fdbc381d7e0ad320ea0429",
        },
    ),
    "torus_pair": (
        lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
        {
            "a_minus_b_0.stl": "b1db4efd4c112b270075a00b0b63ea13a638e00371a0b4f6a279fa2b36eec99e",
            "a_minus_b_1.stl": "60ec569bef89b713872b1e596c108fec93b4c32676fbaf9e7a94176efccebf1d",
            "b_minus_a_0.stl": "1c8b36cd80e31b233ec9fd3d907ffcf9934f746470d7c2de4998f4de3e64a191",
            "b_minus_a_1.stl": "a55972399dd69d37d2c0d81928b89b9e778dfbf86553594a62d34aafe67a04f1",
            "intersection_0.stl": "50329451686e24a738fec75409d2eb7d9346e107f7e81e9310408f72a3e5d452",
            "intersection_1.stl": "450a076de183324b931f319f59771257c709ef7e20c0ae5b821ded88900fd248",
            "union.stl": "b0b1b57ec68a0f62b734a6098d888c58a71a08a1170fff32c1c752a9b66c10d6",
        },
    ),
    "nested_icospheres": (  # the trivial path: no crossing, B inside A
        lambda: (icosphere(1.0, subdivisions=3, source="A"),
                 icosphere(0.6, center=(0.05, 0.02, -0.03), subdivisions=2, source="B")),
        {
            "a_minus_b.stl": "42233f75ce109f88514be4ebcdbc36a57b2bf7c2d5ca10a81f3b7d1e9e5a8276",
            "intersection.stl": "c810a9ddb06c2f078f619ee6fe248d39f1170a4f6bee5537f6df14274b1a1423",
            "union.stl": "1430cf3a363a0f3c5808e1aa008cb7731992442fc88a4b5837c1c1026696e181",
        },
    ),
    "blob_sphere": (  # heavy splitting: the lobes cross the sphere in several loops
        lambda: (lobed_blob(source="A"),
                 icosphere(1.2, center=(0.3, -0.2, 0.4), subdivisions=3, source="B")),
        {
            "a_minus_b_0.stl": "26f2d657fe4e1b680aa9962ebe30bb1d2b03fc9e1490d2711491f1de5340568f",
            "a_minus_b_1.stl": "bf9829c2c309efbf558c7c3248564fb02a0fffa856503f765759cba798935d1e",
            "b_minus_a.stl": "c13defa5e7bd464b172357d3714a5669c196d4cd3105ab59a775077a4737d8d9",
            "intersection.stl": "7c7c56cc64c5eb46cbac126adefc73117e8de1f118d7339d0d37b56834543756",
            "union.stl": "a388733ce9cb5c48807c0a422c4021662cf57882534771911d169a1d91c3ffdd",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_OUTPUTS))
def test_all_outputs_match_recorded_digests(tmp_path, name):
    make, digests = RECORDED_OUTPUTS[name]
    pa, pb = write_pair(tmp_path, *make())
    outdir = tmp_path / "out"
    assert main(["all", pa, pb, "-o", str(outdir)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}
    assert got == digests


def test_env_var_threads_fallback(tmp_path, monkeypatch):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    monkeypatch.setenv("MESHBOOL_THREADS", "2")
    out = tmp_path / "env.stl"
    assert main(["union", pa, pb, "-o", str(out)]) == 0
    assert signed_volume(load_mesh(out)) == pytest.approx(1.875, rel=1e-9)


def test_threads_env_var_is_not_read(tmp_path, monkeypatch):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    monkeypatch.setenv("MESHBOOL_THREADS", "two")
    out = tmp_path / "env.stl"
    assert main(["union", pa, pb, "-o", str(out)]) == 0
    assert signed_volume(load_mesh(out)) == pytest.approx(1.875, rel=1e-9)


@pytest.mark.parametrize("tol", ["0", "nan", "-1.0", "inf"])
def test_bad_merge_tol_is_a_geometry_error(tmp_path, tol, capsys):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    assert main(["union", pa, pb, "-o", str(tmp_path / "u.stl"), "--merge-tol", tol]) == 3
    assert "merge tolerance" in capsys.readouterr().err


def test_pipeline_options_reject_bad_merge_tol():
    with pytest.raises(GeometryError):
        PipelineOptions(merge_tol=-1.0)
    assert PipelineOptions(merge_tol=1e-9).merge_tol == 1e-9


def test_debug_json_flag(tmp_path):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    dbg = tmp_path / "dbg.json"
    assert main(["all", pa, pb, "-o", str(tmp_path / "d"), "--debug-json", str(dbg)]) == 0
    doc = json.loads(dbg.read_text())
    assert len(doc["blocks"]) == 4


def test_octree_flags_accepted(tmp_path):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    out = tmp_path / "o.stl"
    code = main([
        "union", pa, pb, "-o", str(out),
        "--octree-depth", "4", "--octree-capacity", "8",
        "--merge-tol", "1e-9", "--strict",
    ])
    assert code == 0


def test_run_config_dataclass_roundtrip(tmp_path):
    pa, pb = write_pair(tmp_path, cube(), cube((0.5, 0.5, 0.5), 1.0))
    cfg = RunConfig(op="subtract-ab", input_a=pa, input_b=pb,
                    output=str(tmp_path / "s.stl"))
    assert run(cfg) == 0
    assert signed_volume(load_mesh(cfg.output)) == pytest.approx(0.875, rel=1e-9)


def test_pipeline_stage_report_always_six():
    state = run_pipeline(cube((0, 0, 0), 1.0), cube((9, 9, 9), 1.0))
    assert [s for s, _ in state.timings] == list(STAGES)
    state = run_pipeline(cube((0, 0, 0), 1.0), cube((0.5, 0.5, 0.5), 1.0))
    assert [s for s, _ in state.timings] == list(STAGES)


def test_library_convenience_wrappers():
    from meshbool import boolean_a_minus_b, boolean_intersection, boolean_union

    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    assert signed_volume(boolean_union(a, b)[0]) == pytest.approx(1.875, rel=1e-9)
    assert signed_volume(boolean_intersection(a, b)[0]) == pytest.approx(0.125, rel=1e-9)
    assert signed_volume(boolean_a_minus_b(a, b)[0]) == pytest.approx(0.875, rel=1e-9)


def test_open_input_refuses_volume_ops(tmp_path):
    a, b = vw_pair()
    pa, pb = write_pair(tmp_path, a, b)
    assert main(["union", pa, pb, "-o", str(tmp_path / "u.stl")]) == 3
