import hashlib
import json
import pytest

from meshbool.cli import RunConfig, main, run
from meshbool.errors import GeometryError
from meshbool.geometry import signed_volume
from meshbool.io import load_mesh, save_mesh
from meshbool.pipeline import STAGES, PipelineOptions, run_pipeline
from meshes import bumpy_pair, cube, icosphere, lobed_blob, tangent_cylinders, torus_pair, vw_pair


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
    # A wide band: chords end on most face edges and 16 split faces hold a
    # floating loop. Recorded at the parent of the batched splitter, before
    # any source change.
    "bumpy_band": (
        bumpy_pair,
        {
            "a_minus_b_0.stl": "b6c36aa0815e5cc5ff6f0e923f2ceceba33988a2c9532bf7660d3e0e920a6cf0",
            "a_minus_b_1.stl": "c0a4d498796aba418ced1a7360a4e1976a0f3184b794dc0b904f0c8ef2ba9d55",
            "a_minus_b_10.stl": "a69babb5a1efb96c728c3a0e8a2fd24d7d87c6aba05b7afea42ffc0531b8e7f5",
            "a_minus_b_11.stl": "1ffecf00bd6b1f8ba0c4f8814a2aa6c6863feb9aacce86d2d3a079bb0a5dfaeb",
            "a_minus_b_12.stl": "2eb0b9b85e73ba23d01319d79d51b0e1c9576f3a6c56c7d736aa25ccfee33ad9",
            "a_minus_b_13.stl": "fc8d07d5b4b79064e1e3a44164e0975216df3cc80c0fa43cc4aa3229cb06a17f",
            "a_minus_b_14.stl": "114624771024f958085c0f4ba16e468e1034e9300a805d6cb9d05966f180abad",
            "a_minus_b_15.stl": "9eaeef4c34b04797be82a99d1c2ccea08aa0f812ba3f5a2f337f3faff996e85d",
            "a_minus_b_2.stl": "9bd4187b9e39d2f5a9cf04b8077e23151f3e52a0e806a812c80a23bdbc78d2a9",
            "a_minus_b_3.stl": "81117299ab4a9c7d5c90350efa90b4bf376aea2f2d3c5cc8e5c7213e73978231",
            "a_minus_b_4.stl": "b07610dedb0b8829580ef23a8d449bbf30ae2c09669508ca81031c4e399134ad",
            "a_minus_b_5.stl": "2acefc39493c9e23680705b4f1927e999ac88a3fc6027ee100174348ea062d1c",
            "a_minus_b_6.stl": "ddec17cafcaf446ec675c6fe97cbcfbc6c1411aaedc728a6eed8701518ac9935",
            "a_minus_b_7.stl": "84f63614bd18904ccc751b9224286cb952ae9062e7352fc4e91b3d7b708018af",
            "a_minus_b_8.stl": "94dcc47355e3cd87188724432bc443af4e8da33f0b9f7e626831912760370d1d",
            "a_minus_b_9.stl": "f78c2df4498b1e61bb3cd93e782d16f1268590f7250b7c244c8b6ed077cdf8da",
            "b_minus_a_0.stl": "3d2a1b8cc03021c84437fe318be838552774fe0512bc7656c67eaf5eb1b5b995",
            "b_minus_a_1.stl": "1534555fdb9123c9a3a3faaac7f96dc516ac6a61429f6d40b56dcacd9b5e60de",
            "b_minus_a_10.stl": "3dae855327d59c6a9efb4a1b8b4d4ba1657497f1bb75c14199d1de3c8d047885",
            "b_minus_a_11.stl": "0e5da01aabb87f5e0094cdd193a0bba09d848a1418f96da3402f790d5ac5222c",
            "b_minus_a_12.stl": "a4a180e4ee332ccf2b6f4a5981cecb38a2d5e82ccecd02ef98f0014f641ac64f",
            "b_minus_a_13.stl": "092278fe4866964b11430feba60569d013a43ddad10e479b421cbabc69378832",
            "b_minus_a_14.stl": "f184092cb970d6d8fe77210dd093bb08184fcdfbee32988148c04aafc66830fa",
            "b_minus_a_15.stl": "1115fd547f1270f418090b018cb8eeebdfc213288dc282ea603a9a4413f71157",
            "b_minus_a_16.stl": "01892d6264904b204674a7c5db02bdfaf92dfd8fe62d10cd88f2ceec48fec316",
            "b_minus_a_17.stl": "4845e820fe79e25bccc7472763cab8e991851d4eb3b9860a81569820c7113ae5",
            "b_minus_a_18.stl": "f253eab34f9e49e35f8d814e6df5a19ae94865c0cb25862c71ea22912d621011",
            "b_minus_a_19.stl": "5fb4deaef126dbe13483d69e0da446dfe89cbdab4fe8388fb8c50a3479966b4b",
            "b_minus_a_2.stl": "a8a6d9ed6b08aa60a0ab7173aab4fe9a6094bfadc911310e019da6203b839670",
            "b_minus_a_20.stl": "ef20fadd4f8efb0c3e196b43f50aa7774e9cc5d7d4761675db05b35c5b865c48",
            "b_minus_a_21.stl": "c9b7d805994b9a59ee5110be7b1aeaafca09c170d992af64b27fcfa0eb7a36ac",
            "b_minus_a_22.stl": "3c40ae96b45651eb02494817f219f30a901c9def626c2dbc9dcc93ff71405c20",
            "b_minus_a_23.stl": "04b62ee3b67e60bb302b56aa6cac3c4b88c64c5fe37bd3af9a0fdd5001d42580",
            "b_minus_a_24.stl": "a599c62f69603b1a0e35b26019af3d584b488476175e68c14f19521d64ed0bdf",
            "b_minus_a_25.stl": "d74882213b1d2a370ab082f362e5dcb3be809f9226c6400f70c5cdcae4ee7424",
            "b_minus_a_26.stl": "c9df17563fb2872fb07b7b58b1eb6365fc6f8ad690addd06ebb98ef8cfeabb1e",
            "b_minus_a_27.stl": "96ffe61b2b99e06cc3398d0c4a825487f001c63ac325400f77ca781ca518a187",
            "b_minus_a_28.stl": "bd93e942e1d5c9f8c23c52bb48e83b45325028ca9e27829680cc79537a246f64",
            "b_minus_a_29.stl": "b9c369744a66bd816dfc841111820ea1e73d5325d1b778f3977ea3a6a3e2fad7",
            "b_minus_a_3.stl": "26967112814c18dd60c72d3a76ef1d3c01efcced4b29e5823d15f00e63ce581b",
            "b_minus_a_30.stl": "2533df1dfcfd76fabf099efe3535d9fb54e53bfc8cbc738ecbd0dea8643f10f3",
            "b_minus_a_31.stl": "edf61ca6400020a7cd51fb91d21ce6e55ac050d694e453ea783b7a86ce2bbb5b",
            "b_minus_a_32.stl": "7f95f3174413767867719c422a83199fb33bad744b171ca86cde6eb7a77e3afa",
            "b_minus_a_33.stl": "c5101ca06790957bf2c08250fec6aa3dca4f0a595d91fd80a9112c78c0378c7c",
            "b_minus_a_4.stl": "58f2b9a5a58826456d70ee176fc1c01f5276e78761cabdd20de706684e812e21",
            "b_minus_a_5.stl": "5842025253453f51a82e90b408aac34cc707eb2957311832a0e4025b6c8d1618",
            "b_minus_a_6.stl": "39e19a417a4af63a16889e95d7cb69f946bb90522197803dde5211a7bd19fa12",
            "b_minus_a_7.stl": "bd2024a5427d5294d9c3690513a634e2b9464bc6b469845ccfb553774c030552",
            "b_minus_a_8.stl": "50d696a0c0e9bf4ada5c38a336bd6b0644197c7ba63072b899c5a05e02431f9e",
            "b_minus_a_9.stl": "29458dc3ee8fd7d0864173a59fcc7a94fbfe423ecded75132a2195ce97562ac4",
            "intersection.stl": "34afa0f6a316fbdc100f2ec5d99a2b1f83b6e4e16e6c6c437f6f4cce9503db29",
            "union.stl": "aee60063f0b2a784e6cc7b62ec15647af61f69cc595eb640c5ea65e7e5825310",
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


@pytest.mark.parametrize("tol", ["0", "nan", "-1.0", "inf", "1e-20"])
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
