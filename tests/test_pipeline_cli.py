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


def test_inward_oriented_closed_input_is_a_geometry_error(tmp_path, capsys):
    inward = cube().reversed()
    with pytest.raises(GeometryError, match="inward-oriented"):
        run_pipeline(inward, cube((0.5, 0.5, 0.5), 1.0))
    pa, pb = write_pair(tmp_path, cube((0.5, 0.5, 0.5), 1.0), inward)
    assert main(["union", pa, pb, "-o", str(tmp_path / "o.stl")]) == 3
    assert "inward-oriented" in capsys.readouterr().err


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
# before the ear clipper lost its fallback passes). cube_sphere, torus_pair,
# blob_sphere and bumpy_band were re-recorded once on purpose, when each
# crossing came to be lerped from the smaller end of its edge and the points
# a split puts on a neighbour's edge took a scale-free order. A rewrite of
# any stage must leave these bytes unchanged; change a digest only with a
# deliberate change of output.
RECORDED_OUTPUTS = {
    "cube_sphere": (
        lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
        {
            "a_minus_b.stl": "42fa7d87663ad18a18ba34defdee441ff478a839719110a71597fbe42a20d49e",
            "b_minus_a_0.stl": "4926bd85ed1150e32cefaf3e393668e998e065824d63ff79b532b88d7912f0b7",
            "b_minus_a_1.stl": "748e195d26df711c3c2f4bdc51e0d945065914730b3c1ea86b6027e1afd8f434",
            "b_minus_a_2.stl": "f41bc68d3d37e05bd3d9d2fe0dce33ae473d589f68865e02de6144dafafc8806",
            "b_minus_a_3.stl": "b9a3f47814044ff4330c7bf134d6c2eeca36aa7452059177aba0dc9bbb8aeed6",
            "b_minus_a_4.stl": "52f73ee3efbd718c475ee2fc4aa90b9f272978b4f4bf410a7718d10d5b60d3fc",
            "b_minus_a_5.stl": "0e76af06faeec4bc6b0fec2c5345d572badc723d8e2c5544087e856b8fb4ea89",
            "intersection.stl": "5ac9e0cf77748c3e2bce030a7256070e879595049e12182e7fe75f8d3259c7c9",
            "union.stl": "04a21d935e08f7f34337d5dc2b4974190a4d436b51fdbc381d7e0ad320ea0429",
        },
    ),
    "torus_pair": (
        lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
        {
            "a_minus_b_0.stl": "ca895c872c094492243e3196b76f09615de40501a2afc4a78c81fe13b61aadc3",
            "a_minus_b_1.stl": "1ca31303cc01faee2be773747d9e279c6cfce9db25e3f951fab6a48e4caa298a",
            "b_minus_a_0.stl": "1c8b36cd80e31b233ec9fd3d907ffcf9934f746470d7c2de4998f4de3e64a191",
            "b_minus_a_1.stl": "a55972399dd69d37d2c0d81928b89b9e778dfbf86553594a62d34aafe67a04f1",
            "intersection_0.stl": "50329451686e24a738fec75409d2eb7d9346e107f7e81e9310408f72a3e5d452",
            "intersection_1.stl": "6af34487b82dec8753c7eb6f197e9995c5bdce58ca1c5a2b157e99cd025d209f",
            "union.stl": "c2f82635d659285ca8eac6a9e22b428de477c6ea0fbb03384caed1c8e7d8d3a0",
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
            "a_minus_b_0.stl": "350f5c05b7bddd546bb42e77a74b948a3d7f001abbd9f9f2a50c0f7808901e27",
            "a_minus_b_1.stl": "65a4693646ab28371a6fbfe7c6a01ea76b0eb5a003adeb1b78d0c8c7aa3eb188",
            "b_minus_a.stl": "4992ebc71c39dc18161828545381f180326105dd54d47548344b385e33cecbcf",
            "intersection.stl": "3e1ab1b4892545669a5722a864896d45954b1e7881e9023bbdf77d1d899aee29",
            "union.stl": "a1b71a9cb83742f2adba8e631de968f9d6f15918f096b93b4bc820fac36312c1",
        },
    ),
    # A wide band: chords end on most face edges and 16 split faces hold a
    # floating loop. Recorded at the parent of the batched splitter, before
    # any source change.
    "bumpy_band": (
        bumpy_pair,
        {
            "a_minus_b_0.stl": "c718780011d6d8f2154651aeb887e55f78faffd85c8c39e811569d9272010151",
            "a_minus_b_1.stl": "c0a4d498796aba418ced1a7360a4e1976a0f3184b794dc0b904f0c8ef2ba9d55",
            "a_minus_b_10.stl": "d06d6a3bb40203e466a6d144e88e4539923938b95cd6d256af094cd21cee832c",
            "a_minus_b_11.stl": "db8438a0b63d92ef0a70f4a658b96875a0b4a8a082636679614320ff775a0b70",
            "a_minus_b_12.stl": "2eb0b9b85e73ba23d01319d79d51b0e1c9576f3a6c56c7d736aa25ccfee33ad9",
            "a_minus_b_13.stl": "fc8d07d5b4b79064e1e3a44164e0975216df3cc80c0fa43cc4aa3229cb06a17f",
            "a_minus_b_14.stl": "7e93966ba8eb9fe5a03a8dfbfeff01b3cc7fe1b1d98884c2be71f222ed586076",
            "a_minus_b_15.stl": "9f638eb98e22e9cae9910df063ca155558c7a58051d0570cb2981e66fa20d986",
            "a_minus_b_2.stl": "16fbe70c63f9c4725f6780d05aceb2ffba3cbeaa9903ff1cd300acad039c65dd",
            "a_minus_b_3.stl": "81117299ab4a9c7d5c90350efa90b4bf376aea2f2d3c5cc8e5c7213e73978231",
            "a_minus_b_4.stl": "b07610dedb0b8829580ef23a8d449bbf30ae2c09669508ca81031c4e399134ad",
            "a_minus_b_5.stl": "2acefc39493c9e23680705b4f1927e999ac88a3fc6027ee100174348ea062d1c",
            "a_minus_b_6.stl": "ddec17cafcaf446ec675c6fe97cbcfbc6c1411aaedc728a6eed8701518ac9935",
            "a_minus_b_7.stl": "84f63614bd18904ccc751b9224286cb952ae9062e7352fc4e91b3d7b708018af",
            "a_minus_b_8.stl": "1e244418915e91ef4cd7ef05780e616637458b4a49a95d5ea4dfa9338b7efd9f",
            "a_minus_b_9.stl": "5618616ca7df9be5037a6ff06a294688ad0561ce9962416da40cbdd9ec38f6bd",
            "b_minus_a_0.stl": "77c0f6b365c18e44dac99410ad5f47406b4e802126201c1071db8a7f6c6f9bb8",
            "b_minus_a_1.stl": "70f2292b6161671fd5ecfd16a85fec9d1131456305bd4c212c9a6c25aaaaf9de",
            "b_minus_a_10.stl": "3dae855327d59c6a9efb4a1b8b4d4ba1657497f1bb75c14199d1de3c8d047885",
            "b_minus_a_11.stl": "0e5da01aabb87f5e0094cdd193a0bba09d848a1418f96da3402f790d5ac5222c",
            "b_minus_a_12.stl": "6f1a5dc6a2d204b65af18f8ca93712303a6d4600a78e74c9e7dafd972b5c758a",
            "b_minus_a_13.stl": "6cc9784ba059962776d1412a05a8ae3bb24c77ecd8e60abeb12fc4f9731f725b",
            "b_minus_a_14.stl": "f184092cb970d6d8fe77210dd093bb08184fcdfbee32988148c04aafc66830fa",
            "b_minus_a_15.stl": "2246d1eddb620ecfcd98aa981d9e8d81d0fcafee145580aee240d0b2f76a9ebf",
            "b_minus_a_16.stl": "01892d6264904b204674a7c5db02bdfaf92dfd8fe62d10cd88f2ceec48fec316",
            "b_minus_a_17.stl": "b89194b630badfe310006d3f5303ae076f01cee7753d088028c8592649639a29",
            "b_minus_a_18.stl": "f253eab34f9e49e35f8d814e6df5a19ae94865c0cb25862c71ea22912d621011",
            "b_minus_a_19.stl": "5fb4deaef126dbe13483d69e0da446dfe89cbdab4fe8388fb8c50a3479966b4b",
            "b_minus_a_2.stl": "53deed08e4d723835f8c6058345a3d653d03b09b13803549f6177963dbf87f14",
            "b_minus_a_20.stl": "ef20fadd4f8efb0c3e196b43f50aa7774e9cc5d7d4761675db05b35c5b865c48",
            "b_minus_a_21.stl": "8f26cb792bec51ee2f644eb057b9a5c7124b3ffe71b447761db6ef02a69ae7ec",
            "b_minus_a_22.stl": "3c40ae96b45651eb02494817f219f30a901c9def626c2dbc9dcc93ff71405c20",
            "b_minus_a_23.stl": "04b62ee3b67e60bb302b56aa6cac3c4b88c64c5fe37bd3af9a0fdd5001d42580",
            "b_minus_a_24.stl": "a599c62f69603b1a0e35b26019af3d584b488476175e68c14f19521d64ed0bdf",
            "b_minus_a_25.stl": "d74882213b1d2a370ab082f362e5dcb3be809f9226c6400f70c5cdcae4ee7424",
            "b_minus_a_26.stl": "c9df17563fb2872fb07b7b58b1eb6365fc6f8ad690addd06ebb98ef8cfeabb1e",
            "b_minus_a_27.stl": "7ad5d059d44c4ce7d8e2a4f5f2e8291964346fa87f6fdc04ba51177f91466786",
            "b_minus_a_28.stl": "13e148798b00668b881c4fcd97a1b630cb734e26cf96fc9c8ae4087420555ff0",
            "b_minus_a_29.stl": "b9c369744a66bd816dfc841111820ea1e73d5325d1b778f3977ea3a6a3e2fad7",
            "b_minus_a_3.stl": "5e0479f8a0e5dad797e6879c07534f97c2a5848b033d4becf161145d53c44fb8",
            "b_minus_a_30.stl": "2533df1dfcfd76fabf099efe3535d9fb54e53bfc8cbc738ecbd0dea8643f10f3",
            "b_minus_a_31.stl": "9ee7127a4a2ba1ff533540998c6a6d2aac24979c9b1d148914b10e2cac9723b3",
            "b_minus_a_32.stl": "7f95f3174413767867719c422a83199fb33bad744b171ca86cde6eb7a77e3afa",
            "b_minus_a_33.stl": "78647f732ae7506063dba2c8ba10442397a5403c93edee2386305be805fb2302",
            "b_minus_a_4.stl": "58f2b9a5a58826456d70ee176fc1c01f5276e78761cabdd20de706684e812e21",
            "b_minus_a_5.stl": "5842025253453f51a82e90b408aac34cc707eb2957311832a0e4025b6c8d1618",
            "b_minus_a_6.stl": "1c4600734128c17c5bada2b02cce5977cf6ff81e5d3bc22afb20a6aee08370f6",
            "b_minus_a_7.stl": "75b5a67da8ece50b7bf8a954cd2d6d309f3e53ac77695af2010200d67eba1ab9",
            "b_minus_a_8.stl": "e10aa9e03f58562582c63db2b4f11602c9fb45c5e0e38f4fb0ea63f6adca331e",
            "b_minus_a_9.stl": "82fd63d6f236fe516755691c0fd519fc825657ee6bbd759362482776965ed4e0",
            "intersection.stl": "9aee9fe3d1a4d72cb29d1e03968ae7344915dfff550a4913a797e956b7787017",
            "union.stl": "79d74ddc49c1c1a815fd8bcf333a4289fa963ec6a13495fa56fe63fd12e970f5",
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
