"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing one PASS line on success (run with -s to see them).
Criterion 10's determinism contract covers all computational artifacts;
wall-clock outputs (timings.json, bench wall_ms columns at --trials 0) are
the documented exceptions."""

import json
import time

import numpy as np

from cubegen import cli
from cubegen import scene as sc
from cubegen.attention import (
    AttentionInputs,
    BandedMaskSpec,
    TokenLayout,
    attention_flops,
    dense_attention_flops,
    dense_masked_attention,
    mask_matrix,
    sparse_context_attention,
)
from cubegen.continuity import (
    blend_overlaps,
    corner_cycle_identity,
    edge_adjacency,
    face_position_grid,
    pad_face,
    seam_metric,
)
from cubegen.faces import FACES, FACE_INDEX, adjacent_faces
from cubegen.geometry import (
    CameraPose,
    EquirectTaps,
    equirect_pixel_to_direction,
    equirect_to_cubemap,
    face_directions,
    face_pixel_solid_angles,
    frustum_masks,
    frustum_solid_angle,
)
from cubegen.pipeline import euler_sample, oracle_denoiser
from cubegen.planner import frame_coverage, plan_order, plan_steps, window_coverage
from cubegen.context import select_future_fragments

from conftest import smooth_field


def report(num, text):
    print(f"PASS  criterion {num}: {text}")


def test_criterion_1_projection_round_trip():
    res, width = 64, 256
    taps = EquirectTaps.create(res, width)
    faces = smooth_field(face_directions(res))
    back = equirect_to_cubemap(taps.apply(faces), res)
    err_c = np.abs(back - faces).max()
    assert err_c <= 0.02

    u, v = np.meshgrid(np.arange(width), np.arange(width // 2), indexing="xy")
    eq = smooth_field(equirect_pixel_to_direction(u, v, width))
    back_eq = taps.apply(equirect_to_cubemap(eq, res))
    err_e = np.abs(back_eq - eq).max()
    assert err_e <= 0.02

    w = face_pixel_solid_angles(256)
    worst_rel = 0.0
    for hfov, vfov in [(90.0, 45.0), (120.0, 60.0), (73.0, 100.0)]:
        masks = frustum_masks(CameraPose(np.eye(3), hfov, vfov), 256)
        measured = (w * masks).sum()
        analytic = frustum_solid_angle(hfov, vfov)
        worst_rel = max(worst_rel, abs(measured - analytic) / analytic)
    assert worst_rel <= 0.01
    report(1, f"round-trip err {max(err_c, err_e):.4f} <= 0.02; "
              f"frustum solid angle within {worst_rel * 100:.2f}% <= 1%")


def test_criterion_2_planner_oracle_equivalence():
    rng = np.random.default_rng(2002)
    res, n, t_win = 16, 8, 4
    for _ in range(100):
        masks = np.stack([(rng.random((n, res, res)) < rng.uniform(0.1, 0.9))
                          .astype(np.uint8) for f in FACES], axis=1)
        plan = plan_order(window_coverage(frame_coverage(masks), t_win))
        expect = []
        for s in range(0, n, t_win):
            e = s + t_win
            means = {f: sum(int(masks[t, FACE_INDEX[f], i, j]) for t in range(s, e)
                            for i in range(res) for j in range(res))
                     / (t_win * res * res) for f in FACES}
            order = sorted(FACES, key=lambda f: (-means[f], FACE_INDEX[f]))
            expect.extend((f, s, e) for f in order)
        steps = plan_steps(plan, t_win)
        assert [(d["face"], d["s"], d["e"]) for d in steps] == expect
    report(2, "plan_order equals the brute-force sort oracle on 100 random "
              "mask tensors")


def test_criterion_3_fragment_minimality():
    rng = np.random.default_rng(2003)
    n, e_w, t_frag, r = 16, 8, 4, 0.5
    for _ in range(100):
        vals = rng.random((6, n)) ** 2
        face = FACES[int(rng.integers(6))]
        frags = select_future_fragments(vals, face, e_w, t_frag, r, n)
        by_face = {fr.face: fr for fr in frags}
        for g in (face, *adjacent_faces(face)):
            row = vals[FACE_INDEX[g]]
            ok = [tau for tau in range(e_w, n - t_frag + 1)
                  if row[tau:tau + t_frag].mean() >= r]
            if g in by_face:
                tau_star = by_face[g].start
                assert tau_star == ok[0]
                assert all(row[tau:tau + t_frag].mean() < r
                           for tau in range(e_w, tau_star))
            else:
                assert not ok
    report(3, "every selected tau* is threshold-minimal under exhaustive scan "
              "(100 random series)")


def test_criterion_4_attention_equivalence():
    rng = np.random.default_rng(2004)
    worst = 0.0
    instances = 0
    for g in (4, 16, 64):
        for c in (0, 8, 64, 256):
            for kb in (2, 8, 32):
                layout = TokenLayout(num_generation=g, num_context=c)
                spec = BandedMaskSpec(bandwidth=kb)
                mask = mask_matrix(layout, spec)
                for _ in range(2):
                    shape = (1, g + c, 8)
                    inp = AttentionInputs(
                        queries=rng.normal(size=shape).astype(np.float32),
                        keys=rng.normal(size=shape).astype(np.float32),
                        values=rng.normal(size=shape).astype(np.float32))
                    sparse = sparse_context_attention(inp, layout, spec)
                    dense = dense_masked_attention(inp, mask)
                    worst = max(worst, float(np.abs(sparse - dense).max()))
                    instances += 1
    assert instances >= 50
    assert worst < 1e-5
    report(4, f"sparse==dense within {worst:.2e} < 1e-5 over {instances} "
              "single-precision instances")


def test_criterion_5_linear_complexity_and_wall_clock():
    g, kb, d = 64, 16, 32
    spec = BandedMaskSpec(bandwidth=kb)
    cs = np.array([64, 128, 256, 512, 1024, 2048, 4096], dtype=float)
    sparse = np.array([attention_flops(
        TokenLayout(num_generation=g, num_context=int(c)), spec, d) for c in cs])
    dense = np.array([dense_attention_flops(
        TokenLayout(num_generation=g, num_context=int(c)), d) for c in cs])

    def linear_r2(y):
        a = np.vstack([cs, np.ones_like(cs)]).T
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        res = y - a @ coef
        return 1.0 - (res ** 2).sum() / ((y - y.mean()) ** 2).sum()

    r2_sparse, r2_dense = linear_r2(sparse), linear_r2(dense)
    assert r2_sparse >= 0.999
    assert r2_dense < 0.999

    c = 4096
    rng = np.random.default_rng(2005)
    shape = (1, g + c, d)
    inp = AttentionInputs(queries=rng.normal(size=shape).astype(np.float32),
                          keys=rng.normal(size=shape).astype(np.float32),
                          values=rng.normal(size=shape).astype(np.float32))
    layout = TokenLayout(num_generation=g, num_context=c)
    mask = mask_matrix(layout, spec)

    def best_ms(fn, trials=3):
        best = float("inf")
        for _ in range(trials):
            t0 = time.perf_counter()
            fn()
            best = min(best, (time.perf_counter() - t0) * 1000.0)
        return best

    sparse_context_attention(inp, layout, spec)  # warm up
    dense_masked_attention(inp, mask)
    ms_sparse = best_ms(lambda: sparse_context_attention(inp, layout, spec))
    ms_dense = best_ms(lambda: dense_masked_attention(inp, mask))
    ratio = ms_sparse / ms_dense
    assert ratio <= 0.35
    report(5, f"flops linear fit R2={r2_sparse:.6f} (dense {r2_dense:.4f} fails); "
              f"wall-clock ratio {ratio:.3f} <= 0.35 at C=4096")


def test_criterion_6_continuity():
    res = 64
    cube = smooth_field(face_directions(res))
    smooth_seam = seam_metric(cube)
    assert smooth_seam <= 0.05

    offset = cube.copy()
    offset[FACE_INDEX["F"]] += 0.5
    before = seam_metric(offset)
    pad = 4
    shifted = pad_face(cube[None], "F", pad) + 0.5
    canvas = offset[None].copy()
    blend_overlaps(shifted, canvas, "F", pad)
    after = seam_metric(canvas[0])
    assert after < before

    assert corner_cycle_identity()
    report(6, f"smooth seam {smooth_seam:.4f} <= 0.05; blending reduces an "
              f"injected seam {before:.3f} -> {after:.3f}; all 8 corner "
              "3-cycles compose to identity")


def test_criterion_7_positional_continuity():
    res = 16
    checks = {("U", "F"): "bottom", ("F", "D"): "bottom",
              ("L", "F"): "right", ("F", "R"): "right", ("R", "B"): "right"}
    for (fa, fb), edge in checks.items():
        adj = edge_adjacency()[(fa, edge)]
        assert adj.neighbor == fb and not adj.flipped
        pa, pb = face_position_grid(res, fa), face_position_grid(res, fb)
        for pos in range(res):
            if edge == "bottom":
                ra, ca = pa[res - 1, pos]
                rb, cb = pb[0, pos]
                assert rb - ra == 1 and cb == ca
            else:
                ra, ca = pa[pos, res - 1]
                rb, cb = pb[pos, 0]
                assert cb - ca == 1 and rb == ra
    report(7, "flattened coordinates step by exactly 1 across U/F, F/D, L/F, "
              "F/R, R/B edges")


def test_criterion_8_sampler_exactness():
    rng = np.random.default_rng(2008)
    z0 = rng.normal(size=(4, 32, 32, 3))
    worst = 0.0
    for steps in (1, 4, 16):
        z = np.random.default_rng(steps).standard_normal(z0.shape)
        out = euler_sample(oracle_denoiser(z0), z, None, steps)
        worst = max(worst, float(np.abs(out - z0).max()))
    assert worst <= 1e-6
    report(8, f"oracle sampler error {worst:.2e} <= 1e-6 for S in {{1,4,16}}")


def test_criterion_9_end_to_end_oracle_run(tmp_path):
    cfg_dict = {
        "resolution": 64, "equirect_width": 256, "num_frames": 8,
        "window_length": 4, "history": 2, "pad": 4, "sampler_steps": 4,
        "seed": 7, "channels": 3,
        "scene": {"protocol": "paper", "anchors": 3, "hfov_deg": 90.0,
                  "vfov_deg": 60.0},
        "mode": {"teacher_forcing": True, "denoiser": "oracle"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", str(cfg_path),
                     "--out", str(out)]) == 0

    from cubegen.imgio import read_pfm
    scene = sc.SyntheticScene.random(3, 7)
    expected = sc.render_equirect_video(scene, 256, 8)
    got = np.stack([read_pfm(out / f"frame_{t:03d}.pfm") for t in range(8)])
    err = np.abs(got - expected).max()
    assert err <= 0.02

    rep = json.loads((out / "run_report.json").read_text())
    h = cfg_dict["history"]
    assert max(rep["pool_trace"]) <= h
    max_frag = max(s["fragments"] for s in rep["steps"])
    assert rep["peak_resident"] <= 6 * (h + 1) + max_frag
    report(9, f"oracle run reproduces the scene (max err {err:.4f} <= 0.02); "
              f"pool <= {h}; peak resident {rep['peak_resident']} <= "
              f"{6 * (h + 1) + max_frag}")


def test_criterion_10_subcommand_determinism(tmp_path):
    cfg_dict = {
        "resolution": 32, "equirect_width": 128, "num_frames": 8,
        "window_length": 4, "pad": 2, "sampler_steps": 2, "seed": 5,
        "mode": {"teacher_forcing": True, "denoiser": "oracle"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    wall_clock_files = {"timings.json"}  # documented non-deterministic sidecar
    for sub in ("project", "plan", "context", "attend-bench", "generate",
                "metrics"):
        extra = ["--trials", "0"] if sub == "attend-bench" else []
        out_a, out_b = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_a),
                         *extra]) == 0
        assert cli.main([sub, "--config", str(cfg_path), "--out", str(out_b),
                         *extra]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        assert names_a == sorted(p.name for p in out_b.iterdir())
        for name in names_a:
            if name in wall_clock_files:
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{sub}/{name}"
    report(10, "all six subcommands emit byte-identical artifacts across "
               "repeat runs (wall-clock sidecars excluded by contract)")
