"""Self-tests of the benchmark's oracle, statistics and input draw.

    python3 -m pytest bench/test_bench.py -q
"""

import json

import numpy as np
import pytest

import inputs
import oracle
import run


def _json_mesh(path, family, n):
    us = np.linspace(-1.0, 1.0, n)
    pts = oracle.expected_points(family, us, us)
    with open(path, "w") as fh:
        json.dump({"us": us.tolist(), "vs": us.tolist(), "points": pts.tolist(),
                   "valid": np.ones((n, n), int).tolist()}, fh)
    return pts


def test_oracle_rejects_vertex_perturbed_by_1e_6(tmp_path):
    family = {"kind": "exp_poly", "a": 0.4, "f": [1.0, 0.2], "g": [0.1, 0.7, -0.2]}
    path = str(tmp_path / "mesh.json")
    check = {"check": "generate", "format": "json", "out": path, "family": family,
             "domain": (-1.0, 1.0, -1.0, 1.0), "grid": 9}
    report = {"command": "generate", "invalid_samples": 0}
    pts = _json_mesh(path, family, 9)
    assert oracle.check_generate(check, 0, report)[0]

    obj = json.load(open(path))
    obj["points"][4][6][2] = pts[4, 6, 2] + 1e-6
    json.dump(obj, open(path, "w"))
    ok, reason, _ = oracle.check_generate(check, 0, report)
    assert not ok and "vertex error" in reason


def test_obj_alignment_skips_only_degenerate_nodes():
    n = 4
    ref = np.arange(n * n * 3, dtype=float).reshape(n, n, 3)
    valid = np.ones((n, n), bool)
    valid[1, 2] = False
    verts = ref[valid]
    may_skip = valid.copy()  # every node but the missing one must be valid
    assert np.array_equal(oracle.align_obj(verts, ref, may_skip), valid)
    assert len(oracle.grid_faces(valid)) == 2 * (9 - 4)
    # when the missing node is required, the vertices shift onto the wrong
    # nodes and the last required node comes out invalid
    shifted = oracle.align_obj(verts, ref, np.ones((n, n), bool))
    assert not shifted[-1, -1]


def test_tail_check_fires_when_tail_below_median():
    times = [1.0 + 0.01 * k for k in range(30)]
    pct = run.percentiles(times)
    assert pct["tail"] >= pct["p50"] and pct["tail"] == sorted(times)[19]
    # a tail taken from another, faster sample than the median
    with pytest.raises(run.BenchError, match="op_s_tail"):
        run.check_tail(pct["p50"], min(times))
    with pytest.raises(run.BenchError, match="jobs"):
        run.percentiles(times[:20])


def test_reachable_set_matches_hand_count_on_5x5():
    axis = np.linspace(-1.0, 1.0, 5)  # -1, -0.5, 0, 0.5, 1
    # from z0 = 0 the segments [0, p] and [0, q] avoid 0.3 iff p < 0.3 and q < 0.3,
    # i.e. u <= -|v| on this lattice: 5 + 3 + 1 nodes
    hand = np.array([
        [1, 1, 1, 1, 1],
        [0, 1, 1, 1, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ], bool)
    mask = oracle.reachable_mask(axis, axis, [0.3])
    assert mask.sum() == 9
    assert np.array_equal(mask, hand)
    assert np.array_equal(oracle.reachable_mask(axis, axis, [-0.3]), hand[::-1])
    assert oracle.reachable_mask(axis, axis, []).all()


@pytest.mark.parametrize("family", [
    {"kind": "exp_poly", "a": -0.5, "f": [1.1, -0.2], "g": [0.3, 0.8, 0.2]},
    {"kind": "exp_poly", "a": 0.003, "f": [0.9, 0.1], "g": [-0.4, 0.6, -0.1]},
    {"kind": "sqrt", "c": 3.0},
    {"kind": "pole", "c": 0.3},
])
def test_oracle_antiderivatives_differentiate_back(family):
    t = np.linspace(-0.9, 0.25, 7)
    h = 1e-5
    a = family.get("a", 0.0)
    if family["kind"] == "exp_poly":
        F, G = (np.polynomial.Polynomial(family[k]) for k in ("f", "g"))
        f, g = np.exp(a * t) * F(t), G(t)
    elif family["kind"] == "sqrt":
        f, g = 1.0, np.sqrt(t + family["c"])
    else:
        f, g = 1.0, 1.0 / (t - family["c"])
    psi = [-f * (1 + g * g) / 2, f * (1 - g * g) / 2, f * g]
    for k, (Fp, Fm) in enumerate(oracle.side_antiderivatives(family)):
        for side, F_ in ((1, Fp), (-1, Fm)):
            deriv = (F_(t + h) - F_(t - h)) / (2 * h)
            want = psi[k] * (side if k == 1 else 1)
            assert np.allclose(deriv, want, rtol=1e-7, atol=1e-7)


def test_input_draw_is_fixed_by_seed():
    for workload in inputs.WORKLOADS:
        a = inputs.draw_job(workload, 7, 3, "tmp")
        b = inputs.draw_job(workload, 7, 3, "tmp")
        c = inputs.draw_job(workload, 8, 3, "tmp")
        assert a == b and a["commands"] != c["commands"]
        assert len(a["commands"]) == len(a["checks"])
