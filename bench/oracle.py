"""Oracles that judge each command's answer without using splitsurf.

Surface vertices are checked against hand-written antiderivatives, one real
function per null coordinate p = u + v and q = u - v: for holomorphic psi the
integral from z0 to z splits into F+(p) - F+(p0) and F-(q) - F-(q0), and the
real part of the curve is their mean.  Decisions are checked against the
answer known by construction of the pair.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.polynomial import Polynomial

VERTEX_TOL = 1e-8
# nodes with |E| below this share of max |E| may be marked degenerate
DEGENERATE_RTOL = 1e-9
GAUGE_TOL = 1e-9
SCALE_RTOL = 1e-8
ENNEPER_VERDICT = "EnneperNegative"


# ---------------------------------------------------------------------------
# per-null-coordinate antiderivatives of the three curve components
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def side_integrands(family: dict):
    """[(psi_k on the p side, psi_k on the q side)] for f = exp(a z) F(z) or f = 1.

    psi = (-f(1+g^2)/2, (J/2) f(1-g^2), f g) with real coefficients, so each
    side is the same real function of its null coordinate, except that J is
    +1 on the p side and -1 on the q side.
    """
    kind = family["kind"]
    if kind == "exp_poly":
        a, F, G = family["a"], Polynomial(family["f"]), Polynomial(family["g"])
        f, g = (lambda t: np.exp(a * t) * F(t)), G
    elif kind == "sqrt":  # g^2 = z + c
        f, g = (lambda t: 1.0), (lambda t: np.sqrt(t + family["c"]))
    elif kind == "pole":  # g = 1/(z - c)
        f, g = (lambda t: 1.0), (lambda t: 1.0 / (t - family["c"]))
    else:
        raise ValueError("unknown family %r" % kind)
    psi1 = lambda t: -f(t) * (1 + g(t) ** 2) / 2
    psi2 = lambda t: f(t) * (1 - g(t) ** 2) / 2
    psi3 = lambda t: f(t) * g(t)
    return [(psi1, psi1), (psi2, lambda t: -psi2(t)), (psi3, psi3)]


def gauss_legendre_antiderivative(phi):
    """t -> integral of phi over [0, t], by 40-point Gauss-Legendre.

    Used for the entire exp-polynomial integrands on short intervals, where the
    rule is exact to rounding; unlike the closed form exp(a t) sum_j (-1)^j
    R^(j)(t) / a^(j+1) it does not cancel catastrophically when a is small.
    """

    def F(t):
        t = np.asarray(t, float)
        s = 0.5 * t[..., None] * (_GL_NODES + 1.0)
        return 0.5 * t * np.sum(_GL_WEIGHTS * phi(s), axis=-1)

    return F


def side_antiderivatives(family: dict):
    """[(F+, F-)] with F' = psi_k on each side; see side_integrands."""
    kind = family["kind"]
    if kind == "exp_poly":
        return [tuple(map(gauss_legendre_antiderivative, pair)) for pair in side_integrands(family)]
    c = family["c"]
    if kind == "sqrt":
        F1 = lambda t: -(t + (t + c) ** 2 / 2) / 2
        F2 = lambda t: (t - (t + c) ** 2 / 2) / 2
        F3 = lambda t: (2.0 / 3.0) * (t + c) ** 1.5
    else:
        F1 = lambda t: -(t - 1.0 / (t - c)) / 2
        F2 = lambda t: (t + 1.0 / (t - c)) / 2
        F3 = lambda t: np.log(np.abs(t - c))
    return [(F1, F1), (F2, lambda t: -F2(t)), (F3, F3)]


def _null_grid(us, vs):
    U, V = np.meshgrid(np.asarray(us, float), np.asarray(vs, float), indexing="ij")
    return U + V, U - V


def conformal_factor(family: dict, us, vs) -> np.ndarray:
    """E = <x_u, x_u> of the real part: -a1^2 + a2^2 + a3^2 with a = Re psi."""
    P, Q = _null_grid(us, vs)
    E = np.zeros(P.shape)
    with np.errstate(all="ignore"):
        for k, (fp, fm) in enumerate(side_integrands(family)):
            a = 0.5 * (fp(P) + fm(Q))
            E += a * a if k else -a * a
    return E


def singular_values(family: dict):
    """Null-coordinate values where the integrand is singular (same on both sides)."""
    return [family["c"]] if family["kind"] == "pole" else []


def expected_points(family: dict, us, vs, p0: float = 0.0, q0: float = 0.0) -> np.ndarray:
    """Real part of the integral curve from z0 = (p0, q0) on the us x vs grid."""
    P, Q = _null_grid(us, vs)
    shape = P.shape
    # each side is a function of one null coordinate: evaluate it once per value
    P, p_at = np.unique(P, return_inverse=True)
    Q, q_at = np.unique(Q, return_inverse=True)
    out = np.empty(shape + (3,))
    with np.errstate(all="ignore"):
        for k, (Fp, Fm) in enumerate(side_antiderivatives(family)):
            out[..., k] = 0.5 * ((Fp(P) - Fp(p0))[p_at] + (Fm(Q) - Fm(q0))[q_at]).reshape(shape)
    return out


def reachable_mask(us, vs, singular, p0: float = 0.0, q0: float = 0.0) -> np.ndarray:
    """Nodes whose [p0, p] and [q0, q] null segments avoid every singular value."""
    P, Q = _null_grid(us, vs)
    ok = np.ones(P.shape, bool)
    for s in singular:
        ok &= ~((np.minimum(P, p0) <= s) & (s <= np.maximum(P, p0)))
        ok &= ~((np.minimum(Q, q0) <= s) & (s <= np.maximum(Q, q0)))
    return ok


# ---------------------------------------------------------------------------
# readers for the three mesh formats, written with numpy and json only
# ---------------------------------------------------------------------------


def read_obj(path: str):
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts.append(line[2:])
            elif line.startswith("f "):
                faces.append(line[2:])
    v = np.array(" ".join(verts).split(), float).reshape(-1, 3)
    f = np.array(" ".join(faces).split(), int).reshape(-1, 3)
    return v, f


def read_csv(path: str):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    vals = np.array(body.replace("\n", ",").split(",")[:-1], float).reshape(-1, len(header))
    return header, vals


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def grid_faces(valid: np.ndarray) -> np.ndarray:
    """OBJ faces for a valid mask: two triangles per cell with four valid corners,
    cells in row-major order, vertices numbered from 1 in row-major order."""
    idx = np.cumsum(valid.ravel()).reshape(valid.shape)
    cell = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    a, b = idx[:-1, :-1][cell], idx[1:, :-1][cell]
    c, d = idx[1:, 1:][cell], idx[:-1, 1:][cell]
    return np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], axis=1).reshape(-1, 3)


def align_obj(verts: np.ndarray, ref: np.ndarray, must: np.ndarray) -> np.ndarray:
    """Valid mask of an OBJ vertex list, which holds the valid nodes in row-major order.

    Nodes in `must` take the next vertex; any other node takes it only when
    the vertex matches the node's expected point.
    """
    flat_ref, flat_must = ref.reshape(-1, 3), must.ravel()
    valid = np.zeros(flat_must.shape, bool)
    k = 0
    for node in range(len(flat_must)):
        if k == len(verts):
            break
        if flat_must[node] or np.max(np.abs(verts[k] - flat_ref[node])) <= VERTEX_TOL:
            valid[node] = True
            k += 1
    if k != len(verts):
        raise ValueError("%d obj vertices match no grid node" % (len(verts) - k))
    return valid.reshape(must.shape)


# ---------------------------------------------------------------------------
# verdicts per command
# ---------------------------------------------------------------------------


def _mesh_from_file(fmt: str, path: str, us, vs, ref, must):
    """(points, valid) as written, on the requested grid; ValueError when malformed."""
    n, m = len(us), len(vs)
    if fmt == "obj":
        verts, faces = read_obj(path)
        valid = align_obj(verts, ref, must)
        if not np.array_equal(faces, grid_faces(valid)):
            raise ValueError("obj faces do not triangulate the valid cells")
        pts = np.full((n, m, 3), np.nan)
        pts[valid] = verts
        return pts, valid
    if fmt == "csv":
        header, vals = read_csv(path)
        if vals.shape[0] != n * m:
            raise ValueError("csv holds %d rows, expected %d" % (vals.shape[0], n * m))
        fus = vals[:, header.index("u")].reshape(n, m)[:, 0]
        fvs = vals[:, header.index("v")].reshape(n, m)[0, :]
        pts = vals[:, [header.index(k) for k in ("x1", "x2", "x3")]].reshape(n, m, 3)
        valid = np.all(np.isfinite(pts), axis=-1)
    else:
        obj = read_json(path)
        fus, fvs = np.array(obj["us"], float), np.array(obj["vs"], float)
        pts = np.array(obj["points"], dtype=float)
        valid = np.array(obj["valid"], dtype=bool)
        if pts.shape != (n, m, 3) or valid.shape != (n, m):
            raise ValueError("json mesh has shape %s" % (pts.shape,))
        if not np.array_equal(valid, np.all(np.isfinite(pts), axis=-1)):
            raise ValueError("json valid mask disagrees with its finite points")
    if fus.shape != us.shape or fvs.shape != vs.shape or \
            np.max(np.abs(fus - us)) > 1e-12 or np.max(np.abs(fvs - vs)) > 1e-12:
        raise ValueError("sample coordinates differ from the requested grid")
    return pts, valid


def check_generate(check: dict, rc: int, report) -> tuple[bool, str, dict]:
    """Accept a generate command when its mesh matches the closed form node by node.

    Valid nodes must be reachable and within VERTEX_TOL of the expected point.
    On a family without singular lines every node must be valid, except where
    the conformal factor nearly vanishes and the tangent plane degenerates.
    """
    if rc != 0 or not isinstance(report, dict) or report.get("command") != "generate":
        return False, "exit %s without a generate report" % rc, {}
    n = check["grid"]
    u0, u1, v0, v1 = check["domain"]
    us, vs = np.linspace(u0, u1, n), np.linspace(v0, v1, n)
    family = check["family"]
    reach = reachable_mask(us, vs, singular_values(family))
    ref = expected_points(family, us, vs)
    if singular_values(family):
        must = np.zeros(reach.shape, bool)
    else:
        E = np.abs(conformal_factor(family, us, vs))
        must = reach & (E > DEGENERATE_RTOL * max(1.0, E.max()))
    try:
        pts, valid = _mesh_from_file(check["format"], check["out"], us, vs, ref, must)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return False, "unreadable %s: %s" % (check["format"], exc), {}
    counts = {"nodes": n * n, "valid": int(valid.sum()), "reachable": int(reach.sum())}
    if report.get("invalid_samples") != n * n - counts["valid"]:
        return False, "report counts %s invalid samples, file %d" % (
            report.get("invalid_samples"), n * n - counts["valid"]), counts
    if np.any(valid & ~reach):
        return False, "%d valid nodes are unreachable" % int(np.sum(valid & ~reach)), counts
    if np.any(must & ~valid):
        return False, "%d regular nodes are invalid" % int(np.sum(must & ~valid)), counts
    if not valid.any():
        return False, "no valid node", counts
    err = float(np.max(np.abs(pts[valid] - ref[valid])))
    counts["max_err"] = err
    if not err <= VERTEX_TOL:
        return False, "max vertex error %.3e > %.0e" % (err, VERTEX_TOL), counts
    return True, "", counts


def check_verify(rc: int, report) -> tuple[bool, str, dict]:
    """A verify report is accepted when it is well formed; its gate verdicts are counted."""
    if rc not in (0, 1) or not isinstance(report, dict) or report.get("command") != "verify":
        return False, "exit %s without a verify report" % rc, {}
    gates = report.get("gates")
    if not isinstance(gates, dict) or not gates:
        return False, "verify report has no gates", {}
    verdicts = [g.get("pass") for g in gates.values() if isinstance(g, dict)]
    if len(verdicts) != len(gates) or not all(isinstance(v, bool) for v in verdicts):
        return False, "a gate lacks a boolean verdict", {}
    if report.get("pass") is not all(verdicts) or (rc == 0) is not report["pass"]:
        return False, "overall verdict or exit code disagrees with the gates", {}
    return True, "", {"gates": len(verdicts), "gates_passed": sum(verdicts)}


def check_coincide(check: dict, result) -> tuple[bool, str, dict]:
    if not isinstance(result, dict) or "coincide" not in result:
        return False, "no decision returned", {}
    counts = {"discrepancy": result.get("discrepancy")}
    if result["coincide"] is not check["expect"]:
        return False, "%s: coincide=%s, expected %s (discrepancy %.3g)" % (
            check["case"], result["coincide"], check["expect"], result.get("discrepancy") or 0.0), counts
    if check["gauge"] is not None:
        eps, A, B = check["gauge"]
        if result["eps"] != eps or abs(result["A"] - A) > GAUGE_TOL or abs(result["B"] - B) > GAUGE_TOL:
            return False, "%s: gauge (%s, %.12g, %.12g), expected (%d, %.12g, %.12g)" % (
                check["case"], result["eps"], result["A"], result["B"], eps, A, B), counts
    return True, "", counts


def check_classify(check: dict, result) -> tuple[bool, str, dict]:
    if not isinstance(result, dict) or result.get("verdict") != ENNEPER_VERDICT:
        return False, "verdict %s, expected %s" % (
            None if not isinstance(result, dict) else result.get("verdict"), ENNEPER_VERDICT), {}
    scale = result.get("scale")
    if scale is None or abs(scale - check["scale"]) > SCALE_RTOL * check["scale"]:
        return False, "scale %s, expected %.12g" % (scale, check["scale"]), {}
    return True, "", {}


def judge(check: dict, answer: dict) -> tuple[bool, str, dict]:
    """Dispatch one command's answer to its oracle."""
    kind = check["check"]
    if kind == "generate":
        return check_generate(check, answer.get("rc"), answer.get("report"))
    if kind == "verify":
        return check_verify(answer.get("rc"), answer.get("report"))
    if kind == "coincide":
        return check_coincide(check, answer.get("result"))
    return check_classify(check, answer.get("result"))
