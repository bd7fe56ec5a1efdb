"""Seeded input draws for the three workloads.

Every job is drawn from its own generator, ``default_rng([seed, workload, job])``,
so the same seed gives the same jobs whatever the run length.  A job is a fixed
sequence of commands for the worker plus, per command, the facts the oracle
needs to judge the answer.  Nothing here imports splitsurf: the program only
receives the generated expression strings, domains and grids.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("export", "quadrature", "equivalence")

EXPORT_GRID = 101
QUAD_GRID = 33
EQUIV_GRID = 41
EXPORT_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
QUAD_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
# for canonical g = z^2 + b z + c with b >= 0.8, c >= 2.5: null components of
# g' stay >= 0.4 and |g|^2 > 4, away from both blow-up loci
VERIFY_DOMAIN = (0.2, 1.0, -0.4, 0.4)
SMALL_A_GRID = 21
POLE_PROBE_GRID = 9
# canonical domain of the equivalence fields: |g|^2 <= 0.3, g' and the
# canonicalization ODE stay inside the square-root cone
EQUIV_DOMAIN = (0.0, 0.4, -0.2, 0.2)


def num(x: float) -> str:
    """Full-precision literal the expression parser reads back exactly."""
    return repr(float(x))


def dnum(re: float, im: float) -> str:
    """Split-complex literal re + im*J."""
    return "(%s+%sJ)" % (num(re), num(im))


def domain_arg(domain) -> str:
    return "--domain=" + ":".join(num(x) for x in domain)


def grid_arg(n: int) -> str:
    return "--grid=%dx%d" % (n, n)


def job_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])


# ---------------------------------------------------------------------------
# closed-form families, described by real polynomial coefficients so that the
# oracle can integrate them by hand, one null coordinate at a time
# ---------------------------------------------------------------------------


def poly_str(coeffs) -> str:
    """c0 + c1*z + c2*z^2 + ... as parser input."""
    terms = [num(coeffs[0])]
    for k, c in enumerate(coeffs[1:], start=1):
        terms.append("%s*z^%d" % (num(c), k))
    return "(" + "+".join(terms) + ")"


def _exp_poly_pair(rng: np.random.Generator, a_lo: float, a_hi: float) -> tuple[dict, list]:
    """f = exp(a z) (f0 + f1 z), g = g0 + g1 z + g2 z^2, with a_lo <= |a| <= a_hi."""
    a = rng.choice([-1.0, 1.0]) * rng.uniform(a_lo, a_hi)
    fpoly = [rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3)]
    gpoly = [rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.0), rng.uniform(-0.3, 0.3)]
    family = {"kind": "exp_poly", "a": float(a), "f": fpoly, "g": gpoly}
    f_text = "exp(%s*z)*%s" % (num(a), poly_str(fpoly))
    return family, ["--f=" + f_text, "--g=" + poly_str(gpoly), domain_arg(EXPORT_DOMAIN)]


def draw_export(rng: np.random.Generator, index: int, tmpdir: str) -> dict:
    """One closed-form pair written as OBJ, CSV and JSON, then the CSV read back.

    A fifth, small command generates a pair with |a| <= 0.004, where the
    closed-form exp-polynomial antiderivative loses digits to cancellation.
    """
    family, data = _exp_poly_pair(rng, 0.3, 0.6)
    probe_family, probe_data = _exp_poly_pair(rng, 0.002, 0.004)
    base = "%s/job%d" % (tmpdir, index)
    commands, checks = [], []
    for fmt in ("obj", "csv", "json"):
        out = "%s.%s" % (base, fmt)
        commands.append(["generate", *data, grid_arg(EXPORT_GRID), "--format", fmt, "--out", out])
        checks.append({"check": "generate", "format": fmt, "out": out, "family": family,
                       "domain": EXPORT_DOMAIN, "grid": EXPORT_GRID})
    commands.append(["verify", "--from-csv", base + ".csv"])
    checks.append({"check": "verify", "grid": EXPORT_GRID})
    probe = base + "_small_a.json"
    commands.append(["generate", *probe_data, grid_arg(SMALL_A_GRID), "--format", "json", "--out", probe])
    checks.append({"check": "generate", "format": "json", "out": probe, "family": probe_family,
                   "domain": EXPORT_DOMAIN, "grid": SMALL_A_GRID, "case": "small_exponent"})
    return {"commands": commands, "checks": checks,
            "files": [base + ".obj", base + ".csv", base + ".json", probe]}


def draw_quadrature(rng: np.random.Generator, index: int, tmpdir: str) -> dict:
    """Three quadrature-bound commands on a 33x33 grid, and one small probe.

    The pole of 1/(z - c) sits between two lattice lines of p and q, at least
    a quarter step from either.  The 9x9 probe puts it 1e-6..1e-5 below a
    lattice line, so the nodes on that line are unreachable but have a huge
    conformal factor, and every other node falls below the degeneracy
    threshold, which is relative to the largest one.
    """
    h = (QUAD_DOMAIN[1] - QUAD_DOMAIN[0]) / (QUAD_GRID - 1)
    c_sqrt = rng.uniform(2.5, 3.5)
    c_pole = (rng.integers(3, 8) + rng.uniform(0.25, 0.75)) * h
    c_probe = 0.25 - rng.uniform(1e-6, 1e-5)
    b = rng.uniform(0.8, 1.2)
    c_can = rng.uniform(2.5, 3.5)
    base = "%s/job%d" % (tmpdir, index)
    common = [domain_arg(QUAD_DOMAIN), grid_arg(QUAD_GRID), "--format", "json"]
    commands = [
        ["generate", "--f=1", "--g=sqrt(z+%s)" % num(c_sqrt), *common, "--out", base + "_sqrt.json"],
        ["generate", "--f=1", "--g=1/(z-%s)" % num(c_pole), *common, "--out", base + "_pole.json"],
        ["verify", "--canonical", "--g=" + poly_str([c_can, b, 1.0]),
         domain_arg(VERIFY_DOMAIN), grid_arg(QUAD_GRID)],
        ["generate", "--f=1", "--g=1/(z-%s)" % num(c_probe), domain_arg(QUAD_DOMAIN),
         grid_arg(POLE_PROBE_GRID), "--format", "json", "--out", base + "_probe.json"],
    ]
    checks = [
        {"check": "generate", "format": "json", "out": base + "_sqrt.json",
         "family": {"kind": "sqrt", "c": c_sqrt}, "domain": QUAD_DOMAIN, "grid": QUAD_GRID},
        {"check": "generate", "format": "json", "out": base + "_pole.json",
         "family": {"kind": "pole", "c": c_pole}, "domain": QUAD_DOMAIN, "grid": QUAD_GRID},
        {"check": "verify", "grid": QUAD_GRID},
        {"check": "generate", "format": "json", "out": base + "_probe.json",
         "family": {"kind": "pole", "c": c_probe}, "domain": QUAD_DOMAIN, "grid": POLE_PROBE_GRID,
         "case": "pole_near_lattice"},
    ]
    return {"commands": commands, "checks": checks,
            "files": [base + "_sqrt.json", base + "_pole.json", base + "_probe.json"]}


# ---------------------------------------------------------------------------
# equivalence: pairs whose answer is known by construction
# ---------------------------------------------------------------------------

ENNEPER = (
    {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): -1 / 2},
    {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): 1 / 2},
    {(2, 0): 1 / 2, (0, 2): 1 / 2},
)


def lorentz_motion(phi: float, theta: float) -> np.ndarray:
    """Boost in (x1, x2) followed by a rotation in (x2, x3); in SO+(1,2)."""
    ch, sh = np.cosh(phi), np.sinh(phi)
    c, s = np.cos(theta), np.sin(theta)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return rot @ boost


def moved_cubic(matrix, translation, scale) -> list:
    """Coefficient maps of scale * matrix @ x + translation for Enneper's x."""
    keys = sorted(set().union(*ENNEPER) | {(0, 0)})
    out = []
    for k in range(3):
        comp = {}
        for key in keys:
            val = scale * sum(matrix[k][l] * ENNEPER[l].get(key, 0.0) for l in range(3))
            if key == (0, 0):
                val += translation[k]
            if val != 0.0:
                comp[key] = val
        out.append(comp)
    return out


# canonical g of a pair whose shift by (3h, 7h) the coarse shift search misses
ODD_SHIFT_G = "(z^2+1.0187995116067217*z+(-0.10314774187784814+0.1327512840629668J))"


def draw_equivalence(rng: np.random.Generator, index: int, tmpdir: str) -> dict:
    """Five surfaces_coincide decisions and one classify_cubic call.

    Canonical g = z^2 + b z + m against g(z + s) for a lattice shift s and for
    one half a step off the lattice (same surface, gauge A, B = s), and
    against its fractional Moebius image (same surface, identity gauge); the
    general pair (1, g) against its reparametrization by w = a z (same
    surface, identity gauge); (1, k z + g0) against (1, lam (k z + g0)) (a
    different surface).  Then a seeded motion and homothety of Enneper's
    cubic, whose scale classify_cubic must recover.

    Two fixed probes ride along: an odd lattice shift that the coarse shift
    search misses, and Enneper rotated 0.004 rad from the identity, which
    classify_cubic calls degenerate.  The seeded cases keep the lattice shift
    even and the rotation at least 0.1 rad from the identity, where neither
    defect was seen in 300 and 1000 draws.
    """
    n = EQUIV_GRID
    h = (EQUIV_DOMAIN[1] - EQUIV_DOMAIN[0]) / (n - 1)
    b = rng.uniform(0.9, 1.1)
    # the J part of m breaks the v -> -v symmetry real coefficients give K,
    # under which a one-column overlap would match exactly
    m = dnum(rng.uniform(-0.3, -0.1), rng.uniform(0.05, 0.15))
    g_text = "(z^2+%s*z+%s)" % (num(b), m)

    def shifted(su, sv):
        s = dnum(su, sv)
        return "(z+%s)^2+%s*(z+%s)+%s" % (s, num(b), s, m)

    ku, kv = (2 * int(k) for k in rng.integers(2, 4, size=2))
    lattice = (ku * h, kv * h)
    off = ((ku + 0.5) * h, 0.0)
    alpha = rng.uniform(-0.05, 0.05, size=2)
    phi = rng.uniform(-0.5, 0.5)
    unit = dnum(np.cosh(phi), np.sinh(phi))
    moebius = "%s*(%s+%s)/(1+%s*%s)" % (unit, dnum(*alpha), g_text, dnum(alpha[0], -alpha[1]), g_text)
    a = rng.uniform(0.7, 1.4)
    reparam = {"f": num(a), "g": "(%s*z)^2+%s*(%s*z)+%s" % (num(a), num(b), num(a), m)}
    k = rng.uniform(0.6, 1.0)
    g0 = dnum(rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.1))
    lam = rng.uniform(1.5, 2.0)
    lin = "(%s*z+%s)" % (num(k), g0)
    decisions = [
        ("lattice_shift", {"g": g_text}, {"g": shifted(*lattice)}, True, (1, lattice[0], lattice[1])),
        ("offlattice_shift", {"g": g_text}, {"g": shifted(*off)}, True, (1, off[0], off[1])),
        ("moebius", {"g": g_text}, {"g": moebius}, True, (1, 0.0, 0.0)),
        ("reparam", {"f": "1", "g": g_text}, reparam, True, (1, 0.0, 0.0)),
        ("scaled_g", {"f": "1", "g": lin}, {"f": "1", "g": "%s*%s" % (num(lam), lin)}, False, None),
        ("odd_lattice_shift", {"g": ODD_SHIFT_G}, {"g": ODD_SHIFT_G.replace("z", "(z+(0.03+0.07J))")},
         True, (1, 0.03, 0.07)),
    ]
    commands, checks = [], []
    for name, d1, d2, expect, gauge in decisions:
        commands.append({"op": "coincide", "data1": d1, "data2": d2,
                         "domain": EQUIV_DOMAIN, "grid": n})
        checks.append({"check": "coincide", "case": name, "expect": expect, "gauge": gauge, "grid": n})
    scale = rng.uniform(0.5, 3.0)
    motion = lorentz_motion(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 2 * np.pi - 0.1))
    translation = rng.uniform(-1.0, 1.0, size=3)
    for case, maps, scale in (
        ("enneper_moved", moved_cubic(motion, translation, scale), scale),
        ("enneper_small_rotation", moved_cubic(lorentz_motion(0.3, 0.004), (0.4, -1.0, 0.2), 2.0), 2.0),
    ):
        commands.append({"op": "classify", "maps": [[[i, j, c] for (i, j), c in comp.items()] for comp in maps]})
        checks.append({"check": "classify", "case": case, "scale": scale})
    return {"commands": commands, "checks": checks, "files": []}


DRAW = {"export": draw_export, "quadrature": draw_quadrature, "equivalence": draw_equivalence}


def draw_job(workload: str, seed: int, index: int, tmpdir: str) -> dict:
    job = DRAW[workload](job_rng(seed, workload, index), index, tmpdir)
    job["id"] = index
    return job
