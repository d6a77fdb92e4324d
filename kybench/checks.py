"""Output checks for the kadaryu benchmark, made apart from the code path
that produced each payload.

Determinants are checked by a ratio test: a payload determinant D and a
Gram matrix M agree up to a constant factor when
D(x0) * det M(x1) == D(x1) * det M(x0) modulo a seeded 61-bit prime, at two
seeded points outside the interpolation grid the engine uses, with
det M(x0) != 0.  The elimination, the prime, the points, the polynomial
division and the real-root count below are this file's own; the package is
only asked for Gram matrices (assembly) and, where a payload carries no
polynomial, for the closed-form series it certified.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

from kadaryu.diagrams import half_basis, one_cup_basis
from kadaryu.gram import ModuleLabel, factor_one_cup, gram_matrix
from kadaryu.rollet import dimension, tl_recursive_det
from kadaryu.roots import family_series
from kadaryu.symmetric import hook_dimension


class CheckError(AssertionError):
    """A payload disagrees with the independent computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# arithmetic modulo a prime
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        q = rng.randrange(lo, hi) | 1
        if is_prime(q):
            return q


def frac_mod(c: Fraction, q: int) -> int:
    return c.numerator * pow(c.denominator, -1, q) % q


def _horner(high_first: list[int], x: int, q: int) -> int:
    acc = 0
    for c in high_first:
        acc = (acc * x + c) % q
    return acc


def poly_at(coeffs, x: int, q: int) -> int:
    """Value mod q of a polynomial given by Fraction coefficients, low first."""
    return _horner([frac_mod(c, q) for c in reversed(coeffs)], x, q)


def _eliminate(rows: list[list[int]], q: int) -> tuple[int, int]:
    """Gaussian elimination mod q (destructive): (determinant, rank)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    det, rank = 1, 0
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if rows[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        prow = rows[rank]
        det = det * prow[col] % q
        inv = pow(prow[col], -1, q)
        for i in range(rank + 1, n_rows):
            row = rows[i]
            f = row[col] * inv % q
            if f:
                for j in range(col, n_cols):
                    row[j] = (row[j] - f * prow[j]) % q
        rank += 1
    return det % q, rank


def det_mod(rows: list[list[int]], q: int) -> int:
    return _eliminate([list(r) for r in rows], q)[0]


def rank_mod(rows: list[list[int]], q: int) -> int:
    return _eliminate([list(r) for r in rows], q)[1]


def matrix_at(entries, x: int, q: int) -> list[list[int]]:
    """A matrix of coefficient lists evaluated at x mod q."""
    return [[poly_at(e, x, q) for e in row] for row in entries]


class ModCheck:
    """Seeded prime and points for the ratio tests of one run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.q = random_prime(self.rng, 2 ** 60, 2 ** 61)

    def point(self, grid: int) -> int:
        """A residue outside the engine's grid 0, +-1, ..., +-grid."""
        return self.rng.randrange(grid + 1, self.q - grid - 1)

    def ratio_test(self, d_coeffs, entries, what: str) -> None:
        """D and det M agree up to a nonzero constant."""
        grid = len(entries) * max((len(e) for row in entries for e in row), default=1)
        q = self.q
        for _ in range(8):
            x0, x1 = self.point(grid), self.point(grid)
            m0 = det_mod(matrix_at(entries, x0, q), q)
            if m0 and x0 != x1:
                break
        else:
            raise CheckError(f"{what}: Gram determinant vanishes at every check point")
        m1 = det_mod(matrix_at(entries, x1, q), q)
        d0, d1 = poly_at(d_coeffs, x0, q), poly_at(d_coeffs, x1, q)
        require(d0 * m1 % q == d1 * m0 % q,
                f"{what}: determinant is not proportional to det of the Gram matrix")


# ---------------------------------------------------------------------------
# polynomials as Fraction lists (low degree first)
# ---------------------------------------------------------------------------

def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def from_json(d: dict) -> list[Fraction]:
    return trim(Fraction(s) for s in d["coeffs"])


def parse_poly(text: str) -> list[Fraction]:
    """Read the engine's printed form, e.g. '-2 + 1/2*a - a^3'."""
    text = text.strip()
    if text == "0":
        return []
    out: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        if "a" not in term:
            coef, k = Fraction(term), 0
        else:
            if "*" in term:
                c, var = term.split("*")
                coef = Fraction(c)
            else:
                var = term.lstrip("-")
                coef = Fraction(-1 if term.startswith("-") else 1)
            k = int(var[2:]) if var.startswith("a^") else 1
            require(var in ("a", f"a^{k}"), f"unreadable polynomial term {term!r}")
        out[k] = out.get(k, Fraction(0)) + coef
    return trim(out.get(k, Fraction(0)) for k in range(max(out) + 1))


def poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(n))


def poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def poly_rem(a: list, b: list) -> list:
    """Remainder of a by a nonzero b, by schoolbook long division."""
    require(bool(b), "division by the zero polynomial")
    r = list(a)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        r = trim(r)
    return r


def times_x(p: list) -> list:
    return [Fraction(0)] + list(p) if p else []


# ---------------------------------------------------------------------------
# labels, partitions and branching-graph adjacency
# ---------------------------------------------------------------------------

def partitions(r: int) -> list[tuple[int, ...]]:
    if r == 0:
        return [()]
    out = []

    def rec(rest, mx, acc):
        if rest == 0:
            out.append(tuple(acc))
        for part in range(min(mx, rest), 0, -1):
            rec(rest - part, part, acc + [part])

    rec(r, r, [])
    return out


def adjacent(v, w) -> bool:
    """Edge of the branching graph: equal full-size partitions one step
    apart, or one box added going up."""
    (p1, a), (p2, b) = sorted([v, w])
    if p2 != p1 + 1:
        return False
    if sum(a) == sum(b):
        return a == b
    if sum(b) != sum(a) + 1 or len(b) < len(a):
        return False
    a = list(a) + [0] * (len(b) - len(a))
    return all(y >= x for x, y in zip(a, b))


def neighbours(l: int, v) -> list:
    p, _lam = v
    return [(q, mu) for q in (p - 1, p + 1) if q >= 0
            for mu in partitions(min(q, l + 2)) if adjacent(v, (q, mu))]


def half_count(l: int, n: int, p: int) -> int:
    basis = one_cup_basis(l, n) if p == n - 2 else half_basis(l, n, p)
    return len(basis)


def gram_entries(label: ModuleLabel) -> list[list[list[Fraction]]]:
    """The assembled Gram matrix as coefficient lists."""
    return [[list(e.coeffs) for e in row] for row in gram_matrix(label).matrix.entries]


# ---------------------------------------------------------------------------
# per-subcommand payload checks
# ---------------------------------------------------------------------------

def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _lam(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",")) if s else ()


def check_gram(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l, n, p = (int(_flag(argv, f)) for f in ("--l", "--n", "--p"))
    lam = _lam(_flag(argv, "--lambda"))
    label = ModuleLabel(l, n, p, lam)
    what = f"gram {label.key()}"
    require(payload["label"] == {"l": l, "n": n, "p": p, "lambda": list(lam)},
            f"{what}: label echoes the wrong module")
    require(payload["dim"] == hook_dimension(lam) * half_count(l, n, p),
            f"{what}: dim differs from hook dimension times half-diagram count")
    det = from_json(payload["det"])
    require(bool(det) and det[-1] == 1, f"{what}: determinant is not monic")
    if "--det" in argv:
        entries = gram_entries(label)
    else:
        entries = [[from_json(e) for e in row] for row in payload["matrix"]]
        require(all(entries[i][j] == entries[j][i]
                    for i in range(len(entries)) for j in range(i)),
                f"{what}: printed Gram matrix is not symmetric")
    require(len(entries) == payload["dim"], f"{what}: matrix size differs from dim")
    mc.ratio_test(det, entries, what)
    if l == -1:
        require(det == list(tl_recursive_det(n, p).monic().coeffs),
                f"{what}: differs from the Temperley-Lieb recursion")


def _term_at(anchor: int, p_n, p_n1, k: int, x: int, q: int) -> int:
    """P_k(x) mod q from two anchors by the three-term recursion."""
    lo, hi = poly_at(p_n, x, q), poly_at(p_n1, x, q)
    j = anchor
    while j > k:  # step down: P_{j-1} = x P_j - P_{j+1}
        lo, hi = (x * lo - hi) % q, lo
        j -= 1
    while j < k:
        lo, hi = hi, (x * hi - lo) % q
        j += 1
    return lo


def check_series(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l = int(_flag(argv, "--l"))
    lam = _lam(_flag(argv, "--lambda"))
    what = f"series l={l} lambda={lam}"
    require(payload["l"] == l and payload["lambda"] == list(lam),
            f"{what}: label echoes the wrong series")
    c = from_json(payload["C"])
    ser = payload["P"]
    require(ser["anchor"] == l + 4, f"{what}: anchor is not l+4")
    p_n, p_n1 = from_json(ser["pN"]), from_json(ser["pN1"])
    d = hook_dimension(lam)
    # C * P_n^d at the anchors and at rank l+6, where the prediction
    # C * (a P_{l+5} - P_{l+4})^d is the paper's claim, not an input
    p_next = poly_sub(times_x(p_n1), p_n)
    for n, p_k in ((l + 4, p_n), (l + 5, p_n1), (l + 6, p_next)):
        pred = c
        for _ in range(d):
            pred = poly_mul(pred, p_k)
        mc.ratio_test(pred, gram_entries(ModuleLabel(l, n, n - 2, lam)),
                      f"{what} at rank {n}")


def check_rollet(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l = int(_flag(argv, "--l"))
    max_n = int(_flag(argv, "--max-n"))
    p_max = int(_flag(argv, "--max-p", max_n))
    decor = {argv[i + 1] for i, a in enumerate(argv) if a == "--decorate"}
    what = f"rollet l={l} max-n={max_n}"
    want = [(p, lam) for p in range(p_max + 1) for lam in partitions(min(p, l + 2))]
    got = [(v["p"], tuple(v["lambda"])) for v in payload["vertices"]]
    require(payload["l"] == l and sorted(got) == sorted(want),
            f"{what}: vertex set differs from the partitions of min(p, l+2)")
    dets = {}
    for v in payload["vertices"]:
        p, lam = v["p"], tuple(v["lambda"])
        fibres = [n for n in range(max_n + 1) if n >= p and (n - p) % 2 == 0]
        require(sorted(map(int, v["fibre"])) == fibres,
                f"{what}: fibres of {(p, lam)} are not the ranks of matching parity")
        for n in fibres:
            require(dimension(l, n, (p, lam)) == hook_dimension(lam) * half_count(l, n, p),
                    f"{what}: walk count at {(p, lam)}, n={n} differs from the module dimension")
            if "det" in decor:
                dets[(p, lam, n)] = from_json(v["fibre"][str(n)]["det"])
    x = mc.point(max_n * max_n)
    for v in payload["vertices"]:
        p, lam = v["p"], tuple(v["lambda"])
        for n_s, entry in v["fibre"].items():
            n = int(n_s)
            if "mvf" not in entry:
                continue
            # marginal vertex function: det_n(v) / prod det_{n-1}(neighbours)
            den = 1
            for (q, mu) in neighbours(l, (p, lam)):
                if q <= n - 1:
                    den = den * poly_at(dets[(q, mu, n - 1)], x, mc.q) % mc.q
            num = poly_at(dets[(p, lam, n)], x, mc.q)
            mvf_n = poly_at(from_json(entry["mvf"]["num"]), x, mc.q)
            mvf_d = poly_at(from_json(entry["mvf"]["den"]), x, mc.q)
            require(mvf_n * den % mc.q == mvf_d * num % mc.q,
                    f"{what}: mvf at {(p, lam)}, n={n} is not det over neighbour dets")
    keys = sorted(dets)
    for p, lam, n in sample.sample(keys, min(6, len(keys))):
        mc.ratio_test(dets[(p, lam, n)], gram_entries(ModuleLabel(l, n, p, lam)),
                      f"{what}: det at {(p, lam)}, n={n}")


def check_verify(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l = int(_flag(argv, "--l"))
    lam = _lam(_flag(argv, "--lambda"))
    max_p, m_max = int(_flag(argv, "--max-p")), int(_flag(argv, "--m"))
    what = f"verify arm l={l} lambda={lam}"
    want = [(p, m) for p in range(l + 2, max_p + 1) for m in range(1, m_max + 1)]
    recs = payload["records"]
    require([(r["p"], r["m"]) for r in recs] == want and payload["lambda"] == list(lam),
            f"{what}: records do not cover the arm")
    one = {"coeffs": ["1"]}
    _c, series = factor_one_cup(l, lam)
    anchor, p_n, p_n1 = series.anchor, list(series.pN.coeffs), list(series.pN1.coeffs)
    q = mc.q
    for r in recs:
        p, m, n = r["p"], r["m"], r["n"]
        require(n == p + 2 * m and r["equal"] and r["residual"] == {"num": one, "den": one},
                f"{what}: record p={p} m={m} is not an exact match")
        # V = det_n(p, lam) / prod det_{n-1}(neighbours), unnormalised, and
        # C = (P_{p+2} / P_{p+1}) ** dim(n-1, (p+1, lam)); V / C is constant
        labels = [ModuleLabel(l, n, p, lam)] + [
            ModuleLabel(l, n - 1, w, mu) for (w, mu) in neighbours(l, (p, lam)) if w <= n - 1]
        mats = [gram_entries(lab) for lab in labels]
        dim = hook_dimension(lam) * half_count(l, n - 1, p + 1)
        vals = []
        for _ in range(2):
            for _ in range(8):
                x = mc.point(4 * n * n)
                dets = [det_mod(matrix_at(e, x, q), q) for e in mats]
                cn = pow(_term_at(anchor, p_n, p_n1, p + 2, x, q), dim, q)
                cd = pow(_term_at(anchor, p_n, p_n1, p + 1, x, q), dim, q)
                if all(dets) and cn and cd:
                    break
            else:
                raise CheckError(f"{what}: no usable check point at p={p} m={m}")
            v = dets[0]
            for dd in dets[1:]:
                v = v * pow(dd, -1, q) % q
            vals.append(v * cd * pow(cn, -1, q) % q)
        require(vals[0] == vals[1], f"{what}: V / C is not constant at p={p} m={m}")


def check_bootstrap(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l, n = int(_flag(argv, "--l")), int(_flag(argv, "--n"))
    lam = _lam(_flag(argv, "--lambda"))
    what = " ".join(argv)
    require(payload["status"] == "pass" and all(c["status"] == "pass" for c in payload["claims"]),
            f"{what}: report does not pass")
    alpha = _flag(argv, "--alpha")
    if alpha is None:
        ids = [c["id"] for c in payload["claims"]]
        want = [f"series-divides-D-n{k}" for k in range(l + 4, n + 1)]
        require(ids == want + (["step-matches-solve"] if n >= l + 5 else []),
                f"{what}: claims are not one divisibility per rank")
        ds = [parse_poly(c["witness"]["D"]) for c in payload["claims"][:len(want)]]
        ps = [parse_poly(c["witness"]["P"]) for c in payload["claims"][:len(want)]]
        for seq, name in ((ds, "D"), (ps, "P")):
            for k in range(2, len(seq)):
                require(seq[k] == poly_sub(times_x(seq[k - 1]), seq[k - 2]),
                        f"{what}: {name}_{l + 4 + k} breaks the three-term recursion")
        for k, (d, p) in enumerate(zip(ds, ps)):
            require(not poly_rem(d, p), f"{what}: P does not divide D at rank {l + 4 + k}")
        return
    # submodule certificate: at a root r of the modulus mod a small prime,
    # the Gram matrix loses at least the certified rank
    modulus = [Fraction(c) for c in alpha[len("minpoly:"):].split(",")]
    label = ModuleLabel(l, n, n - 2, lam)
    entries = gram_entries(label)
    deficiency = next(c["witness"]["rank_deficiency"] for c in payload["claims"]
                      if c["id"] == "radical-nonzero")
    rank = next(c["witness"] for c in payload["claims"] if c["id"] == "translates-independent")
    require(rank["rank"] == rank["expected"] == hook_dimension(lam),
            f"{what}: translates do not span a Specht module")
    for _ in range(200):
        small = random_prime(sample, 5000, 60000)
        ints = [frac_mod(c, small) for c in reversed(modulus)]
        root = next((r for r in range(small) if _horner(ints, r, small) == 0), None)
        if root is not None:
            break
    else:
        raise CheckError(f"{what}: no prime splits off a root of the modulus")
    drop = len(entries) - rank_mod(matrix_at(entries, root, small), small)
    require(drop >= deficiency >= 1,
            f"{what}: rank drop {drop} mod {small} is below the certified {deficiency}")


# -- roots -------------------------------------------------------------------

_INF = math.inf


def _interval_claims(l: int, degree: int) -> dict:
    """Claim id -> (lo, hi, roots expected in (lo, hi])."""
    return {
        "root-beyond-l+2": (l + 2, _INF, 1),
        "total-real-roots": (-_INF, _INF, degree),
        "root-below--2(l+1)": (-_INF, -2 * (l + 1), 1),
        "root-in-(-(l+1),-l)": (-(l + 1), -l, 1),
        "no-root-in-(-l,-2)": (-l, -2, 0),
        "root-beyond-2": (2, _INF, 1),
        "root-below--2l": (-_INF, -2 * l, 1),
        "root-in-(-2l,-l+1)": (-2 * l, -l + 1, 1),
        "root-in-(-l+2,-l+3)": (-l + 2, -l + 3, 1),
        "root-below--2": (-_INF, -2, 1),
        "root-in-(l-1,l)": (l - 1, l, 1),
        "root-beyond-l+1": (l + 1, _INF, 1),
    }


def approx_roots(coeffs: list[Fraction], iterations: int = 400) -> list[complex]:
    """All complex roots in floating point (Weierstrass / Durand-Kerner)."""
    lead = coeffs[-1]
    c = [float(x / lead) for x in reversed(coeffs)]  # monic, highest first
    n = len(c) - 1
    radius = 1 + max(abs(x) for x in c[1:])
    z = [radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    for _ in range(iterations):
        moved = 0.0
        for i in range(n):
            zi = z[i]
            val = 0j
            for x in c:
                val = val * zi + x
            den = 1 + 0j
            for j in range(n):
                if j != i:
                    den *= zi - z[j]
            step = val / den
            z[i] = zi - step
            moved = max(moved, abs(step))
        if moved < 1e-15 * radius:
            break
    return z


def real_roots(coeffs: list[Fraction], marks) -> list[tuple[Fraction, Fraction]]:
    """Cells (a, b] holding one real root each.  Floating-point roots only
    place the cell boundaries; a cell counts where the polynomial, evaluated
    exactly in integers at those boundaries and at the marks, changes sign."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    bound = 2 + max(abs(Fraction(c, ints[-1])) for c in ints[:-1])
    reals = sorted({z.real for z in approx_roots(coeffs)})
    pts = {-bound, bound, *marks}
    pts.update(Fraction((a + b) / 2) for a, b in zip(reals, reals[1:]))
    cells, last = [], None
    for x in sorted(pts):
        num, d = x.numerator, x.denominator
        acc = 0
        for k, c in enumerate(reversed(ints)):
            acc = acc * num + c * d ** k
        sign = (acc > 0) - (acc < 0)
        if sign == 0:
            cells.append((x, x))
            last = None
        else:
            if last is not None and last[1] != sign:
                cells.append((last[0], x))
            last = (x, sign)
    return cells


def _count_in(cells, lo, hi) -> int:
    return sum(1 for a, b in cells if (lo == -_INF or a >= lo) and (hi == _INF or b <= hi)
               and (a, b) != (lo, lo))


def check_roots(argv, payload, mc: ModCheck, sample: random.Random) -> None:
    l, n = int(_flag(argv, "--l")), int(_flag(argv, "--n"))
    lam = _lam(_flag(argv, "--lambda"))
    what = " ".join(argv)
    k = n - l - 4
    require(payload["status"] == "pass" and payload["k"] == k
            and all(c["status"] == "pass" for c in payload["claims"]),
            f"{what}: report does not pass")
    coeffs = list(family_series(l, lam).term(n).coeffs)
    degree = len(coeffs) - 1
    claims = {c["id"]: c for c in payload["claims"]}
    require(claims["degree"]["witness"] == degree, f"{what}: degree claim is wrong")
    intervals = _interval_claims(l, degree)
    marks = {Fraction(b) for cid, (a, b, _e) in intervals.items()
             if cid in claims for b in (a, b) if b not in (_INF, -_INF)}
    inter = claims.get("interleaving")
    if inter is not None:
        seps = [Fraction(s) for s in inter["witness"]]
        marks.update(seps)
    cells = real_roots(coeffs, marks)
    require(len(cells) == degree, f"{what}: found {len(cells)} real roots for degree {degree}")
    for cid, (lo, hi, want) in intervals.items():
        if cid in claims:
            require(_count_in(cells, lo, hi) == want, f"{what}: claim {cid} fails the root count")
    if inter is not None:
        # inner gaps between consecutive sample points hold one root each
        for hi, lo in zip(seps[1:-2], seps[2:-1]):
            require(_count_in(cells, lo, hi) == 1, f"{what}: interleaving fails in ({lo}, {hi}]")


CHECKS = {"gram": check_gram, "series": check_series, "rollet": check_rollet,
          "verify": check_verify, "bootstrap": check_bootstrap, "roots": check_roots}


def check_payload(argv: list[str], stdout: str, mc: ModCheck, sample: random.Random) -> None:
    """Raise CheckError unless the printed payload of `argv` is right."""
    CHECKS[argv[0]](argv, json.loads(stdout), mc, sample)
