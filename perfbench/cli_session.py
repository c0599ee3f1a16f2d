"""The ``cli_certify`` workload: a researcher's CLI session, one fresh
``python -m cupcap.cli`` process per step, as users run it.

Each step is timed from process start to exit by the harness.  Every step
must exit 0 and its outputs must pass the gate below; the sha256 of every
written file must equal the digest pinned in ``digests.json``.  Outputs
that do not depend on the seed are pinned for every seed, the fat-cap
report only for the default seed; all digests are printed so that two
commits can be compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import geometry as g

DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")

# construction parameters per scale; "tiny" serves the self-tests
PARAMS = {
    "full": {"x": (3, 8, 8), "xl": (5, 7, 7), "es_cert": (3, 9),
             "es": (3, 8), "cloud": 2000},
    "tiny": {"x": (3, 5, 5), "xl": (4, 5, 5), "es_cert": (3, 6),
             "es": (3, 6), "cloud": 200},
}
# steps whose process wall time is reported on its own, by step name
STEP_METRICS = {"x388_cert": "x388_cert_s", "x388_verify": "x388_verify_s",
                "x577_cert": "x577_cert_s", "es39_cert": "es39_cert_s",
                "analyze": "analyze_s", "fatcap": "fatcap_s"}
# construction outputs whose coordinate size is reported, by step name
CONSTRUCTIONS = {"x388_cert": "x.pts", "x577_cert": "xl.pts",
                 "es39_cert": "es_cert.pts", "es38_gen": "es.pts"}


@dataclass
class Step:
    name: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], Optional[str]]  # failure message or None


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _npoints(path: Path) -> int:
    return len(g.espts_points(path.read_text()))


def free_set_size(l: int, m: int, n: int) -> Fraction:
    return (Fraction(l - 1, 2) * math.comb(m + n - 4, n - 2)
            - Fraction(l - 3, 2) * math.comb(m + n - 6, n - 3))


def _check_x(pts: str, cert: str, l: int, m: int, n: int):
    def check(d: Path):
        c = _json(d / cert)
        size = _npoints(d / pts)
        want = (size == math.comb(m + n - 4, n - 2) if l == 3
                else size >= free_set_size(l, m, n))
        b = c["bounds"]
        if not (c["passes"] is True and c["size"] == size and want):
            return f"x:{l},{m},{n} certificate fails or has the wrong size"
        if not (b["max_collinear_points"] < l and b["longest_cup_points"] < m
                and b["longest_cap_points"] < n):
            return f"x:{l},{m},{n} certificate bounds exceed the claim"
        return None
    return check


def _check_es(pts: str, cert: Optional[str], l: int, n: int):
    def check(d: Path):
        size = _npoints(d / pts)
        if size != (3 * l - 1) * 2 ** (n - 5):
            return f"es:{l},{n} has {size} points"
        if cert is None:
            return None
        c = _json(d / cert)
        if not (c["passes"] is True and c["size"] == size
                and c["bounds"]["max_convex_points"] < n):
            return f"es:{l},{n} certificate fails"
        return None
    return check


def _check_analyze(report: str, l: int, n: int):
    def check(d: Path):
        r = _json(d / report)
        if r["n_points"] != (3 * l - 1) * 2 ** (n - 5):
            return "analyze reports the wrong point count"
        if r["structure"] is not None or r["max_collinear"] >= l:
            return "analyze finds a structure the construction excludes"
        if max(r["longest_cup"], r["longest_cap"],
               r["max_convex_subset"]) >= n:
            return "analyze reports a convex subset the construction excludes"
        return None
    return check


def _check_fatcap(report: str, cloud: str, k: int):
    def check(d: Path):
        r = _json(d / report)
        pts = set(g.espts_points((d / cloud).read_text()))
        cap = [tuple(p) for p in r["cap"]]
        ints = [(int(x), int(y)) for x, y in cap]
        if len(cap) != k or not set(cap) <= pts:
            return "fat cap is not a k-subset of the cloud"
        if not (g.is_chain(ints, +1) or g.is_chain(ints, -1)):
            return "fat cap is neither a cup nor a cap"
        if r["min_occupancy"] < 1 or r["transversal"]["violations"] != 0:
            return "fat cap is empty or has transversal violations"
        return None
    return check


def steps(scale: str) -> list[Step]:
    p = PARAMS[scale]
    (xl_, xm, xn), (ll, lm, ln) = p["x"], p["xl"]
    (el, en), (sl, sn) = p["es_cert"], p["es"]
    return [
        Step("x388_cert", ["gen-x", str(xl_), str(xm), str(xn), "--out",
                           "x.pts", "--cert", "x.cert.json"],
             ["x.pts", "x.cert.json"],
             _check_x("x.pts", "x.cert.json", xl_, xm, xn)),
        Step("x388_verify", ["verify", "--in", "x.pts", "--claim",
                             f"x:{xl_},{xm},{xn}", "--report",
                             "x.verify.json"],
             ["x.verify.json"],
             _check_x("x.pts", "x.verify.json", xl_, xm, xn)),
        Step("x577_cert", ["gen-x", str(ll), str(lm), str(ln), "--out",
                           "xl.pts", "--cert", "xl.cert.json"],
             ["xl.pts", "xl.cert.json"],
             _check_x("xl.pts", "xl.cert.json", ll, lm, ln)),
        Step("es39_cert", ["gen-es", str(el), str(en), "--out",
                           "es_cert.pts", "--cert", "es_cert.cert.json"],
             ["es_cert.pts", "es_cert.cert.json"],
             _check_es("es_cert.pts", "es_cert.cert.json", el, en)),
        Step("es38_gen", ["gen-es", str(sl), str(sn), "--out", "es.pts"],
             ["es.pts"], _check_es("es.pts", None, sl, sn)),
        Step("analyze", ["analyze", "--in", "es.pts", "--report",
                         "es.analyze.json", "--l", str(sl), "--m", str(sn),
                         "--n", str(sn)],
             ["es.analyze.json"], _check_analyze("es.analyze.json", sl, sn)),
        Step("fatcap", ["fat-cap", "--in", "cloud.pts", "--k", "4",
                        "--budget", "60", "--report", "fatcap.json"],
             ["fatcap.json"], _check_fatcap("fatcap.json", "cloud.pts", 4)),
    ]


def write_cloud(workdir: Path, seed: int, scale: str) -> list[tuple[int, int]]:
    """The fat-cap input: a seeded cloud with 20-bit coordinates."""
    pts = g.cloud(random.Random(f"cli_certify:{seed}"), PARAMS[scale]["cloud"])
    (workdir / "cloud.pts").write_text(g.espts_text(pts))
    return pts


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned(scale: str, seed: int, digests: Optional[dict] = None) -> dict:
    """Expected digests by output file name for this scale and seed."""
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    table = digests.get(scale, {})
    out = dict(table.get("any_seed", {}))
    if seed == DEFAULT_SEED:
        out.update(table.get("default_seed", {}))
    return out


def coord_bits_of(path: Path) -> int:
    return max((g.token_bits(t) for xy in g.espts_points(path.read_text())
                for t in xy), default=0)
