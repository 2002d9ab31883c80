"""cli_session: a seeded script of ``qm`` commands, run in-process.

Why this workload: it is the only path through the ``qm`` front end, where
building the argument parser and turning JSON documents into tables
dominate, and where a validation boundary for JSON input and flags will add
cost.  Each task is one ``qmet.cli.main(argv)`` call with stdout and stderr
captured.  One cycle runs every subcommand, on small JSON files written at
set-up; ``replay`` runs on witnesses that set-up also wrote.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from qmet import balls, cli, lipschitz, posets, qideal, spaces
from qmet.errors import NotAnAbstractBasis, QmetError

import gen
from .common import ball_literal, basis_doc, checked_space, require

NAME = "cli_session"
VARIANTS = 2  # file sets per cycle, each drawn from its own seed stream


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _refuted_claim(rng, doc):
    """A way-below claim the library refutes on this space, with the
    witness record ``qm wb`` would print."""
    space = spaces.space_from_json(doc)
    names = list(space.points)
    for _ in range(200):
        b1 = ball_literal(rng.choice(names), rng.choice(["1/4", "1/2", "1", "2"]))
        b2 = ball_literal(rng.choice(names), rng.choice(["0", "1/4", "1/2", "1"]))
        verdict = balls.way_below(space, balls.parse_ball(b1), balls.parse_ball(b2))
        if verdict.is_refuted:
            return b1, b2, {"space": doc, **verdict.witness.to_json()}
    raise QmetError("no refutable claim found")


def _script(seed, v, workdir) -> list:
    """One variant's commands: (subcommand, argv) in a fixed order."""
    rng = gen.rng_for(seed, NAME, v)
    docs = {
        "table": gen.quasi_metric_table(rng, 6, symmetric=False),
        "metric": gen.quasi_metric_table(rng, 5, symmetric=True),
        "real": gen.real_grid(rng, 5, with_inf=True),
        "sorg": gen.sorgenfrey_grid(rng, 6),
        "skew": gen.skewed_interval(rng, 5),
        "tailed": gen.tailed_sorgenfrey(rng, 6),
        "pspace": gen.poset_space(rng, 6),
        "poset": gen.poset_doc(7, gen.random_order_pairs(rng, 7, 0.35)),
    }
    f = {}
    for key, doc in docs.items():
        checked_space(doc)
        f[key] = _write(workdir, f"v{v}-{key}.json", doc)
    names = {key: gen.point_names(doc) for key, doc in docs.items()}
    dist = {key: gen.raw_dist(doc) for key, doc in docs.items()}

    # a claim of the form d(x, y) < r - s, which the metric oracle affirms
    near = [(i, j) for i, row in enumerate(dist["metric"]) for j, d in enumerate(row)
            if d is not None and i != j]
    i, j = rng.choice(near) if near else (0, 0)
    holds = (ball_literal(names["metric"][i], dist["metric"][i][j] + 1),
             ball_literal(names["metric"][j], Fraction(1, 2)))
    real_claim = _refuted_claim(rng, docs["real"])
    table_claim = _refuted_claim(rng, docs["table"])

    # shift 1 reaches every inner grid point, so the probe is refuted
    geometric = {"family": {"kind": "geometric", "s": "0"}, "sup": "(0, 0)", "shift": "1"}
    top = rng.choice(names["metric"])
    finite = {"family": {"kind": "finite", "members": [f"({top}, 2)", f"({top}, 1)"]},
              "sup": f"({top}, 1)", "shift": rng.choice(["1/4", "1"])}
    skew_space = spaces.space_from_json(docs["skew"])
    std = balls.standardness_probe(
        skew_space, balls.GeometricBallFamily(skew_space, 0),
        balls.parse_ball("(0, 0)"), Fraction(geometric["shift"]),
    )
    func = {"values": {p: rng.choice(["0", "1/2", "1", "2", "inf"]) for p in names["table"]}}
    open_real = sorted(gen.up_closure(dist["real"], [rng.randrange(5)]))
    open_table = rng.sample(names["table"], 3)  # all distances positive: any set is open

    files = {
        "geometric": _write(workdir, f"v{v}-probe-geo.json", geometric),
        "finite": _write(workdir, f"v{v}-probe-fin.json", finite),
        "func": _write(workdir, f"v{v}-func.json", func),
        "basis": _write(workdir, f"v{v}-basis.json", basis_doc(rng, 7, valid=True)),
        "bad_basis": _write(workdir, f"v{v}-bad-basis.json", basis_doc(rng, 7, valid=False)),
        "wb_witness": _write(workdir, f"v{v}-wb-witness.json", table_claim[2]),
        "std_witness": _write(
            workdir, f"v{v}-std-witness.json",
            {"space": docs["skew"], **std.witness.to_json()},
        ),
    }
    seed_arg = str(rng.randrange(1000))
    return [
        ("axioms", ["axioms", f["table"]]),
        ("axioms", ["axioms", f["tailed"], "--budget", "100", "--seed", seed_arg]),
        ("order", ["order", f["sorg"], "--depth", "2", "--seed", seed_arg]),
        ("wb", ["wb", f["metric"], *holds]),
        ("wb", ["wb", f["real"], real_claim[0], real_claim[1]]),
        ("wb", ["wb", f["tailed"], f"({names['tailed'][0]}, 1)", f"({names['tailed'][-1]}, 1/2)"]),
        ("wb", ["wb", f["table"], table_claim[0], table_claim[1], "--depth", "4"]),
        ("standard", ["standard", f["skew"], files["geometric"]]),
        ("standard", ["standard", f["metric"], files["finite"]]),
        ("centers", ["centers", f["real"]]),
        ("centers", ["centers", f["pspace"]]),
        ("smyth", ["smyth", f["sorg"], "--depth", "2"]),
        ("envelope", ["envelope", f["table"], files["func"], "--alpha", rng.choice(["1/2", "1", "2"])]),
        ("dist", ["dist", f["real"], "--open", ",".join(names["real"][k] for k in open_real)]),
        ("thin", ["thin", f["table"], "--open", ",".join(open_table), "--r", rng.choice(["1/4", "1"])]),
        ("rideal", ["rideal", files["basis"]]),
        ("rideal", ["rideal", files["bad_basis"]]),
        ("idl", ["idl", f["poset"]]),
        ("qideal-model", ["qideal-model", f["pspace"], "--depth", "3"]),
        ("choquet", ["choquet", f["poset"], "--depth", "4", "--seed", seed_arg]),
        ("choquet", ["choquet", f["poset"], "--exhaustive", "--depth", "4"]),
        ("export", ["export", f["poset"]]),
        ("replay", ["replay", files["wb_witness"]]),
        ("replay", ["replay", files["std_witness"]]),
    ]


def make_pool(seed: int, workdir) -> list:
    pool = []
    for v in range(VARIANTS):
        pool.extend({"cmd": cmd, "argv": argv} for cmd, argv in _script(seed, v, workdir))
    return pool


def run(task):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(task["argv"]))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Library verdicts for the check


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _flag(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def _pass_fail(ok):
    return ("pass", 0) if ok else ("fail", 1)


def _expected(cmd, argv):
    """(verdict, exit code) straight from the library, plus a predicate on
    the summary record for the numbers it reports."""
    seed = int(_flag(argv, "--seed", "0"))
    budget = int(_flag(argv, "--budget", "200000"))
    if cmd in ("idl", "choquet", "export"):
        p = posets.FinitePoset.from_json(_load(argv[1]))
    elif cmd not in ("rideal", "replay"):
        space = spaces.space_from_json(_load(argv[1]))
    if cmd == "axioms":
        return _pass_fail(spaces.check_axioms(space, budget, seed).passed), None
    if cmd == "order":
        radii = gen.dyadic_radii(int(_flag(argv, "--depth", "5")))
        shifts = [Fraction(1, 4), Fraction(1), Fraction(3)]
        ok = (balls.order_laws_report(space, radii, shifts).passed
              and balls.radius_law_report(space, radii, budget, seed).passed)
        return _pass_fail(ok), None
    if cmd == "wb":
        verdict = balls.way_below(
            space, balls.parse_ball(argv[2]), balls.parse_ball(argv[3]),
            depth=int(_flag(argv, "--depth", "8")),
        )
        return (verdict.status, int(verdict.is_refuted)), None
    if cmd == "standard":
        probe = _load(argv[2])
        fam = probe["family"]
        if fam["kind"] == "geometric":
            family = balls.GeometricBallFamily(space, Fraction(fam["s"]))
        else:
            family = [balls.parse_ball(b) for b in fam["members"]]
        verdict = balls.standardness_probe(
            space, family, balls.parse_ball(probe["sup"]), Fraction(probe["shift"])
        )
        return (verdict.status, int(verdict.is_refuted)), None
    if cmd == "centers":
        centers = [x for x in space.points if balls.center_point_check(space, x)]
        return ("pass", 0), lambda s: s["centers"] == centers
    if cmd == "smyth":
        depth = int(_flag(argv, "--depth", "3"))
        return _pass_fail(balls.smyth_probe(space, depth, budget, seed).consistent), None
    if cmd == "envelope":
        f = lipschitz.LscFunction.from_json(space, _load(argv[2]))
        g = lipschitz.envelope(space, f, Fraction(_flag(argv, "--alpha", None)))
        want = [str(g(p)) for p in space.points]
        return ("pass", 0), lambda records: [r["envelope"] for r in records] == want
    if cmd in ("dist", "thin"):
        u = lipschitz.OpenSet(space, _flag(argv, "--open", "").split(","))
        if cmd == "dist":
            want = [str(lipschitz.dist_to_complement(space, x, u)) for x in space.points]
            return ("pass", 0), lambda records: [r["value"] for r in records] == want
        thinned = list(lipschitz.thinning(space, u, Fraction(_flag(argv, "--r", None))))
        return ("pass", 0), lambda records: records[0]["members"] == thinned
    if cmd == "rideal":
        try:
            basis = posets.AbstractBasis.from_json(_load(argv[1]))
        except NotAnAbstractBasis:
            return ("fail", 1), None
        ideals = len(posets.rounded_ideals_by_generators(basis))
        return ("pass", 0), lambda s: s["ideals"] == ideals
    if cmd == "idl":
        # every ideal of a finite poset is principal
        return ("pass", 0), lambda s: s["ideals"] == len(p)
    if cmd == "qideal-model":
        model = qideal.build_model(space, int(_flag(argv, "--depth", "5")))
        return _pass_fail(qideal.quasi_ideal_model_check(model).passed), None
    if cmd == "choquet":
        depth = int(_flag(argv, "--depth", "4"))
        if "--exhaustive" in argv:
            sweep = posets.verify_all_plays(p, depth)
            return _pass_fail(sweep.all_won and sweep.invariants_ok), None
        t = posets.choquet_play(p, "seeded", depth=depth, seed=seed)
        return _pass_fail(t.alpha_won() and t.intersections_equal()), None
    if cmd == "export":
        return None, posets.export_dot(p) + "\n"
    if cmd == "replay":
        obj = _load(argv[1])
        cls = balls.WayBelowWitness if obj["witness"] == "way_below" else balls.StandardnessWitness
        still = cls.from_json(obj).replay(spaces.space_from_json(obj["space"]))
        return ("refuted", 1) if still else ("not_refuted", 0), None
    raise ValueError(f"no library verdict for {cmd!r}")


def check(task, result) -> str:
    code, out, err = result
    cmd, argv = task["cmd"], task["argv"]
    require(err == "", f"qm {cmd} wrote to stderr: {err.strip()[:200]}")
    require(code in (0, 1), f"qm {cmd} exited {code}")
    expected, extra = _expected(cmd, argv)
    if cmd == "export":
        require(code == 0 and out == extra, "qm export output differs from export_dot")
        return f"export:{len(out)}"
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    require(summary.get("record") == "summary", f"qm {cmd} printed no summary")
    require(summary["exit"] == code, f"qm {cmd} summary exit {summary['exit']} != {code}")
    require(
        (summary["verdict"], code) == expected,
        f"qm {cmd}: ({summary['verdict']}, {code}), library says {expected}",
    )
    if extra is not None:
        body = summary if cmd in ("centers", "rideal", "idl") else lines[:-1]
        require(extra(body), f"qm {cmd} reports other numbers than the library")
    return f"{cmd}:{code}:{summary['verdict']}:{len(out)}"
