"""Command-line front end.

Loads spaces, posets, bases and functions from JSON files, dispatches the
library checks, and emits line-delimited JSON records ending in a summary
record.  The exit code follows from the summary's verdict: 1 for refuted
or fail, with the witness printed, and 0 for every other verdict (pass,
holds, and unknown, which carries no witness, or a reason where the check
needs a way-below closed form the space lacks); 2 for usage or parse errors.
Identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import balls, lipschitz, posets, qideal, spaces
from .errors import BadInput, NoOracle, NotAnAbstractBasis, QmetError, expect_list, expect_object
from .extreal import as_fraction


class Emitter:
    def __init__(self, pretty: bool):
        self.pretty = pretty

    def emit(self, record: dict):
        if self.pretty:
            kind = record.get("record", "record")
            rest = {k: v for k, v in record.items() if k != "record"}
            body = "  ".join(f"{k}={json.dumps(v, sort_keys=True)}" for k, v in sorted(rest.items()))
            print(f"[{kind}] {body}")
        else:
            print(json.dumps(record, sort_keys=True))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return expect_object(json.load(fh), path)
        except RecursionError:
            raise BadInput(f"{path}: JSON nested too deeply") from None


def _load_space(path: str) -> spaces.Space:
    return spaces.space_from_json(_load_json(path))


def _load_poset(path: str) -> posets.FinitePoset:
    return posets.FinitePoset.from_json(_load_json(path))


def _parse_points(arg: str) -> list:
    return [p.strip() for p in arg.split(",") if p.strip()]


def _summary(out: Emitter, command: str, verdict: str, **extra) -> int:
    code = 1 if verdict in ("fail", "refuted") else 0
    out.emit({"record": "summary", "command": command, "verdict": verdict, "exit": code, **extra})
    return code


def _witness(out: Emitter, space: spaces.Space, verdict: balls.Verdict):
    """A refuted verdict's witness, with the space it lives in."""
    if verdict.is_refuted:
        out.emit({"record": "witness", "space": space.to_json(), **verdict.witness.to_json()})


# ---------------------------------------------------------------------------
# Handlers


def cmd_axioms(args, out: Emitter) -> int:
    space = _load_space(args.space)
    report = spaces.check_axioms(space, sample_budget=args.budget, seed=args.seed)
    for v in report.violations:
        rec = {"record": "axiom_violation"}
        rec.update(v.to_json())
        out.emit(rec)
    verdict = "pass" if report.passed else "fail"
    return _summary(
        out,
        "axioms",
        verdict,
        mode=report.mode,
        seed=report.seed,
        budget=report.budget,
        triples_checked=report.triples_checked,
    )


def cmd_order(args, out: Emitter) -> int:
    space = _load_space(args.space)
    radii = [Fraction(0)] + [Fraction(1, 2**k) for k in range(args.depth + 1)]
    report = balls.order_laws_report(space, radii)
    for kind, detail in report.failures:
        out.emit({"record": "order_violation", "law": kind, "detail": str(detail)})
    radius_report = balls.radius_law_report(space, radii, sample_budget=args.budget, seed=args.seed)
    for family, lub in radius_report.failures:
        out.emit(
            {
                "record": "radius_law_violation",
                "family": [str(b) for b in family],
                "lub": str(lub),
            }
        )
    ok = report.passed and radius_report.passed
    return _summary(
        out,
        "order",
        "pass" if ok else "fail",
        balls=report.ball_count,
        families=radius_report.families_checked,
        seed=args.seed,
    )


def cmd_wb(args, out: Emitter) -> int:
    space = _load_space(args.space)
    b1 = balls.parse_ball(args.ball1)
    b2 = balls.parse_ball(args.ball2)
    verdict = balls.way_below(space, b1, b2, depth=args.depth)
    _witness(out, space, verdict)
    return _summary(
        out,
        "wb",
        verdict.status,
        justification=verdict.justification,
        depth=args.depth,
        claim=[str(b1), str(b2)],
    )


def cmd_standard(args, out: Emitter) -> int:
    space = _load_space(args.space)
    probe = _load_json(args.probe)
    fam = expect_object(probe["family"], "a probe family")
    if fam.get("kind") == "geometric":
        family = balls.GeometricBallFamily(space, fam.get("s", "0"))
    else:
        family = [balls.parse_ball(b) for b in expect_list(fam["members"], "probe members")]
    sup = balls.parse_ball(probe["sup"])
    shift = as_fraction(probe["shift"])
    verdict = balls.standardness_probe(space, family, sup, shift)
    _witness(out, space, verdict)
    return _summary(out, "standard", verdict.status, justification=verdict.justification)


def cmd_centers(args, out: Emitter) -> int:
    space = _load_space(args.space)
    centers = [x for x in space.points if balls.center_point_check(space, x)]
    for x in centers:
        out.emit({"record": "center", "point": x})
    return _summary(out, "centers", "pass", centers=centers)


def cmd_smyth(args, out: Emitter) -> int:
    space = _load_space(args.space)
    report = balls.smyth_probe(
        space, depth=args.depth, sample_budget=args.budget, seed=args.seed
    )
    for x in report.non_center_points:
        out.emit({"record": "non_center", "point": x})
    for a, b in report.gap_pairs:
        out.emit({"record": "approximation_gap", "pair": [str(a), str(b)]})
    verdict = "pass" if report.consistent else "fail"
    return _summary(out, "smyth", verdict, mode=report.mode, seed=report.seed)


def cmd_envelope(args, out: Emitter) -> int:
    space = _load_space(args.space)
    f = lipschitz.LscFunction.from_json(space, _load_json(args.function))
    alpha = as_fraction(args.alpha)
    g = lipschitz.envelope(space, f, alpha)
    for p in space.points:
        out.emit({"record": "value", "point": p, "f": str(f(p)), "envelope": str(g(p))})
    return _summary(out, "envelope", "pass", alpha=str(alpha))


def cmd_dist(args, out: Emitter) -> int:
    space = _load_space(args.space)
    u = lipschitz.OpenSet(space, _parse_points(args.open))
    points = [args.point] if args.point else list(space.points)
    for x in points:
        d = lipschitz.dist_to_complement(space, x, u)
        out.emit({"record": "distance", "point": x, "to_complement_of": sorted(u.members), "value": str(d)})
    return _summary(out, "dist", "pass")


def cmd_thin(args, out: Emitter) -> int:
    space = _load_space(args.space)
    u = lipschitz.OpenSet(space, _parse_points(args.open))
    thinned = lipschitz.thinning(space, u, as_fraction(args.r))
    out.emit({"record": "thinning", "r": args.r, "members": list(thinned)})
    return _summary(out, "thin", "pass")


def cmd_rideal(args, out: Emitter) -> int:
    obj = _load_json(args.basis)
    try:
        basis = posets.AbstractBasis.from_json(obj)
    except NotAnAbstractBasis as e:
        out.emit({"record": "basis_violation", "detail": [str(a) for a in e.args]})
        return _summary(out, "rideal", "fail")
    completion = posets.rounded_ideal_completion(basis)
    out.emit({"record": "completion", "poset": completion.poset.to_json()})
    for e in basis.elements:
        out.emit(
            {
                "record": "strictly_below",
                "element": e,
                "set": sorted(completion.below_map[e], key=basis.index),
                "ideal": completion.image[e],
            }
        )
    return _summary(out, "rideal", "pass", ideals=len(completion.ideals))


def cmd_idl(args, out: Emitter) -> int:
    p = _load_poset(args.poset)
    completion = posets.ideal_completion(p)
    out.emit({"record": "completion", "poset": completion.poset.to_json()})
    for e in p.elements:
        out.emit({"record": "principal_ideal", "element": e, "ideal": completion.embedding[e]})
    return _summary(out, "idl", "pass", ideals=len(completion.ideals))


def cmd_qideal_model(args, out: Emitter) -> int:
    space = _load_space(args.space)
    model = qideal.build_model(space, depth=args.depth, factor=as_fraction(args.factor))
    report = qideal.quasi_ideal_model_check(model)
    out.emit(
        {
            "record": "model_check",
            "layering": report.layering_ok,
            "chain_bound": report.chain_bound,
            "longest_finite_chain": report.longest_finite_chain,
            "limit_layer_isomorphic": report.limit_iso_ok,
            "quasi_ideal": report.quasi_ideal_ok,
            "halving": report.halving_ok,
        }
    )
    for a, b in report.layering_violations:
        out.emit({"record": "layering_violation", "edge": [a, b]})
    out.emit({"record": "model", "poset": model.to_json()})
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(qideal.model_to_dot(model) + "\n")
    return _summary(
        out,
        "qideal-model",
        "pass" if report.passed else "fail",
        elements=len(model.elements),
        depth=args.depth,
    )


def cmd_choquet(args, out: Emitter) -> int:
    p = _load_poset(args.poset)
    if args.exhaustive:
        sweep = posets.verify_all_plays(p, depth=args.depth)
        # a deep sweep's exact count can pass the interpreter's int-to-str
        # digit limit (4300 digits by default); lift it for this record only
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            out.emit(
                {
                    "record": "choquet_sweep",
                    "plays": sweep.total_plays,
                    "all_won": sweep.all_won,
                    "invariants": sweep.invariants_ok,
                    "states": sweep.states_seen,
                }
            )
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        ok = sweep.all_won and sweep.invariants_ok
    else:
        transcript = posets.choquet_play(p, "seeded", depth=args.depth, seed=args.seed)
        for i, r in enumerate(transcript.rounds):
            out.emit(
                {
                    "record": "round",
                    "n": i,
                    "x": r.x,
                    "v": sorted(r.v, key=p.index),
                    "u": sorted(r.u, key=p.index),
                    "y": r.y,
                }
            )
        out.emit(
            {
                "record": "play_verdict",
                "alpha_won": transcript.alpha_won(),
                "intersections_equal": transcript.intersections_equal(),
                "converged": transcript.converged(),
            }
        )
        ok = transcript.alpha_won() and transcript.intersections_equal()
    return _summary(out, "choquet", "pass" if ok else "fail", depth=args.depth, seed=args.seed)


def cmd_export(args, out: Emitter) -> int:
    p = _load_poset(args.poset)
    text = posets.export_dot(p)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return _summary(out, "export", "pass", path=args.dot)
    print(text)
    return 0


def cmd_replay(args, out: Emitter) -> int:
    obj = _load_json(args.witness)
    space = spaces.space_from_json(obj["space"])
    if obj.get("witness") == "way_below":
        witness = balls.WayBelowWitness.from_json(obj)
    elif obj.get("witness") == "standardness":
        witness = balls.StandardnessWitness.from_json(obj)
    else:
        raise QmetError(f"unrecognized witness kind {obj.get('witness')!r}")
    return _summary(out, "replay", "refuted" if witness.replay(space) else "not_refuted")


# ---------------------------------------------------------------------------
# Parser


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than least."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qm", description="exact checks on quasi-metric spaces and formal balls"
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable tables")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, budget=True, depth=None):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if budget:
            p.add_argument("--budget", type=_int_at_least(1), default=200_000)
        if depth is not None:
            p.add_argument("--depth", type=_int_at_least(0), default=depth)

    p = sub.add_parser("axioms", help="check the quasi-metric axioms")
    p.add_argument("space")
    common(p)

    p = sub.add_parser("order", help="ball order laws and radius law")
    p.add_argument("space")
    common(p, depth=5)

    p = sub.add_parser("wb", help="three-valued way-below check on two balls")
    p.add_argument("space")
    p.add_argument("ball1")
    p.add_argument("ball2")
    common(p, seed=False, budget=False, depth=8)

    p = sub.add_parser("standard", help="shift-invariance probe for a directed family")
    p.add_argument("space")
    p.add_argument("probe", help="JSON file with family, sup and shift")

    p = sub.add_parser("centers", help="list the center points")
    p.add_argument("space")

    p = sub.add_parser("smyth", help="probe both halves of Smyth completeness")
    p.add_argument("space")
    common(p, depth=3)

    p = sub.add_parser("envelope", help="largest Lipschitz map below a function")
    p.add_argument("space")
    p.add_argument("function")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("dist", help="distance to the complement of an open")
    p.add_argument("space")
    p.add_argument("--open", required=True, help="comma-separated point names")
    p.add_argument("--point", default=None)

    p = sub.add_parser("thin", help="shrink an open set by a radius")
    p.add_argument("space")
    p.add_argument("--open", required=True)
    p.add_argument("--r", required=True)

    p = sub.add_parser("rideal", help="rounded-ideal completion of an abstract basis")
    p.add_argument("basis")

    p = sub.add_parser("idl", help="ideal completion of a finite poset")
    p.add_argument("poset")

    p = sub.add_parser("qideal-model", help="build and check the two-layer ball model")
    p.add_argument("space")
    p.add_argument("--factor", default="2")
    p.add_argument("--dot", default=None)
    common(p, seed=False, budget=False, depth=5)

    p = sub.add_parser("choquet", help="play the strong Choquet game")
    p.add_argument("poset")
    p.add_argument("--exhaustive", action="store_true")
    common(p, budget=False, depth=4)

    p = sub.add_parser("export", help="DOT export of a poset's Hasse diagram")
    p.add_argument("poset")
    p.add_argument("--dot", default=None)

    p = sub.add_parser("replay", help="re-verify a serialized refutation witness")
    p.add_argument("witness")

    return parser


# one parser serves every main() call in a process; parsing leaves it as it was
_parser = cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    out = Emitter(args.pretty)
    # by name at call time, so that a later wrap of a handler is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, out)
    except NoOracle as e:  # valid input that the check cannot decide
        return _summary(out, args.command, "unknown", reason=str(e))
    except (QmetError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
