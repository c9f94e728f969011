"""Command line driver.

Exit codes: 0 all checks pass, 1 usage or configuration error, 2 a
theorem-backed check was violated (which indicates an implementation bug,
not bad luck).
"""

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction

from . import acceptance, analysis
from .bundles import SplitBundle, chern, chern_twist_rule, derived_schur_class, schur_class
from .cohomology import CohClass, Space
from .partitions import Partition
from .polyring import MultiPoly
from .quadforms import inertia, intersection_form, matrix_to_json
from .rationals import fmt_q, parse_q
from .schur import (derived_chern, derived_schur, derived_table_check,
                    format_elementary, schur_jt)

USAGE_ERROR, CHECK_VIOLATION = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


class CliError(Exception):
    pass


def _ints(s):
    s = s.strip()
    return [int(x) for x in s.split(",")] if s else []


def _rats(s):
    s = s.strip()
    return [parse_q(x) for x in s.split(",")] if s else []


def _partition(s):
    try:
        return Partition(_ints(s))
    except ValueError as exc:
        raise CliError(f"bad partition {s!r}: {exc}")


def _write(text, args):
    """Write a report to the --output file, or to stdout without one."""
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


def _form_payload(mat):
    """A form's report: the matrix, its inertia and both verdicts read off
    that one triple."""
    t = inertia(mat)
    return {
        "matrix": matrix_to_json(mat),
        "inertia": t.to_json(),
        "is_hr": t.is_hr,
        "is_weak_hr": t.is_weak_hr,
    }


def _emit_sequence(seq, args):
    """Report a sequence and its log-concavity as --format csv or JSON."""
    ok = analysis.is_log_concave(seq)
    if args.format == "csv":
        lines = ["i,value"] + [
            f"{seq.start + k},{fmt_q(v)}" for k, v in enumerate(seq.values)
        ]
        _write("\n".join(lines) + "\n", args)
    else:
        _emit({"sequence": seq.to_json(), "log_concave": ok}, args)
    return 0 if ok else CHECK_VIOLATION


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(raw, dict):
        raise CliError(f"config {path} is not a JSON object")
    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:  # a bool is not a seed either
        raise CliError(f"bad config field: seed {json.dumps(seed)} is not an integer")
    cfg = {
        "bundles": {},
        "partitions": {},
        "seed": seed,
        "output": raw.get("output") or {},
    }
    try:
        if "space" in raw:
            cfg["space"] = Space.from_json(raw["space"])
            for name, spec in raw.get("bundles", {}).items():
                cfg["bundles"][name] = SplitBundle.from_json(spec, cfg["space"])
        elif raw.get("bundles"):
            raise CliError("config defines bundles but no space")
        for name, parts in raw.get("partitions", {}).items():
            cfg["partitions"][name] = Partition(parts)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad config field: {exc}")
    return cfg


def _apply_output_defaults(args, cfg):
    """Flags win; otherwise the config's output block supplies defaults."""
    block = cfg.get("output") or {}
    if getattr(args, "output", None) is None and block.get("path"):
        args.output = block["path"]
    if getattr(args, "format", "absent") is None and block.get("format"):
        if block["format"] not in ("json", "csv"):
            raise CliError(f"bad config output format {block['format']!r}")
        args.format = block["format"]


def _resolve_space(args, cfg):
    if getattr(args, "space", None):
        return Space(_ints(args.space))
    if cfg and "space" in cfg:
        return cfg["space"]
    raise CliError("no space given (use --space or a config file)")


def _resolve_bundle(args, cfg, flag="bundle"):
    name = getattr(args, flag.replace("-", "_"), None)
    if name:
        if not cfg or name not in cfg["bundles"]:
            raise CliError(f"bundle {name!r} not found in config")
        return cfg["bundles"][name]
    lines_flag = "lines" if flag == "bundle" else f"{flag}_lines"
    lines = getattr(args, lines_flag, None)
    if lines:
        space = _resolve_space(args, cfg)
        line_vecs = [_ints(part) for part in lines.split(";") if part.strip()]
        twist_flag = "twist" if flag == "bundle" else f"{flag}_twist"
        twist = getattr(args, twist_flag, None)
        return SplitBundle(space, line_vecs, _rats(twist) if twist else None)
    raise CliError(
        f"no {flag} given (use --{flag} with a config, or --{lines_flag.replace('_', '-')})"
    )


def _resolve_partition(args, cfg, flag):
    value = getattr(args, flag)
    if value is None:
        raise CliError(f"missing --{'lambda' if flag == 'lam' else flag}")
    if cfg and value in cfg["partitions"]:
        return cfg["partitions"][value]
    return _partition(value)


def _load_poly(args):
    if getattr(args, "lam", None) is not None:
        if args.vars is None:
            raise CliError("--vars is required with --lambda")
        p = schur_jt(_resolve_partition(args, None, "lam"), args.vars)
        return p.normalize() if getattr(args, "normalized", True) else p
    if getattr(args, "poly_file", None):
        try:
            with open(args.poly_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read polynomial file: {exc}")
        if args.vars is None:
            raise CliError("--vars is required with --poly-file")
        try:
            return MultiPoly.from_json(data, args.vars)
        except (TypeError, KeyError, ValueError) as exc:
            raise CliError(f"bad polynomial file ({exc}): expected a list of "
                           '{"exponents": [...], "coeff": "n/d"} terms')
    raise CliError("give either --lambda or --poly-file")


# -- subcommands -------------------------------------------------------------

def _cmd_schur(args, cfg):
    lam = _resolve_partition(args, cfg, "lam")
    if args.derived is None:
        p = schur_jt(lam, args.vars)
    else:
        p = derived_schur(lam, args.derived, args.vars)
    if args.basis == "c":
        i = args.derived or 0
        slices = derived_chern(lam, args.vars)
        rendered = format_elementary(slices[i] if 0 <= i < len(slices) else {}, args.vars)
    else:
        rendered = str(p)
    if args.json:
        _emit(
            {
                "lambda": lam.to_json(),
                "vars": args.vars,
                "derived": args.derived,
                "basis": args.basis,
                "poly": p.to_json(),
                "rendered": rendered,
            },
            args,
        )
    else:
        _write(rendered + "\n", args)
    return 0


def _cmd_chern(args, cfg):
    E = _resolve_bundle(args, cfg)
    root = chern(E, args.p)
    rule = chern_twist_rule(E, args.p)
    payload = {
        "p": args.p,
        "class": root.to_json(),
        "rendered": str(root),
        "twist_rule_agrees": root == rule,
    }
    _emit(payload, args)
    return 0 if payload["twist_rule_agrees"] else CHECK_VIOLATION


def _cmd_class(args, cfg):
    E = _resolve_bundle(args, cfg)
    lam = _resolve_partition(args, cfg, "lam")
    if args.derived is None:
        cls = schur_class(lam, E)
    else:
        cls = derived_schur_class(lam, args.derived, E)
    _emit(
        {
            "lambda": lam.to_json(),
            "derived": args.derived,
            "class": cls.to_json(),
            "rendered": str(cls),
        },
        args,
    )
    return 0


def _cmd_form(args, cfg):
    E = _resolve_bundle(args, cfg)
    space = E.space
    terms = []
    if args.term:
        for spec in args.term:
            try:
                weight, lam = spec.split(":", 1)
            except ValueError:
                raise CliError(f"bad --term {spec!r}, expected WEIGHT:PARTS")
            terms.append((parse_q(weight), _partition(lam)))
    elif args.lam:
        terms.append((1, _resolve_partition(args, cfg, "lam")))
    else:
        raise CliError("give --lambda or at least one --term")
    omega = CohClass.zero(space)
    for weight, lam in terms:
        omega = omega + schur_class(lam, E).scale(weight)
    _emit(_form_payload(intersection_form(omega, space)), args)
    return 0


def _cmd_hr_scan(args, cfg):
    E = _resolve_bundle(args, cfg)
    lam = _resolve_partition(args, cfg, "lam")
    h = _rats(args.h) if args.h else [1] * E.space.k
    if args.t_values:
        ts = _rats(args.t_values)
    else:
        if args.t_count < 1:  # a scan of no twist would report a pass
            raise CliError(f"--t-count must be at least 1, got {args.t_count}")
        rng = acceptance._rng(args.seed, "hr-scan")
        ts = [Fraction(rng.randint(1, 16), 16) for _ in range(args.t_count)]
    records = [
        {"t": fmt_q(t), **_form_payload(analysis.twisted_schur_form(E, lam, h, t))}
        for t in ts
    ]
    # h is ample, so each twist t > 0 makes E ample and its form must be HR
    violations = sum(t > 0 and not rec["is_hr"] for t, rec in zip(ts, records))
    _emit({"h": [fmt_q(c) for c in h], "scan": records, "violations": violations}, args)
    return CHECK_VIOLATION if violations else 0


def _cmd_kt(args, cfg):
    E = _resolve_bundle(args, cfg)
    F = _resolve_bundle(args, cfg, flag="bundle2")
    lam = _resolve_partition(args, cfg, "lam")
    mu = _resolve_partition(args, cfg, "mu")
    seq = analysis.kt_sequence(E, F, lam, mu)
    return _emit_sequence(seq, args)


def _cmd_seq(args, cfg):
    lam = _resolve_partition(args, cfg, "lam")
    x = _rats(args.point)
    if args.mu is not None:
        mu = _resolve_partition(args, cfg, "mu")
        if args.d is None or not args.point2:
            raise CliError("pair sequences need --d and --point2")
        seq = analysis.pair_value_sequence(lam, mu, args.d, x, _rats(args.point2))
    else:
        seq = analysis.derived_value_sequence(lam, x)
    return _emit_sequence(seq, args)


def _cmd_polya(args, cfg):
    mus = _rats(args.mus)
    roots = analysis.polya_check_roots(mus)
    if len(mus) > analysis.POLYA_LENGTH_CAP:
        # the minor route is capped; beyond it only root counting runs
        minors, agree, search = None, None, None
    else:
        minors = analysis.polya_check_minors(mus)
        agree = minors == roots
        # the root route is exact; the minor route searches a bounded family
        search = {"kind": "bounded", "width_cap": analysis.POLYA_WIDTH_CAP,
                  "h_cap": analysis.POLYA_H_CAP}
    payload = {
        "mus": [fmt_q(v) for v in mus],
        "minors_nonneg": minors,
        "minors_search": search,
        "real_rooted": roots,
        "routes_agree": agree,
    }
    code = CHECK_VIOLATION if agree is False else 0
    if args.lam is not None:
        E = _resolve_bundle(args, cfg)
        lam = _resolve_partition(args, cfg, "lam")
        h = CohClass.linear(E.space, _rats(args.h)) if args.h else sum(
            E.space.h11_basis(), CohClass.zero(E.space)
        )
        omega = analysis.polya_combination_class(lam, E, h, mus)
        payload["combination"] = _form_payload(intersection_form(omega, E.space))
        if roots and not payload["combination"]["is_weak_hr"]:
            code = CHECK_VIOLATION
    _emit(payload, args)
    return code


def _cmd_lorentzian(args, cfg):
    p = _load_poly(args)
    epsilon = parse_q(args.epsilon)
    retried = False
    if args.mode == "strict":
        rep = analysis.lorentzian_check(p, "strict")
    elif epsilon <= 0:  # no perturbation: at 0 the witness is p itself
        raise CliError(f"--epsilon must be positive in perturbed mode, got {args.epsilon}")
    else:  # a failure is tried once more at epsilon / 10
        rep = analysis.lorentzian_check(p, "perturbed", epsilon)
        if not rep.ok:
            rep = analysis.lorentzian_check(p, "perturbed", Fraction(epsilon, 10))
            retried = True
    payload = rep.to_json()
    payload["retried_at_epsilon_over_10"] = retried
    _emit(payload, args)
    expect = args.expect_pass or (args.lam is not None and args.mode == "perturbed")
    return CHECK_VIOLATION if expect and not rep.ok else 0


def _cmd_bridge(args, cfg):
    if args.mode == "lemma":
        p = _load_poly(args)
        eprime = args.eprime
        if eprime is None:
            eprime = max(p.per_variable_degrees(), default=0)
        ok = analysis.lemma_bridge_check(p, eprime, _ints(args.alpha))
        _emit({"mode": "lemma", "eprime": eprime, "ok": ok}, args)
    else:
        lam = _resolve_partition(args, cfg, "lam")
        if args.vars is None or args.n is None:
            raise CliError("intersection mode needs --vars and --n")
        ok = analysis.hessian_vs_intersection(
            lam, args.vars, args.n, _ints(args.alpha), parse_q(args.epsilon)
        )
        _emit({"mode": "intersection", "ok": ok}, args)
    return 0 if ok else CHECK_VIOLATION


def _cmd_verify(args, cfg):
    # precedence: explicit flag, then environment, then config, then default
    seed = args.seed
    if seed is None and os.environ.get("SCHURHR_SEED"):
        seed = int(os.environ["SCHURHR_SEED"])
    if seed is None:
        seed = cfg.get("seed") if cfg else None
    if seed is None:
        seed = acceptance.DEFAULT_SEED
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("SCHURHR_WORKERS", "0")) or (os.cpu_count() or 1)
    criteria = None
    if args.criteria:
        try:
            criteria = [int(c) for c in args.criteria.split(",")]
        except ValueError:
            raise CliError(f"bad --criteria {args.criteria!r}: expected comma separated ids")
        known = {cid for cid, _ in acceptance.CRITERIA}
        bad = [c for c in criteria if c not in known]
        if bad:
            raise CliError(f"unknown criterion ids {bad}; known: {sorted(known)}")
    try:
        report = acceptance.run_all(seed=seed, workers=workers, criteria=criteria)
    except Exception as exc:  # inputs are validated above, so this is a bug
        return _internal_error(exc)
    _write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n", args)
    return 0 if report["ok"] else CHECK_VIOLATION


def _paper_examples(args):
    """The hardcoded reproductions: the convex-mix matrix and the
    low-degree closed-form table."""
    mix = []
    for t in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)):
        res = analysis.p2p3_convex_example(t)
        mix.append({"t": fmt_q(t), **_form_payload(res["matrix"]),
                    "matches_closed_form": res["matches_closed_form"]})
    table = {
        e: [{"identity": name, "ok": ok} for name, ok in derived_table_check(e)]
        for e in (3, 4, 5)
    }
    ok = all(m["matches_closed_form"] for m in mix) and all(
        r["ok"] for rows in table.values() for r in rows
    )
    _emit({"convex_mix": mix, "low_degree_table": table, "ok": ok}, args)
    return 0 if ok else CHECK_VIOLATION


def build_parser():
    top = _Parser(prog="schurhr", description=__doc__)
    top.add_argument("--paper-examples", action="store_true",
                     help="run the hardcoded example reproductions and exit")
    top.add_argument("--output", help="write the report to a file instead of stdout")
    sub = top.add_subparsers(dest="command")

    def common(p, bundle=True):
        p.add_argument("--config", help="JSON run configuration")
        # SUPPRESS keeps a --output given before the subcommand
        p.add_argument("--output", default=argparse.SUPPRESS, help="write output to a file")
        if bundle:
            p.add_argument("--space", help="factor dimensions, e.g. 2,3")
            p.add_argument("--bundle", help="bundle name from the config")
            p.add_argument("--lines", help="inline line multidegrees, e.g. 1,0;1,0;0,1")
            p.add_argument("--twist", help="inline twist vector, e.g. 0,0")

    p = sub.add_parser("schur", help="print a Schur or shift-slice polynomial")
    common(p, bundle=False)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--derived", type=int, default=None)
    p.add_argument("--basis", choices=("monomial", "c"), default="monomial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("chern", help="Chern class of a split twisted bundle")
    common(p)
    p.add_argument("-p", "--p", dest="p", type=int, required=True)
    p.set_defaults(fn=_cmd_chern)

    p = sub.add_parser("class", help="Schur / shift-slice characteristic class")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--derived", type=int, default=None)
    p.set_defaults(fn=_cmd_class)

    p = sub.add_parser("form", help="intersection form, inertia and verdicts")
    common(p)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--term", action="append",
                   help="WEIGHT:PARTS, e.g. 3/4:3 (repeatable)")
    p.set_defaults(fn=_cmd_form)

    p = sub.add_parser("hr-scan", help="sweep twists t and test the form")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--h", help="ample direction coefficients, e.g. 1,1")
    p.add_argument("--t-values", help="comma separated rational t values")
    p.add_argument("--t-count", type=int, default=5)
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(fn=_cmd_hr_scan)

    p = sub.add_parser("kt", help="two-bundle characteristic-number sequence")
    common(p)
    p.add_argument("--bundle2", help="second bundle name from the config")
    p.add_argument("--bundle2-lines", dest="bundle2_lines")
    p.add_argument("--bundle2-twist", dest="bundle2_twist")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.set_defaults(fn=_cmd_kt)

    p = sub.add_parser("seq", help="value sequences at nonnegative points")
    common(p, bundle=False)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--mu")
    p.add_argument("--d", type=int)
    p.add_argument("--point2")
    p.add_argument("--format", choices=("json", "csv"), default=None)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("polya", help="frequency-sequence tests and combinations")
    common(p)
    p.add_argument("--mus", required=True, help="comma separated nonnegative rationals")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--h")
    p.set_defaults(fn=_cmd_polya)

    p = sub.add_parser("lorentzian", help="strict or perturbed certification")
    common(p, bundle=False)
    p.add_argument("--lambda", dest="lam",
                   help="certify the normalized Schur polynomial of this shape")
    p.add_argument("--poly-file", help="JSON term list for an arbitrary polynomial")
    p.add_argument("--vars", type=int)
    p.add_argument("--mode", choices=("strict", "perturbed"), default="perturbed")
    p.add_argument("--epsilon", default="1/100")
    p.add_argument("--expect-pass", action="store_true",
                   help="exit 2 when certification fails")
    p.set_defaults(fn=_cmd_lorentzian, normalized=True)

    p = sub.add_parser("bridge", help="coefficient-extraction identities")
    common(p, bundle=False)
    p.add_argument("--mode", choices=("lemma", "intersection"), default="lemma")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--poly-file")
    p.add_argument("--vars", type=int)
    p.add_argument("--n", type=int, help="box side for intersection mode")
    p.add_argument("--alpha", required=True)
    p.add_argument("--eprime", type=int)
    p.add_argument("--epsilon", default="1/100")
    p.set_defaults(fn=_cmd_bridge, normalized=False)

    p = sub.add_parser("verify", help="run the acceptance suite")
    common(p, bundle=False)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--criteria", help="comma separated criterion ids (default all)")
    p.set_defaults(fn=_cmd_verify)

    return top


def _attach_negative_values(argv):
    """Write "--point -1,2" as "--point=-1,2".

    argparse takes a word that starts with "-" for an option unless it is a
    plain negative number, so "-1,2" or "-1;1" would not reach the option
    before it.  No option of this program starts with "-" and a digit.
    """
    out = []
    for word in argv:
        if word[:1] == "-" and word[1:2].isdigit() and out and out[-1][:2] == "--":
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None):
    top = build_parser()
    args = top.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.paper_examples:
            return _paper_examples(args)
        if not getattr(args, "command", None):
            top.print_usage(sys.stderr)
            return USAGE_ERROR
        cfg = None
        if getattr(args, "config", None):
            cfg = _load_config(args.config)
            _apply_output_defaults(args, cfg)
        return args.fn(args, cfg)
    except (CliError, ValueError, OSError) as exc:  # OSError: a file the user named
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc):
    """Report an exception that bad input does not explain: a bug, exit 2."""
    traceback.print_exc()
    sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
    return CHECK_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
