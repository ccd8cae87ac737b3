"""Command-line driver: verification suites and one-shot computations.

`heckeforge verify` writes one JSON object per case (JSON Lines) as each
case ends, in case-id order, and exits 0 on all-pass, 1 on any failure, 2
on usage errors.
`heckeforge compute` exposes the individual calculators with JSON output.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

# Only the suite runner is imported here: each `compute` handler imports
# what it calls, and `verify` imports the case modules of the suites it runs.
from heckeforge import suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _list(val):
    items = [x.strip() for x in val.split(",") if x.strip()]
    if not items:
        raise ValueError("expected at least one comma-separated value")
    return items


def _int_list(val):
    return [int(x) for x in _list(val)]


def _suites(val):
    names = _list(val)
    unknown = [s for s in names if s not in suite.SUITES]
    if unknown:
        raise ValueError(f"unknown suite {', '.join(map(repr, unknown))}; "
                         f"known: {', '.join(suite.SUITES)}")
    return names


def _flag(val):
    flag = val.lower()
    if flag not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true or false, not {val!r}")
    return flag in ("1", "true", "yes")


_CONFIG_KEYS = {"suites": _suites, "n": _int_list, "p": _int_list,
                "r": _int_list, "seed": int,
                "corrupted_distribution_fixture": _flag}


def parse_config(path):
    """Flat key-value config: one `key = value` per line, '#' comments.

    The keys are _CONFIG_KEYS: suites (comma separated, each one of
    suite.SUITES), n / p / r (comma-separated values restricting the
    parameter-grid cases), seed (int), corrupted_distribution_fixture
    (true/false).  Each value comes back converted.  An unknown key, an
    empty list or a value that does not convert is a ValueError naming
    the line and the key.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def cmd_verify(args):
    cfg = parse_config(args.config) if args.config else {}
    seed = cfg.get("seed") if args.seed is None else args.seed
    suites = list(args.suite) if args.suite else cfg.get("suites")
    if seed is None:
        try:
            seed = int(os.environ.get("HECKE_FORGE_SEED", "0"))
        except ValueError as exc:
            raise ValueError(f"HECKE_FORGE_SEED: {exc}") from None
    if args.jobs is not None and args.jobs < 1:
        print(f"error: jobs = {args.jobs}; it must be at least 1",
              file=sys.stderr)
        return EXIT_USAGE
    reports = suite.run_suite(
        suites=suites, seed=seed,
        include_corrupted_fixture=cfg.get(
            "corrupted_distribution_fixture", False),
        n_values=cfg.get("n"), p_values=cfg.get("p"), r_values=cfg.get("r"))
    # the sink is opened before the first case runs, and each record is
    # written as its case ends
    sink = open(args.json_out, "w") if args.json_out else sys.stdout
    failed = 0
    try:
        for rep in reports:
            sink.write(json.dumps(rep, default=str) + "\n")
            sink.flush()
            failed += rep["status"] == "fail"
    finally:
        if args.json_out:
            sink.close()
    if failed:
        print(f"{failed} case(s) failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def cmd_gauss_sum(args):
    from heckeforge import gauss
    chi = gauss.primitive_character(args.p, args.s, args.order)
    if chi is None:
        print("error: no character of that order and conductor",
              file=sys.stderr)
        return EXIT_USAGE
    tau = gauss.classical_gauss_sum(chi)
    g = gauss.gauss_sum(chi, tau)
    sq = g * g
    out = {
        "p": args.p, "s": args.s, "order": args.order,
        "gauss_sum": g.to_json(),
        "square": sq.to_json(),
        "abs_square_is_ps": bool(
            tau * tau.conj() == args.p ** chi.conductor_exponent()),
    }
    print(json.dumps(out))
    return EXIT_PASS


def cmd_hecke_expand(args):
    from heckeforge import hecke
    from heckeforge.matrices import GlnContext
    ctx = GlnContext(args.n, args.p, args.r)
    cs = hecke.expand_operator(ctx, args.op)
    out = {
        "n": args.n, "p": args.p, "r": args.r, "op": args.op,
        "cosets": [{
            "matrix": [[str(x) for x in row] for row in rep.rows()],
            "coefficient": str(coeff),
        } for rep, coeff in cs.pairs()],
        "count": len(cs),
    }
    print(json.dumps(out))
    return EXIT_PASS


def cmd_satake(args):
    from heckeforge import hecke
    from heckeforge.exact import scalar_json
    poly = hecke.satake(args.n, args.nu)
    terms = [{"monomial": dict(k), "coefficient": scalar_json(v)}
             for k, v in sorted(poly.terms.items())]
    print(json.dumps({"n": args.n, "nu": args.nu, "terms": terms}))
    return EXIT_PASS


def cmd_branch(args):
    from heckeforge import weights
    mu = [int(x) for x in args.mu.split(",")]
    out = {
        "mu": mu,
        "branch": [list(w) for w in weights.branch(mu)],
        "count": weights.branch_count(mu),
    }
    print(json.dumps(out))
    return EXIT_PASS


def cmd_critical(args):
    from heckeforge import weights
    mu = [int(x) for x in args.mu.split(",")]
    nu = [int(x) for x in args.nu.split(",")]
    data = weights.critical_data(mu, nu)
    table = [{"nu": int(s - Fraction(1, 2)), "s": str(s), "in_emb": True}
             for s in data["critical_set"]]
    out = {
        "mu": mu, "nu": nu,
        "w": data["w"], "v": data["v"], "parity_ok": data["parity_ok"],
        "center": str(data["center"]),
        "nu_min": data["nu_min"],
        "s_min": str(data["s_min"]) if data["s_min"] is not None else None,
        "s_max": str(data["s_max"]) if data["s_max"] is not None else None,
        "emb": data["emb"],
        "critical_values": table,
    }
    print(json.dumps(out))
    return EXIT_PASS


def cmd_kappa_hat(args):
    from heckeforge import distributions as dist
    from heckeforge.exact import scalar_from_json, scalar_json
    val, info = dist.kappa_hat_value(args.n, args.p, args.s, args.nu,
                                     args.nu_min,
                                     scalar_from_json(args.kappa, "--kappa"))
    print(json.dumps({
        "n": args.n, "p": args.p, "s": args.s, "nu": args.nu,
        "nu_min": args.nu_min, "kappa_pair": args.kappa,
        "value": scalar_json(val), "exponents": info,
    }))
    return EXIT_PASS


def cmd_integrate(args):
    import random

    from heckeforge import distributions as dist
    from heckeforge.exact import scalar_from_json, scalar_json
    from heckeforge.gauss import primitive_character

    if args.from_json:
        with open(args.from_json) as fh:
            mu = dist.Distribution.from_json(json.load(fh))
        ok, witness = dist.check_distribution_relation(mu)
        if not ok:
            print(f"error: input violates the distribution relation at "
                  f"{witness}", file=sys.stderr)
            return EXIT_FAIL
    else:
        rng = random.Random(args.seed)
        tower = dist.QTower(args.p)
        base = {x: (Fraction(rng.randrange(-9, 10)),)
                for x in tower.elements(args.depth)}
        sym = dist.EigenSymbol(tower, scalar_from_json(args.kappa, "--kappa"),
                               args.depth, base, [0])
        mu = dist.build_mu(sym, 1)
    # the first character of conductor p^c in the order of the rational
    # tower's characters(c), taken without building the others
    chi = primitive_character(mu.tower.p, args.conductor)
    if chi is None:
        print(f"error: no character has conductor "
              f"{mu.tower.p}^{args.conductor}", file=sys.stderr)
        return EXIT_USAGE
    val = dist.integrate_character(mu, chi)
    print(json.dumps({
        "p": mu.tower.p, "conductor": args.conductor,
        "distribution": mu.to_json(),
        "integral": [scalar_json(v) for v in val],
    }))
    return EXIT_PASS


KAPPA_HELP = "a fraction such as 2, 3/5 or -3/5"


def _join_negative_kappa(argv):
    """argv with each `--kappa V` whose V is a '-' and a digit written as
    `--kappa=V`.  argparse reads a V such as -3/5 after a space as an
    option, since its negative-number pattern has no '/', and would leave
    --kappa without its argument."""
    out = []
    for a in argv:
        if out and out[-1] == "--kappa" and a[:1] == "-" and a[1:2].isdigit():
            out[-1] = f"--kappa={a}"
        else:
            out.append(a)
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heckeforge",
        description="exact Hecke-operator, Gauss-sum and p-adic "
                    "distribution verifications")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--config", help="flat key=value config file")
    v.add_argument("--seed", type=int, default=None,
                   help="RNG seed (fallback: HECKE_FORGE_SEED, then 0)")
    v.add_argument("--suite", action="append", choices=suite.SUITES,
                   help="restrict to a suite (repeatable)")
    v.add_argument("--json-out", help="write JSON Lines report here")
    v.add_argument("--jobs", type=int, default=None,
                   help="accepted and ignored (below 1 it is a usage "
                        "error), so that command lines written for the "
                        "former thread pool keep working; the cases run "
                        "one at a time")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("compute", help="one-shot exact computations")
    csub = c.add_subparsers(dest="subcommand", required=True)

    g = csub.add_parser("gauss-sum")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--s", type=int, default=1)
    g.add_argument("--order", type=int, default=2)
    g.set_defaults(fn=cmd_gauss_sum)

    h = csub.add_parser("hecke-expand")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--r", type=int, default=1)
    h.add_argument("--op", required=True,
                   help="V<nu>, U<i>, T<nu>, Vp or Vp'")
    h.set_defaults(fn=cmd_hecke_expand)

    s = csub.add_parser("satake")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--nu", type=int, required=True)
    s.set_defaults(fn=cmd_satake)

    b = csub.add_parser("branch")
    b.add_argument("--mu", required=True, help="comma separated weight")
    b.set_defaults(fn=cmd_branch)

    cr = csub.add_parser("critical")
    cr.add_argument("--mu", required=True)
    cr.add_argument("--nu", required=True)
    cr.set_defaults(fn=cmd_critical)

    k = csub.add_parser("kappa-hat")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--s", type=int, required=True)
    k.add_argument("--nu", type=int, required=True)
    k.add_argument("--nu-min", type=int, required=True)
    k.add_argument("--kappa", required=True, help=KAPPA_HELP)
    k.set_defaults(fn=cmd_kappa_hat)

    i = csub.add_parser("integrate")
    i.add_argument("--p", type=int, default=3)
    i.add_argument("--depth", type=int, default=2)
    i.add_argument("--conductor", type=int, default=1)
    i.add_argument("--kappa", default="2", help=KAPPA_HELP)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--from-json",
                   help="integrate a serialized distribution instead of a "
                        "freshly generated one")
    i.set_defaults(fn=cmd_integrate)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(
            _join_negative_kappa(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early.  As the signal module's docs advise for
        # SIGPIPE, point stdout at devnull so that the flush at exit does
        # not raise again, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except OSError as exc:
        # a --config, --json-out or --from-json path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
