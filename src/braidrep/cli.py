"""Command line surface.

Three subcommands: `rep` prints generator images (or the image of a word)
for a named constructor, `invariant` computes the Alexander polynomial or
the two-variable fraction of a braid closure, `verify` runs one of the named
identity suites.  Output is text, JSON (top-level {"schema": 1}), or LaTeX.

Exit codes: 0 on success / all checks passing, 1 when a verification or an
invariant computation fails (an arithmetic error included, such as inverting
a generator image that is singular over the Laurent ring), 2 for usage
errors.
"""

import argparse
import json
import math
import sys

from . import reps
from .braid import MAX_WORD_LETTERS, BraidWord, check_braid_relations
from .invariants import (InvariantError, alexander, krammer_fraction,
                         markov1_test, markov2_probe)
from .laurent import MAX_NUMERAL_DIGITS, parse_poly

# Largest --strands, --power and --max-power, and largest q-Pascal dimension
# parameter (--lambda takes MAX_SIZE + 1 entries): every constructor builds at
# this size within seconds, while sizes far beyond it exhaust time or memory.
MAX_SIZE = 16

# Largest |exponent| of t or q in a --lambda entry.  Each q-Pascal generator
# image or inverse has exponents within that of its entries plus C(MAX_SIZE, 2)
# (Gaussian binomials and the slot diagonal q^C(r,2)), and a word image sums
# at most MAX_WORD_LETTERS such exponents, so each stays below
# 10^MAX_NUMERAL_DIGITS and prints in at most MAX_NUMERAL_DIGITS digits.
MAX_LAMBDA_EXPONENT = (10 ** MAX_NUMERAL_DIGITS - 1) // MAX_WORD_LETTERS - math.comb(MAX_SIZE, 2)


class UsageError(ValueError):
    pass


def _parse_lambdas(text):
    pieces = text.split(",")
    if len(pieces) > MAX_SIZE + 1:
        raise UsageError("--rep qpascal takes at most %d --lambda entries, got %d"
                         % (MAX_SIZE + 1, len(pieces)))
    entries = []
    for r, piece in enumerate(pieces):
        piece = piece.strip()
        if not piece:
            raise UsageError("--lambda entry lambda_%d is empty" % r)
        entry = parse_poly(piece)
        big = max(map(abs, entry.min_exponents() + entry.max_exponents()))
        if big > MAX_LAMBDA_EXPONENT:
            raise UsageError("--lambda entry lambda_%d has an exponent of %d digits, too large "
                             "to print in the image of a word of up to %d letters"
                             % (r, len(str(big)), MAX_WORD_LETTERS))
        entries.append(entry)
    return entries


def build_representation(args):
    """Construct the representation named by --rep with its parameters."""
    name = args.rep
    n = args.strands
    if name in ("burau", "reduced-burau", "lk", "lk-orig", "sym2q") and n is None:
        raise UsageError("--rep %s needs --strands" % name)
    if name == "burau":
        return reps.burau_unreduced(n)
    if name == "reduced-burau":
        return reps.burau_reduced(n, args.form)
    if name == "lk":
        return reps.lk(n, args.notation)
    if name == "lk-orig":
        return reps.lk(n, "bigelow")
    if name == "sym2q":
        return reps.sym2_quantized(n)
    if name == "qpascal":
        if args.lambdas is None:
            raise UsageError("--rep qpascal needs --lambda l0,l1,...,lM")
        lambdas = _parse_lambdas(args.lambdas)
        if args.dim is not None and args.dim != len(lambdas) - 1:
            raise UsageError("--dim %d does not match %d lambda entries"
                             % (args.dim, len(lambdas)))
        if n is not None and n != 3:
            raise UsageError("qpascal representations live on 3 strands")
        return reps.qpascal_rep(lambdas, args.form)
    if name == "lie":
        if n is None and args.power is None:
            raise UsageError("--rep lie needs --strands or --power")
        return reps.lie_rep(strands=n, power=args.power)
    raise UsageError("unknown constructor %r" % name)


def cmd_rep(args):
    rep = build_representation(args)
    if args.word is not None:
        word = BraidWord.parse(args.word, rep.strands)
        img = rep.image(word)
        if args.format == "json":
            print(json.dumps({"schema": 1, "constructor": rep.label,
                              "strands": rep.strands, "word": str(word),
                              "image": img.to_json()}))
        elif args.format == "latex":
            print(img.to_latex())
        else:
            print(str(img))
        return 0
    if args.format == "json":
        print(json.dumps({"schema": 1, "constructor": rep.label,
                          "strands": rep.strands, "dim": rep.dim,
                          "generators": [g.to_json() for g in rep.gen_images]}))
        return 0
    for i, g in enumerate(rep.gen_images):
        if args.format == "latex":
            print("\\sigma_{%d} \\mapsto %s" % (i + 1, g.to_latex()))
        else:
            print("sigma_%d ->" % (i + 1))
            print(str(g))
        if i + 1 < len(rep.gen_images):
            print()
    return 0


def cmd_invariant(args):
    if args.strands is None:
        raise UsageError("--invariant %s needs --strands" % args.invariant)
    word = BraidWord.parse(args.word, args.strands)
    if args.invariant == "alexander":
        result = alexander(word)
        fraction, collapsed = result.raw_fraction, result.normalized
    else:
        result = krammer_fraction(word)
        fraction, collapsed = result.fraction, result.collapsed
    headline = fraction if collapsed is None else collapsed
    if args.format == "json":
        print(json.dumps({"schema": 1, "invariant": args.invariant,
                          "num": fraction.num.to_json_terms(),
                          "den": fraction.den.to_json_terms(),
                          "collapsed": None if collapsed is None else collapsed.to_json_terms()}))
    elif args.format == "latex":
        print(headline.to_latex())
    else:
        print(str(headline))
    if fraction.num.is_zero():
        if args.invariant == "alexander":
            why = ("so the closure has at least two components (a knot's Alexander "
                   "polynomial is +-1 at t = 1)")
        else:
            why = ("as for every word of even length that misses a generator, but not only "
                   "then (the figure-eight knot 1 -2 1 -2 is conjugate to its inverse, and its "
                   "Krammer value is 0)")
        print("braidrep: note: det(rho(word) - I) = 0, so the value is 0: the image "
              "of the word has eigenvalue 1, " + why, file=sys.stderr)
    return 0


def _default_conjugators(n):
    words = []
    for i in range(1, n):
        words.append(BraidWord(n, [i]))
        words.append(BraidWord(n, [-i]))
    return words


def run_check(args):
    check = args.check
    n = args.strands
    if check == "braid-relations":
        if args.rep is None:
            raise UsageError("--check braid-relations needs --rep")
        return check_braid_relations(build_representation(args))
    if check in ("lk-equivalence", "spectrum", "stability") and n is None:
        raise UsageError("--check %s needs --strands" % check)
    if check == "lk-equivalence":
        return reps.verify_lk_equivalence(n)
    if check == "spectrum":
        return reps.verify_spectrum(n)
    if check == "stability":
        return reps.verify_stability(n)
    if check == "ext-square":
        return reps.verify_ext_square()
    if check == "humphry":
        if not 1 <= args.max_power <= MAX_SIZE:
            raise UsageError("--check humphry needs --max-power between 1 and %d" % MAX_SIZE)
        return reps.verify_humphry(args.max_power)
    if check in ("markov1", "markov2-probe"):
        if n is None or args.word is None:
            raise UsageError("--check %s needs --strands and --word" % check)
        word = BraidWord.parse(args.word, n)
        if check == "markov2-probe":
            return markov2_probe(word)
        if args.conjugators is not None:
            pieces = args.conjugators.split(";")
            for k, piece in enumerate(pieces, 1):
                if not piece.strip():
                    raise UsageError("--conjugators entry %d of %d is empty" % (k, len(pieces)))
            gs = [BraidWord.parse(piece, n) for piece in pieces]
        else:
            gs = _default_conjugators(n)
        return markov1_test(word, gs)
    raise UsageError("unknown check %r" % check)


def cmd_verify(args):
    report = run_check(args)
    if not report.entries:
        raise UsageError("--check %s ran no cases with these parameters" % args.check)
    if args.format == "json":
        payload = {"schema": 1}
        payload.update(report.to_json())
        print(json.dumps(payload))
    else:
        print(str(report))
    if args.check == "markov2-probe":
        return 0
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="braidrep",
        description="Exact braid group representations and knot invariants "
                    "over Laurent polynomials in t and q.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "latex")):
        p.add_argument("--strands", type=int, default=None,
                       help="number of braid strands")
        p.add_argument("--format", choices=formats,
                       default="text", help="output format")

    def constructor(p, required):
        p.add_argument("--rep", required=required,
                       choices=("burau", "reduced-burau", "lk", "lk-orig",
                                "sym2q", "qpascal", "lie"),
                       help="constructor name")
        p.add_argument("--form", choices=("standard", "conjugated", "sharp"),
                       default="standard",
                       help="reduced Burau form, or 'sharp' for the q-Pascal rep")
        p.add_argument("--notation", choices=("new", "bigelow"), default="new",
                       help="parameter convention for --rep lk")
        p.add_argument("--dim", type=int, default=None,
                       help="dimension parameter for --rep qpascal")
        p.add_argument("--lambda", dest="lambdas", default=None,
                       help="comma-separated unit monomials for --rep qpascal")
        p.add_argument("--power", type=int, default=None,
                       help="symmetric power for --rep lie (3 strands)")

    p_rep = sub.add_parser("rep", help="print generator images or a word image")
    common(p_rep)
    constructor(p_rep, required=True)
    p_rep.add_argument("--word", default=None,
                       help="braid word; when given, print its image instead")
    p_rep.set_defaults(func=cmd_rep)

    p_inv = sub.add_parser("invariant", help="invariants of a braid closure")
    common(p_inv)
    p_inv.add_argument("--invariant", required=True,
                       choices=("alexander", "krammer"))
    p_inv.add_argument("--word", required=True, help="braid word (may be empty)")
    p_inv.set_defaults(func=cmd_invariant)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    common(p_ver, formats=("text", "json"))
    p_ver.add_argument("--check", required=True,
                       choices=("braid-relations", "lk-equivalence", "spectrum",
                                "markov1", "markov2-probe", "stability",
                                "ext-square", "humphry"))
    constructor(p_ver, required=False)
    p_ver.add_argument("--word", default=None, help="braid word for the markov checks")
    p_ver.add_argument("--conjugators", default=None,
                       help="semicolon-separated conjugating words for markov1")
    p_ver.add_argument("--max-power", type=int, default=7,
                       help="largest symmetric power for --check humphry")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.strands is not None and args.strands < 2:
        parser.exit(2, "braidrep: --strands must be at least 2\n")
    for name in ("strands", "power"):
        if (getattr(args, name, None) or 0) > MAX_SIZE:
            parser.exit(2, "braidrep: --%s must be at most %d\n" % (name, MAX_SIZE))
    try:
        return args.func(args)
    except ValueError as e:
        parser.exit(2, "braidrep: %s\n" % e)
    except (InvariantError, ArithmeticError) as e:
        print("braidrep: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
