"""Command line front end.

Subcommands: audit, simulate, spectrum, show-constellation.  Exit codes:
0 success, 1 a requested audit or simulation check failed, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .channel import channels_from_uniform, shape_invariance_audit
from .constellation import (
    build_constellation,
    chi_coordinates,
    distance_spectrum,
    table_expansion,
    verify_forms,
)
from .designs import (
    RH_TOL,
    alamouti_generators,
    make_generator_set,
    primed_alamouti_generators,
    radon_hurwitz_check,
    read_generator_file,
)
from .expansion import corollary1_audit, theorem1_audit
from .simulate import (
    FIELDS,
    MODES,
    SimConfig,
    field_value,
    format_csv,
    parse_config_file,
    run_simulation,
)


def _write_out(text: str, out) -> int:
    """Write text to the file out, or to stdout when out is unset."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _audit_rh(args, _e) -> bool:
    if args.generators:
        with open(args.generators) as fh:
            g = read_generator_file(fh.read())
        rep = radon_hurwitz_check(g)
        print("rh.file.scale=%.12g" % rep.scale)
        print("rh.file.max_residual=%.6e tol=%g" % (rep.max_residual, RH_TOL))
        print("rh.file.worst_pair=%d,%d" % rep.worst_pair)
        print("rh.file.pass=%s" % rep.passed)
        return rep.passed
    ok = True
    for name, g in (("base", alamouti_generators()),
                    ("primed", primed_alamouti_generators())):
        rep = radon_hurwitz_check(g)
        print("rh.%s.scale=%.12g" % (name, rep.scale))
        print("rh.%s.max_residual=%.6e tol=%g" % (name, rep.max_residual, RH_TOL))
        print("rh.%s.pass=%s" % (name, rep.passed))
        ok = ok and rep.passed
    mixed = make_generator_set(
        [alamouti_generators().basis[0], primed_alamouti_generators().basis[0]])
    rep = radon_hurwitz_check(mixed)
    print("rh.mixed.max_residual=%.6e expected=1.0" % rep.max_residual)
    print("rh.mixed.worst_pair=%d,%d" % rep.worst_pair)
    mixed_ok = (not rep.passed) and abs(rep.max_residual - 1.0) <= RH_TOL
    print("rh.mixed.fails_as_expected=%s" % mixed_ok)
    return ok and mixed_ok


def _audit_theorem1(_args, e) -> bool:
    audit = theorem1_audit(e)
    for k, r in enumerate(audit.residuals):
        print("theorem1.residual[%d]=%.12g" % (k, r))
    print("theorem1.min_residual=%.12g threshold=1e-6" % audit.min_residual)
    print("theorem1.pass=%s" % audit.separated)
    return audit.separated


def _audit_corollary1(_args, e) -> bool:
    audit = corollary1_audit(e)
    print("corollary1.min_residual=%.12g threshold=1e-6" % audit.min_residual)
    print("corollary1.max_residual=%.12g" % audit.max_residual)
    print("corollary1.points=%d" % audit.residuals.size)
    print("corollary1.pass=%s" % audit.separated)
    return audit.separated


#: ShapeInvarianceReport field -> the largest value that INVARIANCE passes.
INVARIANCE_TOLS = {"max_gram_error": 1e-12, "max_distance_error": 1e-11,
                   "max_angle_error": 1e-11}


def _audit_invariance(args, e) -> bool:
    rng = np.random.default_rng(args.seed)
    # 4 uniforms per trial, in trial order: the doubles of one rng.random(4) per trial
    hs = channels_from_uniform(rng.random(4 * args.trials).reshape(args.trials, 4))
    rep = shape_invariance_audit(e, hs)
    print("invariance.trials=%d" % args.trials)
    for field, tol in INVARIANCE_TOLS.items():
        print("invariance.%s=%.6e tol=%g" % (field, getattr(rep, field), tol))
    print("invariance.max_cross_distance_error=%.6e (reported, not asserted)"
          % rep.max_cross_distance_error)
    ok = all(getattr(rep, field) <= tol for field, tol in INVARIANCE_TOLS.items())
    print("invariance.pass=%s" % ok)
    return ok


def _audit_forms(_args, _e) -> bool:
    rep = verify_forms()
    print("forms.violations=%d" % len(rep.violations))
    for v in rep.violations:
        print("forms.violation=%s" % v)
    print("forms.pass=%s" % rep.passed)
    return rep.passed


#: Audit name -> runner, in the order that ALL runs them.
AUDITS = {
    "RH": _audit_rh,
    "THEOREM1": _audit_theorem1,
    "COROLLARY1": _audit_corollary1,
    "INVARIANCE": _audit_invariance,
    "FORMS": _audit_forms,
}


def cmd_audit(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    if args.generators and args.which not in ("RH", "ALL"):
        raise ValueError("--generators needs --which RH or ALL")
    names = list(AUDITS) if args.which == "ALL" else [args.which]
    e = table_expansion()       # one expansion for every audit of the call
    ok = True
    for name in names:
        ok = AUDITS[name](args, e) and ok
    print("audit.overall=%s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    kwargs = {name: field_value(name, getattr(args, name)) for name in FIELDS
              if getattr(args, name) is not None}
    if args.config:
        with open(args.config) as fh:
            kwargs = parse_config_file(fh.read(), kwargs)
    cfg = SimConfig(**kwargs)
    return _write_out(format_csv(cfg, run_simulation(cfg)), args.out)


def cmd_spectrum(args) -> int:
    spec = distance_spectrum(which=args.which)
    lines = ["distance_sq,multiplicity"]
    lines += ["%.12g,%d" % (d2, mult) for d2, mult in spec.items()]
    return _write_out("\n".join(lines) + "\n", args.out)


def cmd_show_constellation(_args) -> int:
    print("idx  tag     matrix(4PSK indices)  q8(coset,bits)  q16(coset,bit)  chi_oplus")
    for e in build_constellation():
        im = e.index_matrix
        chi = chi_coordinates(e)
        chi_s = "(" + ",".join("%+d" % round(x) for x in chi) + ")"
        print("%3d  %-6s  [%d %d; %d %d]            (%d, %s)         (%2d, %s)         %s"
              % (e.index, e.subconstellation.value, im[0][0], im[0][1],
                 im[1][0], im[1][1], e.q8_coset, e.q8_bits, e.q16_coset,
                 e.q16_bit, chi_s))
    return 0


def _any_case(*choices) -> dict:
    """add_argument keywords for a choice named in any case.  Unlike
    type=str.upper with choices=, a bad value is reported as typed."""
    def choice(text: str) -> str:
        if text.upper() not in choices:
            raise argparse.ArgumentTypeError("invalid choice: %r (choose from %s)"
                                             % (text, ", ".join(map(repr, choices))))
        return text.upper()
    return {"type": choice, "metavar": "{%s}" % ",".join(choices)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stc-lab",
        description="Super-orthogonal space-time constellation lab")
    p.add_argument("--version", action="version", version="stc-lab %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("audit", help="run numerical audits of the shipped design")
    pa.add_argument("--which", default="ALL", **_any_case(*AUDITS, "ALL"),
                    help="which audit to run, any case (default ALL)")
    pa.add_argument("--trials", type=int, default=1000,
                    help="random channel draws for INVARIANCE (default 1000)")
    pa.add_argument("--seed", type=int, default=1, help="audit RNG seed")
    pa.add_argument("--generators", metavar="FILE",
                    help="run RH on a generator-set file instead of the shipped sets")
    pa.set_defaults(func=cmd_audit)

    ps = sub.add_parser("simulate", help="Monte Carlo link simulation")
    ps.add_argument("--config", metavar="FILE", help="key=value config file")
    # dest is the SimConfig field; cmd_simulate converts and checks the text
    ps.add_argument("--mode", dest="mode", help="one of: %s" % ", ".join(MODES))
    ps.add_argument("--snr", dest="snr_list_db",
                    help="Es/N0 list in dB, separated by commas or spaces")
    ps.add_argument("--frames", dest="frames_per_point", help="frame budget per SNR point")
    ps.add_argument("--seed", dest="base_seed", help="base seed")
    ps.add_argument("--sections", dest="sections_per_frame", help="blocks per frame")
    ps.add_argument("--max-frame-errors", dest="max_frame_errors",
                    help="early-stop threshold per SNR point (default 200)")
    ps.add_argument("--trellis", dest="trellis_path", metavar="FILE",
                    help="trellis file (trellis mode)")
    ps.add_argument("--out", metavar="CSV", help="write results here instead of stdout")
    ps.set_defaults(func=cmd_simulate)

    pp = sub.add_parser("spectrum", help="pairwise squared-distance spectrum")
    pp.add_argument("--which", default="FULL", **_any_case("BASE", "PRIMED", "FULL"),
                    help="any case (default FULL)")
    pp.add_argument("--out", metavar="CSV")
    pp.set_defaults(func=cmd_spectrum)

    pc = sub.add_parser("show-constellation", help="print the 32-entry table")
    pc.set_defaults(func=cmd_show_constellation)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:    # e.g. draws for a huge --trials
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
