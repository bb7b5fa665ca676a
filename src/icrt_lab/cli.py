"""Command-line interface: sampling commands and verification suites.

Exit codes: 0 success, 1 suite failure, 2 usage or configuration error.
Every run is reproducible from (argv, seed); reports embed the resolved
configuration.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass
from inspect import signature

from . import errors as err
from .icrt import line_breaking_tree
from .paths import DEFAULT_GRID, Theta, sample_brownian_bridge, validate_theta
from .ptree import PSeq, approximating_pseq, breadth_tree, depth_tree, sample_positions, uniform_pseq, width_profile
from .reflect import reflected_excursion, sample_excursion
from .rng import RngState
from .stats import ALPHA, ks_p_value
from .verify import REFERENCE_THETA, SUITES, check_spanning_leaves

# Suites whose verdicts are two-sample KS tests of `--samples` per side.
KS_SUITES = ("theorem1", "theorem2", "jeulin", "repeat-time")


@dataclass
class Config:
    """Resolved run configuration, validated before use."""

    theta: Theta | None = None
    uniform: bool = False
    n: int | None = 1000
    leaves: int | None = 2
    grid: int | None = DEFAULT_GRID
    seed: int = 0
    samples: int | None = None
    out: str | None = None
    construction: str = "breadth"

    def __post_init__(self):
        for flag, value, low in (("--n", self.n, 1), ("--samples", self.samples, 1),
                                 ("--grid", self.grid, 2), ("--J", self.leaves, 1),
                                 ("--seed", self.seed, 0)):
            if value is not None and value < low:
                raise ValueError(f"{flag} must be >= {low}, got {value}")
        if self.theta is not None and not self.uniform and self.n is not None:
            try:
                approximating_pseq(self.theta, self.n)
            except ValueError as e:
                raise ValueError(f"--n {self.n} is too small for theta: {e}") from None


def _parse_theta(text: str) -> Theta:
    parts = [float(v) for v in text.split(",") if v.strip() != ""]
    if not parts:
        raise err.NormError("empty theta argument")
    return validate_theta(parts[0], parts[1:])


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pseq_from_config(cfg: Config) -> PSeq:
    if cfg.uniform or cfg.theta is None:
        return uniform_pseq(cfg.n)
    return approximating_pseq(cfg.theta, cfg.n)


def cmd_sample(args) -> int:
    try:
        theta = _parse_theta(args.theta) if args.theta else None
        # Only the tree kinds read --n, so only they check it against theta.
        cfg = Config(theta=theta, uniform=args.uniform,
                     n=args.n if args.kind in ("ptree", "width") else None,
                     leaves=args.J, grid=args.grid, seed=args.seed, out=args.out,
                     construction=args.construction)
    except (err.NormError, err.SignError, err.ZeroTheta0Error, ValueError) as e:
        return _usage_error(f"{type(e).__name__}: {e}")
    rng = RngState(cfg.seed)
    kind = args.kind
    try:
        if kind in ("bridge", "excursion", "y"):
            if kind == "bridge":
                path = sample_brownian_bridge(cfg.grid, rng)
            else:
                exc = sample_excursion(cfg.theta or validate_theta(1.0, ()), cfg.grid, rng)
                path = reflected_excursion(exc) if kind == "y" else exc
            buf = io.StringIO()
            path.to_csv(buf)
            text = buf.getvalue()
        elif kind == "ptree":
            p = _pseq_from_config(cfg)
            build = breadth_tree if cfg.construction == "breadth" else depth_tree
            tree = build(sample_positions(p, rng))
            header = json.dumps({"n": tree.n, "root": int(tree.root),
                                 "p": p.probs.tolist(), "kind": tree.kind})
            rows = "\n".join(f"{v},{int(tree.parent[v])}" for v in range(tree.n))
            text = f"# {header}\nvertex,parent\n{rows}\n"
        elif kind == "icrt":
            th = cfg.theta or validate_theta(1.0, ())
            et = line_breaking_tree(th, cfg.leaves, rng)
            text = et.to_json() + "\n"
        elif kind == "width":
            p = _pseq_from_config(cfg)
            tree = breadth_tree(sample_positions(p, rng))
            width, cumulative = width_profile(tree, p)
            rows = "\n".join(
                f"{g * p.sigma:.17g},{width[g]:.17g},{cumulative[g]:.17g}"
                for g in range(width.size))
            text = f"height,width,cumulative\n{rows}\n"
        else:
            return _usage_error(f"unknown sample kind {kind!r}")
    except err.IcrtLabError as e:
        return _usage_error(f"{type(e).__name__}: {e}")
    _emit(text, cfg.out)
    print(f"sample {kind}: seed={cfg.seed} grid={cfg.grid} -> {cfg.out or 'stdout'}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        return _usage_error(f"unknown suite {args.suite!r}; available: {', '.join(SUITES)}")
    try:
        # identities and theorem2 build the reference vector at --n
        Config(theta=REFERENCE_THETA if args.suite in ("identities", "theorem2") else None,
               n=args.n, samples=args.samples, grid=args.grid, leaves=args.J,
               seed=args.seed)
    except ValueError as e:
        return _usage_error(str(e))
    if args.suite == "jeulin" and args.samples == 1:
        return _usage_error("--samples must be >= 2 for jeulin: the height-mean check "
                            "needs a sample variance")
    if args.suite == "theorem2" and args.J is not None:
        n = args.n if args.n is not None else signature(SUITES["theorem2"]).parameters["n"].default
        try:
            check_spanning_leaves(approximating_pseq(REFERENCE_THETA, n), args.J)
        except ValueError as e:
            return _usage_error(f"--J {args.J} is too large for theorem2 at --n {n}: {e}")
    if args.suite in KS_SUITES and args.samples is not None:
        # below this size not even D = 1, the samples wholly apart, can fail
        p = ks_p_value(1.0, args.samples, args.samples)
        if p > ALPHA:
            return _usage_error(f"--samples {args.samples} is too small for {args.suite}: "
                                f"its KS test cannot fail, as D = 1 has p = {p:.2g} > {ALPHA}")
    kwargs = {"seed": args.seed}
    opt = {
        "identities": {"n": args.n, "reps": args.samples},
        "btree-law": {"samples": args.samples},
        "theorem1": {"replicates": args.samples, "grid": args.grid},
        "theorem2": {"n": args.n, "replicates": args.samples, "leaves": args.J},
        "jeulin": {"grid": args.grid, "replicates": args.samples},
        "pkey": {"reps": args.samples},
        "unifconv": {"reps": args.samples, "grid": args.grid},
        "repeat-time": {"n": args.n, "replicates": args.samples},
        "y-oracle": {"reps": args.samples, "grid": args.grid},
    }[args.suite]
    kwargs.update({k: v for k, v in opt.items() if v is not None})
    config = {"suite": args.suite, **kwargs}
    try:
        reports, ok = SUITES[args.suite](**kwargs)
    except err.LowExpectedCountError as e:
        return _usage_error(f"--samples {args.samples} is too small for the "
                            f"chi-square test: {e}")
    lines = []
    for rep in reports:
        obj = json.loads(rep.to_json())
        obj["config"] = config
        lines.append(json.dumps(obj))
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    print(f"verify {args.suite}: {'PASS' if ok else 'FAIL'} "
          f"({sum(r.passed for r in reports)}/{len(reports)} checks)", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="icrt-lab",
                                 description="Samplers and verification suites "
                                             "for excursion-coded random trees.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample an object and write CSV/JSON")
    sp.add_argument("kind", choices=["bridge", "excursion", "y", "ptree", "icrt", "width"])
    sp.add_argument("--theta", help="comma-separated: theta0,atom1,atom2,...")
    sp.add_argument("--uniform", action="store_true", help="uniform weights for tree kinds")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--J", type=int, default=2)
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--construction", choices=["breadth", "depth"], default="breadth")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sample)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite")
    vp.add_argument("--n", type=int)
    vp.add_argument("--J", type=int)
    vp.add_argument("--grid", type=int)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--samples", type=int)
    vp.add_argument("--out")
    vp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
