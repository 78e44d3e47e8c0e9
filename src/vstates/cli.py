"""Command-line interface.

Subcommands: dispersion, solve, sweep, render.  Exit codes:
0 success, 1 usage errors (a grid too large to allocate among them),
2 infeasible (m, b), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .continuation import EmptyBranch, minimum_distance, sweep
from .contour import VortexContourCoeffs, boundary_distance, perturbed_annulus, sample
from .dispersion import _check_inner_radius, critical_radius, eigenvalues_for_fold, feasibility
from .render import save_svg
from .solver import (
    GeometryBreakdown,
    SingularJacobian,
    SolverConfig,
    default_modes,
    newton_solve,
)
from .state_io import BranchFile, StateFile, load_state, save_branch, save_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _solver_config(args) -> SolverConfig:
    nodes = args.nodes if args.nodes is not None else 128 * args.m
    modes = args.modes if args.modes is not None else default_modes(args.m, nodes)
    if args.modes is None and modes < 1:
        raise ValueError(f"--nodes {nodes} leaves the default truncation (N/m - 1) // 2 "
                         f"at {modes} for m = {args.m}; use --nodes {3 * args.m} or more")
    return SolverConfig(
        modes=modes,
        nodes=nodes,
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _cmd_dispersion(args) -> int:
    _check_inner_radius(args.b)  # before any output; feasibility accepts any b
    f = feasibility(args.m, args.b)
    print(f"fold m = {args.m}, inner radius b = {args.b:.17g}")
    print(f"feasibility f_m(b) = {f:.17g}")
    if args.m >= 3:
        print(f"critical radius b_m = {critical_radius(args.m):.17g}")
    point = eigenvalues_for_fold(args.m, args.b)
    if point is None:
        print("no eigenvalue pair: the fold does not bifurcate at this radius")
        return EXIT_INFEASIBLE
    print(f"omega_minus = {point.omega_minus:.17g}  (lambda_plus = {point.lambda_plus:.17g})")
    print(f"omega_plus  = {point.omega_plus:.17g}  (lambda_minus = {point.lambda_minus:.17g})")
    print(f"transversal: {'yes' if point.transversal else 'no'}")
    return EXIT_OK


def _build_seed(args, parser, config: SolverConfig):
    if args.seed_file is None:
        return perturbed_annulus(
            args.b, args.m, config.modes, a1_1=args.seed_a1, a2_1=args.seed_a2
        )
    if args.seed_a1 != 0.0 or args.seed_a2 != 0.0:
        parser.error("--seed-file cannot be combined with --seed-a1/--seed-a2")
    state = load_state(args.seed_file)
    if state.b != args.b or state.m != args.m:
        parser.error(
            f"seed file is for (b={state.b}, m={state.m}), "
            f"requested (b={args.b}, m={args.m})"
        )
    if state.modes > config.modes:
        parser.error(
            f"seed file carries {state.modes} modes, more than the "
            f"requested truncation {config.modes}"
        )
    # Zero-pad a coarser seed up to the requested truncation.
    pad = (0, config.modes - state.modes)
    return VortexContourCoeffs(b=state.b, fold=state.m, modes=config.modes,
                               a1=np.pad(state.a1, pad), a2=np.pad(state.a2, pad))


def _cmd_solve(args, parser) -> int:
    config = _solver_config(args)
    seed = _build_seed(args, parser, config)
    report = newton_solve(args.b, args.omega, args.m, seed, config)
    state = StateFile.from_report(report, args.omega, config.nodes)
    out = args.out or f"state_m{args.m}_b{args.b:g}_omega{args.omega:g}.json"
    save_state(out, state, timestamp=not args.no_timestamp)
    status = "converged" if report.converged else "did NOT converge"
    print(f"{status} after {report.iterations} iterations; "
          f"residual max = {report.residual_max:.3e}")
    print(f"trivial (annulus) solution: {'yes' if report.trivial else 'no'}")
    if not report.trivial:
        print(f"a1_1 = {report.coeffs.a1[0]:.6e}, a2_1 = {report.coeffs.a2[0]:.6e}")
    if report.converged:
        distance = boundary_distance(sample(report.coeffs, config.nodes))
        print(f"boundary distance = {distance:.6f}")
    print(f"wrote {out}")
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _cmd_sweep(args) -> int:
    config = _solver_config(args)
    branch = sweep(
        args.b, args.m, args.omega_start, args.omega_end, args.omega_step, config
    )
    bf = BranchFile.from_branch(branch, args.omega_step, config.modes, config.nodes)
    save_branch(args.out, bf, timestamp=not args.no_timestamp)
    print(f"traced {len(branch.records)} states from omega = {args.omega_start:g} "
          f"toward {args.omega_end:g} (origin {branch.origin})")
    if branch.terminated_at is not None:
        print(f"branch terminated at omega = {branch.terminated_at:.17g}")
    omega_at_min, smallest = minimum_distance(branch)
    print(f"minimum boundary distance {smallest:.6f} at omega = {omega_at_min:.17g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        states = [load_state(path) for path in args.states]
    except (OSError, ValueError) as exc:
        print(f"cannot read state file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    save_svg(args.out, states, samples=args.samples)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    # Options that several subcommands share, each declared once
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--b", type=float, required=True, help="inner radius")
    shape.add_argument("--m", type=int, required=True, help="fold count")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--nodes", type=int, default=None,
                        help="quadrature nodes N (default 128*m); at N >= 2*N0, with N0 = m*(2M + 1) "
                             "the alias-free grid, Newton iterates on N0 and certifies on N")
    solver.add_argument("--modes", type=int, default=None,
                        help="coefficient truncation M (default (N/m - 1) // 2)")
    solver.add_argument("--tol", type=float, default=SolverConfig.tol,
                        help="pointwise residual tolerance (default %(default)g)")
    solver.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                        help="Newton iteration cap (default %(default)d)")
    solver.add_argument("--no-timestamp", action="store_true",
                        help="omit the created header for byte-stable output")

    parser = _Parser(prog="vstates",
                     description="doubly connected rotating vortex patches")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", parents=[shape], help="eigenvalue pair at (m, b)")
    p.set_defaults(handler=_cmd_dispersion)

    p = sub.add_parser("solve", parents=[shape, solver],
                       help="Newton solve at fixed (b, m, omega)")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--seed-a1", type=float, default=0.0,
                   help="first-mode outer amplitude of the seed")
    p.add_argument("--seed-a2", type=float, default=0.0,
                   help="first-mode inner amplitude of the seed")
    p.add_argument("--seed-file", type=str, default=None,
                   help="StateFile to seed from (overrides --seed-a1/2)")
    p.add_argument("--out", type=str, default=None, help="output StateFile path")
    p.set_defaults(handler=lambda a: _cmd_solve(a, parser))

    p = sub.add_parser("sweep", parents=[shape, solver], help="continuation sweep over omega")
    p.add_argument("--omega-start", type=float, required=True)
    p.add_argument("--omega-end", type=float, required=True)
    p.add_argument("--omega-step", type=float, required=True)
    p.add_argument("--out", type=str, required=True, help="output BranchFile path")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("render", help="draw states to SVG")
    p.add_argument("states", nargs="+", help="StateFile inputs")
    p.add_argument("--out", type=str, required=True, help="output SVG path")
    p.add_argument("--samples", type=int, default=720,
                   help="angular resolution of each curve (default 720)")
    p.set_defaults(handler=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (GeometryBreakdown, SingularJacobian, EmptyBranch) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, MemoryError) as exc:
        print(f"vstates: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
