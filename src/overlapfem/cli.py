"""Command-line entry point: converge / probe / modes / constraints / solve."""

import argparse
import sys
from pathlib import Path

from .coupling import constraints_to_csv
from .harness import (
    ConfigError,
    convergence_csv,
    load_config,
    locking_probe,
    modes_csv,
    penalty_csv,
    probe_csv,
    run_constraints,
    run_convergence,
    run_modes,
    run_penalty_sweep,
    run_solve,
    solution_csv,
)
from .mesh import MeshError
from .solver import SolverError


def _emit(config, text, suffix=None):
    if config.output is None:
        sys.stdout.write(text)
    else:
        path = Path(config.output)
        if suffix is not None:
            path = path.with_name(path.name + suffix)
        try:
            path.write_text(text)
        except OSError as exc:
            raise ConfigError("cannot write output %s: %s" % (path, exc)) from None


def _converge(config):
    rows = run_convergence(config)
    _emit(config, convergence_csv(rows))
    if config.penalty_weights:
        _emit(config, penalty_csv(run_penalty_sweep(config)), suffix=".penalty.csv")
    if all(r["solve_status"] != "ok" for r in rows):
        raise SolverError("every resolution failed")


# Verb -> (help text, runner); a runner writes the verb's CSV output for a config.
_VERBS = {
    "converge": ("resolution sweep with L-infinity errors against closed forms", _converge),
    "probe": ("locking probe: affine-fit residual and derivative jumps",
              lambda config: _emit(config, probe_csv(locking_probe(config)))),
    "modes": ("first constrained eigenvalues at the finest resolution",
              lambda config: _emit(config, modes_csv(run_modes(config)))),
    "constraints": ("dump the coupling constraint set as CSV",
                    lambda config: _emit(config, constraints_to_csv(run_constraints(config)))),
    "solve": ("dump one solution as CSV",
              lambda config: _emit(config, solution_csv(*run_solve(config)))),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="overlapfem",
        description="Experiments on overlapping-mesh FEM deconstructed domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="experiment config file (key = value lines)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _VERBS[args.command][1](config)
        return 0
    except (ConfigError, MeshError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
