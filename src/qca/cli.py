"""Command-line front end: validation, dispersion sweeps, evolution runs,
electromagnetic-sector experiments, tiling and the coupling search.

Every subcommand has a JSON emit mode; numeric output is formatted at 17
significant digits, so a fixed configuration and seed reproduce output
byte for byte.
"""

import argparse
import contextlib
import functools
import re
import sys
from dataclasses import replace

import numpy as np

from . import catalog, dirac, evolution, fock, maxwell, serialize, weyl
from .cayley import build_presentation, make_tiling
from .errors import QcaError


@contextlib.contextmanager
def _naming_errors(flag, path):
    """An OSError on the file `path` as a QcaError that names `flag`."""
    try:
        yield
    except OSError as exc:
        raise QcaError(f"{flag} {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _opened(path, flag="--output"):
    """The text file `path` (standard output for None or "-"), opened on entry;
    an OSError on it names `flag`."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with _naming_errors(flag, path), open(path, "w", encoding="utf-8") as fh:
        yield fh


def _emit_report(payload, args):
    document = serialize.report_document(payload)  # built before the file is opened
    with _opened(args.output) as fh:
        fh.write(document)


def _load_descriptor(args):
    if args.descriptor:
        return serialize.load_descriptor(args.descriptor)
    if not args.builtin:
        raise QcaError("pass --builtin NAME or --descriptor FILE")
    # The chiral variant first, so that an error names the flag it comes from.
    _parsed("--theta", args.theta, lambda theta: catalog.builtin_variant(args.builtin, theta))
    return _parsed("--mass", args.mass,
                   lambda mass: catalog.build_descriptor(args.builtin, mass, args.theta))


def _parsed(name, text, convert):
    """convert(text); a ValueError or QcaError it raises becomes a QcaError
    that names `name`."""
    try:
        return convert(text)
    except (ValueError, QcaError) as exc:
        raise QcaError(f"{name}: {exc}") from None


def _parse_vector(text, dimension):
    parts = [float(v) for v in text.split(",") if v != ""]
    if len(parts) != dimension:
        raise QcaError(f"expected {dimension} components, got {len(parts)}")
    return np.array(parts)


def _parse_lattice(text, presentation):
    return evolution.LatticeSpec(presentation, tuple(int(v) for v in text.split(",") if v != ""))


def _parse_int_matrix(text):
    return tuple(tuple(int(v) for v in row.split(",")) for row in text.split(";"))


# ---------------------------------------------------------------- graph

def _cmd_graph(args):
    presentation = build_presentation(args.kind)
    _emit_report(serialize.presentation_to_dict(presentation), args)
    return 0


# ------------------------------------------------------------- validate

def _cmd_validate(args):
    if not np.isfinite(args.tolerance):
        raise QcaError("--tolerance must be finite")
    descriptor = _load_descriptor(args)
    report = catalog.validate_descriptor(descriptor, tolerance=args.tolerance)
    _emit_report(report, args)
    return 0 if report["passed"] else 1


# ----------------------------------------------------------- dispersion

_K_BLOCK = 4096  # wave-vectors per dispersion call


def _dispersion_table(presentation, grid, sweep):
    """Rows (k, omega+, omega-, v) over the zone grid in np.ndindex order (the last
    group coordinate varies fastest), filled by one sweep(k) per block of
    wave-vectors: the closed forms act per row, so the bits are those of one
    call over the whole grid."""
    d = presentation.dimension
    axis = np.arange(grid) * (2.0 * np.pi / grid) - np.pi
    rows = np.empty((grid ** d, 2 * d + 2))
    for start in range(0, len(rows), _K_BLOCK):
        block = rows[start:start + _K_BLOCK]
        index = np.unravel_index(np.arange(start, start + len(block)), (grid,) * d)
        k = presentation.k_of_theta(axis[np.stack(index, axis=-1)])
        sample = sweep(k)
        np.concatenate([k, sample.omega, sample.group_velocity], axis=1, out=block)
    return rows


def _cmd_dispersion(args):
    if args.grid < 1:
        raise QcaError("--grid must be at least 1")
    variant = _parsed("--theta", args.theta,
                      lambda theta: weyl.variant_by_name(args.variant, theta=theta))
    if args.dirac:
        dd = _parsed("--mass", args.mass,
                     lambda mass: dirac.DiracDescriptor(weyl=variant, mass=mass))
        sweep = functools.partial(dirac.dirac_dispersion, dd)
    else:
        sweep = functools.partial(weyl.dispersion, variant)
    pres = build_presentation(variant.presentation_kind)
    d = variant.dimension
    # Opened before the sweep: a target that cannot take the table costs no work.
    with _opened(args.output) as fh:
        rows = _dispersion_table(pres, args.grid, sweep)
        if args.emit == "csv":
            header = ([f"k{j + 1}" for j in range(d)] + ["omega_plus", "omega_minus"]
                      + [f"v{j + 1}" for j in range(d)])
            fh.writelines(serialize.csv_document(header, rows))
        else:
            fh.writelines(serialize.report_pieces({"variant": args.variant, "dirac": bool(args.dirac),
                                                   "grid": args.grid, "rows": rows}))
    return 0


# --------------------------------------------------------------- evolve

_PACKET_KEYS = ("k0", "sigma", "x0", "branch")


def _parse_packet(text, dimension):
    # Fields separated by ';' or by ',' when the comma precedes a new key,
    # so both "k0=0.2,0,0;sigma=0.05" and "k0=0.2,0,0,sigma=0.05" parse.
    fields = {}
    for chunk in re.split(r";|,(?=\s*[A-Za-z_][A-Za-z0-9_]*\s*=)", text):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - set(_PACKET_KEYS)
    if unknown:
        raise QcaError(f"--packet has unknown keys {sorted(unknown)}; "
                       f"known keys: {', '.join(_PACKET_KEYS)}")
    missing = {"k0", "sigma"} - set(fields)
    if missing:
        raise QcaError(f"--packet is missing {sorted(missing)}")
    fields.setdefault("x0", ",".join(["0"] * dimension))
    k0 = _parsed("--packet k0", fields["k0"], lambda value: _parse_vector(value, dimension))
    sigma = _parsed("--packet sigma", fields["sigma"], float)
    x0 = _parsed("--packet x0", fields["x0"], lambda value: tuple(int(v) for v in value.split(",")))
    if len(x0) != dimension:
        raise QcaError(f"--packet x0: expected {dimension} components, got {len(x0)}")
    # One field at a time into a valid spec, so that the spec's own check names the field.
    spec = evolution.WavePacketSpec(center_k=(0.0,) * dimension, sigma_k=1.0, center_x=x0)
    for key, field, value in (("k0", "center_k", tuple(k0)), ("sigma", "sigma_k", sigma),
                              ("branch", "branch", fields.get("branch", "plus"))):
        spec = _parsed(f"--packet {key}", {field: value}, lambda change: replace(spec, **change))
    return spec


def _cmd_evolve(args):
    descriptor = _load_descriptor(args)
    lattice = _parsed("--sizes", args.sizes,
                      lambda text: _parse_lattice(text, descriptor.presentation))
    spec = _parse_packet(args.packet, descriptor.presentation.dimension)
    if args.steps <= 0:
        raise QcaError("--steps must be positive")
    if args.record_every < 0:
        raise QcaError("--record-every must be non-negative")
    plan, hat = evolution.packet_modes(spec, descriptor, lattice)
    basis = descriptor.presentation.basis_matrix
    # Every target is opened before any stepping (a bad one costs no work) and closed on any exit.
    with contextlib.ExitStack() as files:
        with _naming_errors("--snapshot", args.snapshot):
            stream = args.snapshot and files.enter_context(contextlib.closing(
                serialize.SnapshotStream(args.snapshot, lattice.sizes, hat.shape[-1], args.steps)))
        observables = args.observables and files.enter_context(
            _opened(args.observables, "--observables"))
        output = files.enter_context(_opened(args.output))
        run = evolution.run(plan, hat, args.steps, args.record_every, spec.center_x)
        if stream:
            with _naming_errors("--snapshot", args.snapshot):
                for slab in plan.modes.ifft_slabs(run.hat):
                    stream.write(slab)
        if observables:
            # Named here: an OSError left to the stack would name --output, opened last.
            with _naming_errors("--observables", args.observables):
                observables.writelines(serialize.csv_document(
                    ["step", "norm"] + [f"x{j + 1}" for j in range(len(basis))],
                    [[r.step, r.moments.norm, *(basis @ r.position)] for r in run.records[1:]]))
        summary = {"steps": args.steps, "norm": run.records[-1].moments.norm,
                   "packet": {"k0": list(spec.center_k), "sigma": spec.sigma_k,
                              "x0": list(spec.center_x), "branch": spec.branch},
                   "velocity": None if run.velocity is None else basis @ run.velocity}
        if run.velocity is None:  # the run is valid; only its velocity readout is not
            summary["velocity_error"] = run.velocity_error
        output.write(serialize.report_document(summary))
    return 0


# -------------------------------------------------------------- maxwell

def _cmd_maxwell(args):
    if not (np.isfinite(args.dt) and args.dt > 0):
        raise QcaError("--dt must be positive and finite")
    k = _parsed("--k", args.k, lambda text: _parse_vector(text, 3))
    for flag, values in (("--time", args.time), ("--k", k)):
        if not np.all(np.isfinite(values)):
            raise QcaError(f"{flag} must be finite")
    variant = weyl.variant_by_name(args.variant)
    rng = np.random.default_rng(args.seed)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    payload = maxwell.mode_maxwell_residual(
        psi, phi, k, args.dt, t_max=args.time, variant=variant
    )
    payload["k"] = [float(v) for v in k]
    payload["dt"] = args.dt
    payload["time"] = args.time
    payload["precession_deviation"] = maxwell.precession_deviation(k, variant)
    payload["identity_residual"] = maxwell.angular_momentum_identity_residual(
        rng.uniform(-np.pi, np.pi, size=3)
    )
    _emit_report(payload, args)
    return 0


# ----------------------------------------------------------------- fock

def _cmd_fock(args):
    if args.fill < 0:
        raise QcaError("--fill must be non-negative")
    oracle = _parsed("--modes", args.modes, lambda modes: fock.FockOracle(n_pair_modes=modes))
    if args.fill > args.modes:
        raise QcaError("--fill cannot exceed --modes")
    state = oracle.filled_psi_state(args.fill)
    table = []
    for i in range(2):
        for j in range(2):
            deviation, epsilon = fock.fock_commutator_deviation(oracle, state, (i, j))
            table.append({"i": i + 1, "j": j + 1, "deviation": deviation,
                          "epsilon": epsilon})
    payload = {
        "pair_modes": args.modes,
        "filled": args.fill,
        "anticommutator_residual": fock.anticommutator_residual(n_modes=6),
        "table": table,
    }
    _emit_report(payload, args)
    return 0


# ----------------------------------------------------------------- tile

def _cmd_tile(args):
    descriptor = _load_descriptor(args)
    tiling = _parsed("--basis", args.basis, lambda text: make_tiling(
        descriptor.presentation, _parse_int_matrix(text)))
    payload = {
        "index": tiling.index,
        "coset_reps": [list(rep) for rep in tiling.coset_reps],
        "coarse_internal_dim": descriptor.internal_dim * tiling.index,
    }
    if args.sizes:
        _parsed("--basis", tiling, evolution.regrouping_steps)
        lattice = _parsed("--sizes", args.sizes,
                          lambda text: _parse_lattice(text, descriptor.presentation))
        rng = np.random.default_rng(args.seed)
        state = evolution.random_state(lattice, descriptor.internal_dim, rng)
        # With the basis checked, the regrouping fails only on a size the steps do not divide.
        regrouped = _parsed("--sizes", state, lambda state: evolution.apply_tiling(state, tiling))
        coarse = evolution.tile_descriptor(descriptor, tiling)
        fine = evolution.apply_tiling(evolution.step_direct(state, descriptor), tiling)
        coarse_step = evolution.step_direct(regrouped, coarse)
        payload["commuting_square_residual"] = float(
            np.max(np.abs(fine.amplitudes - coarse_step.amplitudes))
        )
    _emit_report(payload, args)
    return 0


# --------------------------------------------------------- dirac-search

def _cmd_dirac_search(args):
    for flag, count in (("--samples", args.samples), ("--k-samples", args.k_samples)):
        if count < 1:
            raise QcaError(f"{flag} must be at least 1")
    if not (np.isfinite(args.tolerance) and args.tolerance > 0):
        raise QcaError("--tolerance must be positive and finite")
    setup = dirac.probe_setup(weyl.variant_by_name(args.variant), args.seed, args.k_samples)
    # Opened after the set-up's usage checks and before the trials: a target
    # that cannot take the report costs no work, and a usage error leaves it alone.
    with _opened(args.output) as fh:
        report = dirac.uniqueness_probe(setup=setup, n_seeds=args.samples,
                                        residual_tol=args.tolerance)
        if report["best_nonfamily_residual"] == float("inf"):
            report["best_nonfamily_residual"] = 1.0
        fh.write(serialize.report_document(report))
    return 0


# ----------------------------------------------------------------- main

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qca",
        description="Lattice automata on Abelian Cayley graphs: validation, "
        "dispersion, evolution, electromagnetic checks, tiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, descriptor=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if descriptor:
            p.add_argument("--builtin", default=None, choices=list(catalog.builtin_names()))
            p.add_argument("--descriptor", default=None)
            p.add_argument("--mass", type=float, default=None)
            p.add_argument("--theta", type=float, default=0.0)
        return p

    p = command("graph", _cmd_graph, help="emit a canonical graph presentation")
    p.add_argument("--kind", required=True, choices=["line", "square_2d", "bcc_3d"])

    p = command("validate", _cmd_validate, descriptor=True,
                help="check unitarity and covariance residuals")
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = command("dispersion", _cmd_dispersion, help="sweep eigenphases over a zone grid")
    p.add_argument("--variant", required=True, choices=list(catalog.WEYL_NAMES))
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--dirac", action="store_true")
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--emit", default="csv", choices=["csv", "json"])

    p = command("evolve", _cmd_evolve, descriptor=True,
                help="evolve a wave packet and record observables")
    p.add_argument("--sizes", required=True)
    p.add_argument("--packet", required=True,
                   help="k0=..;sigma=..;x0=..;branch=plus|minus")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--record-every", type=int, default=0)
    p.add_argument("--snapshot", default=None)
    p.add_argument("--observables", default=None)

    p = command("maxwell", _cmd_maxwell, help="transverse-field dynamics residuals")
    p.add_argument("--k", required=True)
    p.add_argument("--time", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--variant", default="bcc-a-plus",
                   choices=[n for n in catalog.WEYL_NAMES if n.startswith("bcc")])
    p.add_argument("--seed", type=int, default=0)

    p = command("fock", _cmd_fock, help="pair-operator commutator deviations")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--fill", type=int, default=1)

    p = command("tile", _cmd_tile, descriptor=True,
                help="regroup an automaton on a sublattice")
    p.add_argument("--basis", required=True, help="e.g. '2' or '2,0;0,2'")
    p.add_argument("--sizes", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = command("dirac-search", _cmd_dirac_search,
                help="randomized probe for couplings outside the mass family")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-samples", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--variant", default="bcc-a-plus",
                   choices=list(catalog.WEYL_NAMES))

    # Every subcommand ends with the JSON emit mode (dispersion declares its
    # own csv/json --emit) and --output.
    for name, p in sub.choices.items():
        if name != "dispersion":
            p.add_argument("--emit", default="json", choices=["json"])
        p.add_argument("--output", default=None)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QcaError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
