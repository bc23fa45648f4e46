"""Command-line interface: exit codes, formats, determinism."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qca
from qca import catalog, cli, dirac, evolution, fock, maxwell, serialize, weyl
from qca.cayley import build_presentation, make_tiling
from qca.cli import main
from qca.errors import DescriptorError

NAN = float("nan")

# One small run of every subcommand.
SMALL_RUNS = {
    "graph": ["graph", "--kind", "line"],
    "validate": ["validate", "--builtin", "weyl-1d"],
    "dispersion": ["dispersion", "--variant", "weyl-1d", "--grid", "4"],
    "evolve": ["evolve", "--builtin", "weyl-1d", "--sizes", "32",
               "--packet", "k0=0.5;sigma=0.1", "--steps", "2"],
    "maxwell": ["maxwell", "--k", "0.2,0.1,-0.3", "--time", "0.01"],
    "fock": ["fock", "--modes", "2"],
    "tile": ["tile", "--builtin", "weyl-1d", "--basis", "2"],
    "dirac-search": ["dirac-search", "--samples", "1", "--k-samples", "5"],
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_emits_presentation(capsys):
    code, out, _ = _run(capsys, ["graph", "--kind", "bcc_3d"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["dimension"] == 3
    assert len(doc["generators"]) == 4
    assert doc["relators"] == [[1, 1, 1, 1]]
    assert doc["zone"]["kind"] == "rhombic_dodecahedron_3d"
    assert len(doc["zone"]["bounds"]) == 12


def test_validate_builtin_passes(capsys):
    code, out, _ = _run(capsys, ["validate", "--builtin", "weyl-1d"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-12


def test_validate_broken_descriptor_fails(capsys, tmp_path):
    descriptor = catalog.build_descriptor("weyl-1d")
    doc = serialize.descriptor_to_dict(descriptor)
    doc["matrices"]["h"] = [
        [[1.1 * re, 1.1 * im] for re, im in row] for row in doc["matrices"]["h"]
    ]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, ["validate", "--descriptor", str(path)])
    assert code == 1
    assert json.loads(out)["passed"] is False


TILED = "weyl-2d/tiled-x4"


@pytest.mark.parametrize("name", list(catalog.builtin_names()) + [TILED])
def test_descriptor_json_round_trip(capsys, tmp_path, name):
    if name == TILED:
        base = catalog.build_descriptor("weyl-2d")
        descriptor = evolution.tile_descriptor(
            base, make_tiling(base.presentation, ((2, 0), (0, 2)))
        )
    else:
        descriptor = catalog.build_descriptor(name)
    text = json.dumps(serialize.descriptor_to_dict(descriptor))
    back = serialize.descriptor_from_dict(json.loads(text))
    assert list(back.rule.entries) == list(descriptor.rule.entries)
    for label, block in descriptor.rule.entries.items():
        assert back.rule.entries[label].tobytes() == block.tobytes(), label
    if descriptor.isotropy is None:
        assert back.isotropy is None
    else:
        pairs = zip(back.isotropy.elements, descriptor.isotropy.elements, strict=True)
        for (perm, unitary), (expected_perm, expected) in pairs:
            assert perm == expected_perm
            assert unitary.tobytes() == np.asarray(expected, dtype=complex).tobytes()

    path = tmp_path / "descriptor.json"
    path.write_text(text)
    code, out, _ = _run(capsys, ["validate", "--descriptor", str(path)])
    assert code == 0
    if name == TILED:
        assert out == serialize.report_document(catalog.validate_descriptor(descriptor))
    else:
        assert (code, out) == _run(capsys, ["validate", "--builtin", name])[:2]


def test_dispersion_csv_weyl1d(capsys):
    code, out, _ = _run(
        capsys, ["dispersion", "--variant", "weyl-1d", "--grid", "8", "--emit", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k1,omega_plus,omega_minus,v1"
    assert len(lines) == 9
    for line in lines[1:]:
        k, omega_plus, omega_minus, _ = (float(v) for v in line.split(","))
        assert omega_plus == pytest.approx(abs(k), abs=1e-12)
        assert omega_minus == pytest.approx(-abs(k), abs=1e-12)


def test_dispersion_deterministic_output(capsys):
    args = ["dispersion", "--variant", "bcc-a-plus", "--grid", "4", "--emit", "csv"]
    _, first, _ = _run(capsys, args)
    _, second, _ = _run(capsys, args)
    assert first == second


def _dispersion_per_row(variant_name, dirac_mass, grid):
    """The dispersion CSV and JSON as the per-row formatter printed them."""
    variant = weyl.variant_by_name(variant_name)
    d = variant.dimension
    axis = np.arange(grid) * (2.0 * np.pi / grid) - np.pi
    theta = np.stack(np.meshgrid(*(axis,) * d, indexing="ij"), axis=-1).reshape(-1, d)
    k = build_presentation(variant.presentation_kind).k_of_theta(theta)
    if dirac_mass is None:
        sample = weyl.dispersion(variant, k)
    else:
        sample = dirac.dirac_dispersion(dirac.DiracDescriptor(weyl=variant, mass=dirac_mass), k)
    rows = np.hstack([k, sample.omega, sample.group_velocity]).tolist()
    header = ([f"k{j + 1}" for j in range(d)] + ["omega_plus", "omega_minus"]
              + [f"v{j + 1}" for j in range(d)])
    template = ",".join(["%.17g"] * len(header))
    csv = "\n".join([",".join(header)] + [template % tuple(row) for row in rows]) + "\n"
    report = serialize.report_document({"variant": variant_name, "dirac": dirac_mass is not None,
                                        "grid": grid, "rows": rows})
    return csv, report


def _dispersion_argv(variant, mass, grid):
    argv = ["dispersion", "--variant", variant, "--grid", str(grid)]
    return argv if mass is None else argv + ["--dirac", "--mass", str(mass)]


# The table is filled per block of 4096 wave-vectors and written per piece of
# 1024 rows: 1,331 rows cross a piece, 4,500, 4,900 and 4,913 a block as well.
@pytest.mark.parametrize("variant, mass, grid", [
    ("bcc-a-plus", None, 6), ("bcc-a-plus", 0.3, 6), ("weyl-1d", None, 5),
    ("weyl-1d", None, 4500), ("weyl-2d", None, 70), ("bcc-a-plus", None, 11),
    ("bcc-a-plus", None, 17), ("bcc-a-plus", 0.3, 17)])
def test_dispersion_bytes_match_per_row_format(capsys, variant, mass, grid):
    argv = _dispersion_argv(variant, mass, grid)
    csv, report = _dispersion_per_row(variant, mass, grid)
    assert _run(capsys, argv + ["--emit", "csv"])[:2] == (0, csv)
    assert _run(capsys, argv + ["--emit", "json"])[:2] == (0, report)
    if grid <= 6:
        assert ("-0," in csv) == (variant == "bcc-a-plus")  # a signed zero, printed as such


@pytest.mark.parametrize("variant, mass, grid", [
    ("weyl-1d", None, 40), ("weyl-2d", None, 9), ("bcc-a-plus", None, 5), ("bcc-a-plus", 0.3, 5)])
def test_dispersion_bytes_with_ragged_blocks_and_pieces(capsys, monkeypatch, variant, mass, grid):
    monkeypatch.setattr(cli, "_K_BLOCK", 7)
    monkeypatch.setattr(serialize, "_PIECE_ROWS", 5)
    csv, report = _dispersion_per_row(variant, mass, grid)
    argv = _dispersion_argv(variant, mass, grid)
    assert _run(capsys, argv + ["--emit", "csv"])[:2] == (0, csv)
    assert _run(capsys, argv + ["--emit", "json"])[:2] == (0, report)


def test_dispersion_stdout_matches_output_file(capsys, tmp_path):
    argv = _dispersion_argv("bcc-a-plus", 0.3, 17)
    path = tmp_path / "table.csv"
    assert _run(capsys, argv + ["--output", str(path)])[:2] == (0, "")
    code, out, _ = _run(capsys, argv + ["--output", "-"])
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_non_finite_dispersion_is_not_a_usage_error():
    # A fresh interpreter, so that the exit code is the process's own.
    src = str(Path(qca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for emit, document in (("json", "report"), ("csv", "table")):
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from qca import cli, weyl\n"
            "real = weyl.dispersion\n"
            "weyl.dispersion = lambda variant, k: dataclasses.replace(\n"
            "    real(variant, k), omega=np.full((len(k), 2), np.nan))\n"
            "sys.exit(cli.main(['dispersion', '--variant', 'weyl-1d', '--grid', '4',"
            f" '--emit', '{emit}']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode not in (0, 2)
        assert f"FloatingPointError: non-finite value in a {document}" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_dispersion_rejects_empty_grid(capsys, grid):
    code, out, err = _run(capsys, ["dispersion", "--variant", "weyl-1d", "--grid", grid])
    assert code == 2
    assert out == ""
    assert "--grid" in err


def test_dispersion_dirac_mode(capsys):
    code, out, _ = _run(
        capsys,
        ["dispersion", "--variant", "bcc-a-plus", "--dirac", "--mass", "0.1",
         "--grid", "3", "--emit", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 28  # header + 3^3 rows
    n = np.sqrt(1 - 0.01)
    row = [float(v) for v in lines[1].split(",")]
    assert row[3] >= np.arccos(n) - 1e-12  # omega never below the mass gap


def test_evolve_writes_snapshot_and_observables(capsys, tmp_path):
    snap = tmp_path / "out.qcas"
    obs = tmp_path / "obs.csv"
    code, out, _ = _run(
        capsys,
        [
            "evolve", "--builtin", "weyl-1d", "--sizes", "256",
            "--packet", "k0=0.8;sigma=0.05;x0=64;branch=plus",
            "--steps", "40", "--snapshot", str(snap),
            "--observables", str(obs),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["velocity"][0] - 1.0) < 0.02
    assert abs(doc["norm"] - 1.0) < 1e-9
    descriptor = catalog.build_descriptor("weyl-1d")
    state = serialize.load_snapshot(snap, descriptor.presentation)
    assert state.time == 40
    header = obs.read_text().splitlines()[0]
    assert header == "step,norm,x1"


def test_evolve_at_the_seam_keeps_its_output(capsys, tmp_path):
    # sigma_k = 0.03 on 32 sites: the packet is as wide as the torus, so the
    # velocity is undefined but the run and its records are not.
    snap = tmp_path / "out.qcas"
    obs = tmp_path / "obs.csv"
    code, out, _ = _run(
        capsys,
        [
            "evolve", "--builtin", "weyl-1d", "--sizes", "32",
            "--packet", "k0=0.7;sigma=0.03;x0=16", "--steps", "4",
            "--snapshot", str(snap), "--observables", str(obs),
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["velocity"] is None
    assert "seam" in doc["velocity_error"]
    assert abs(doc["norm"] - 1.0) < 1e-12
    descriptor = catalog.build_descriptor("weyl-1d")
    assert serialize.load_snapshot(snap, descriptor.presentation).time == 4
    assert [line.split(",")[0] for line in obs.read_text().splitlines()] == [
        "step", "1", "2", "3", "4"
    ]


def test_evolve_observables_do_not_jump_by_a_lattice_vector(capsys, tmp_path):
    # x0 = 0 puts the circular means at the seam, where [0, n) splits them.
    obs = tmp_path / "obs.csv"
    code, _, _ = _run(
        capsys,
        [
            "evolve", "--builtin", "bcc-a-plus", "--sizes", "32,32,32",
            "--steps", "24", "--record-every", "1",
            "--packet", "k0=0.2,0,0;sigma=0.15", "--observables", str(obs),
        ],
    )
    assert code == 0
    rows = np.loadtxt(obs, delimiter=",", skiprows=1)
    assert rows.shape == (24, 5)
    jumps = np.linalg.norm(np.diff(rows[:, 2:], axis=0), axis=1)
    assert np.all(jumps < 2.0), jumps.max()


@pytest.mark.parametrize("stride", [[], ["--record-every", "1"], ["--record-every", "10"]],
                         ids=["default", "every-step", "every-10"])
def test_evolve_velocity_is_the_slope_of_the_unwrapped_trajectory(capsys, tmp_path, stride):
    # At unit speed the packet crosses 50 of 64 sites: the minimum image of
    # its end-to-end displacement is -14 sites, a velocity of -0.28.
    obs = tmp_path / "obs.csv"
    code, out, _ = _run(
        capsys,
        ["evolve", "--builtin", "weyl-1d", "--sizes", "64", "--steps", "50",
         "--packet", "k0=0.5;sigma=0.1;x0=0", "--observables", str(obs)] + stride,
    )
    assert code == 0
    velocity = json.loads(out)["velocity"]
    assert abs(velocity[0] - 1.0) < 0.01
    end = np.loadtxt(obs, delimiter=",", skiprows=1)[-1]
    assert velocity[0] == pytest.approx(end[2] / 50, abs=1e-12)


def test_evolve_rejects_non_positive_steps(capsys):
    code, _, err = _run(
        capsys,
        ["evolve", "--builtin", "weyl-1d", "--sizes", "64",
         "--packet", "k0=0.5;sigma=0.1", "--steps", "0"],
    )
    assert code == 2
    assert "--steps" in err


@pytest.mark.parametrize("packet, message", [
    ("k0=0.2,0,0;sigma=0.1;x0=1,2", "x0"),
    ("k0=0.2,0,0;sigma=0.1;x0=1,2,3,4", "x0"),
    # A mistyped key is not dropped, and a bad number names its field.
    ("k0=0.2,0,0;sigma=0.1;brnach=minus", "brnach"),
    ("k0=0.2,0,0;sigma=0.1;x0=1.5,2,3", "x0"),
    ("k0=0.2,0,0;sigma=abc", "sigma"),
    ("k0=0.2,0;sigma=0.1", "k0"),
    ("k0=0.2,0,0;sigma=nan", "sigma_k"),
    ("k0=0.2,0,0;sigma=inf", "sigma_k"),
    ("k0=0.2,0,0;sigma=-0.1", "sigma_k"),
    ("k0=nan,0,0;sigma=0.1", "center_k"),
    ("k0=0.2,inf,0;sigma=0.1", "center_k"),
    # Halfway between modes on every axis, far narrower than their spacing.
    ("k0=0.68,0.68,-0.68;sigma=0.001", "narrower than the mode grid"),
])
def test_evolve_rejects_bad_packet_before_any_work(capsys, tmp_path, packet, message):
    snap = tmp_path / "out.qcas"
    obs = tmp_path / "obs.csv"
    code, out, err = _run(
        capsys,
        ["evolve", "--builtin", "bcc-a-plus", "--sizes", "8,8,8",
         "--packet", packet, "--steps", "2",
         "--snapshot", str(snap), "--observables", str(obs)],
    )
    assert code == 2
    assert out == ""
    assert message in err
    assert not snap.exists() and not obs.exists()


EVOLVE_16 = ["evolve", "--builtin", "bcc-a-plus", "--sizes", "16,16,16", "--steps", "3",
             "--packet", "k0=0.3,0,0;sigma=0.2;x0=8,8,8"]


@pytest.mark.parametrize("target", ["directory", "missing-parent", "pipe"])
def test_evolve_rejects_snapshot_target_before_stepping(capsys, tmp_path, monkeypatch, target):
    def advance(self, hat, steps):
        raise AssertionError("stepped before the snapshot target was checked")
    monkeypatch.setattr(evolution.SpectralPlan, "advance", advance)
    obs = tmp_path / "obs.csv"
    fds = os.pipe() if target == "pipe" else ()
    # A pipe opens for writing (its read end is held) but cannot seek.
    path = (f"/dev/fd/{fds[1]}" if fds else
            str(tmp_path if target == "directory" else tmp_path / "no" / "out.qcas"))
    try:
        code, out, err = _run(capsys, EVOLVE_16 + ["--snapshot", path, "--observables", str(obs)])
    finally:
        for fd in fds:
            os.close(fd)
    assert code == 2
    assert out == ""
    assert "--snapshot" in err
    assert not obs.exists()


@pytest.mark.parametrize("argv, flag", [
    (["dispersion", "--variant", "bcc-a-plus", "--grid", "4"], "--output"),
    (["graph", "--kind", "line"], "--output"),
    (EVOLVE_16, "--output"),
    (EVOLVE_16, "--observables"),
    (["dirac-search", "--samples", "1"], "--output"),
], ids=["dispersion", "graph", "evolve-output", "evolve-observables", "dirac-search"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_bad_output_target_names_its_flag(capsys, tmp_path, monkeypatch, argv, flag, target):
    # Each target is opened before the work: the dispersion sweep, the evolve
    # stepping, the probe's trials.
    if argv[0] == "dispersion":
        def sweep(variant, k):
            raise AssertionError("swept before the --output target was checked")
        monkeypatch.setattr(weyl, "dispersion", sweep)
    elif argv[0] == "dirac-search":
        def probe(**kwargs):
            raise AssertionError("probed before the --output target was checked")
        monkeypatch.setattr(dirac, "uniqueness_probe", probe)
    elif argv[0] == "evolve":
        def advance(self, hat, steps):
            raise AssertionError(f"stepped before the {flag} target was checked")
        monkeypatch.setattr(evolution.SpectralPlan, "advance", advance)
    path = str(tmp_path if target == "directory" else tmp_path / "no" / "out")
    code, out, err = _run(capsys, argv + [flag, path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} {path}: ")


def test_evolve_observables_write_error_names_its_flag(capsys, tmp_path, monkeypatch):
    # --output is opened after --observables, so it sees an error in the
    # observables' write first; the error must still name --observables.
    def csv_document(header, table):
        raise OSError(errno.ENOSPC, "No space left on device")
        yield
    monkeypatch.setattr(serialize, "csv_document", csv_document)
    obs = tmp_path / "obs.csv"
    code, out, err = _run(capsys, EVOLVE_16 + ["--observables", str(obs),
                                               "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert out == ""
    assert err == f"error: --observables {obs}: No space left on device\n"


def test_dispersion_rejects_bad_mass_before_opening_output(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, err = _run(capsys, _dispersion_argv("bcc-a-plus", 1.5, 4) + ["--output", str(path)])
    assert code == 2
    assert out == ""
    assert "mass" in err
    assert not path.exists()


def test_evolve_snapshot_cut_short_is_rejected_on_load(capsys, tmp_path, monkeypatch):
    # A 16^3 x 2 row is 8 KiB: 3-row slabs split the 16 rows into 6 slabs, and
    # the disk fills at the third write after the header's.
    monkeypatch.setattr(evolution, "_BLOCK_BYTES", 16 * 16 * 2 * 16 * 3)
    write, calls = os.write, []

    def full_disk(fd, data):
        calls.append(memoryview(data).nbytes)
        if len(calls) > 1 + 2:
            raise OSError(28, "No space left on device")
        return write(fd, data)
    monkeypatch.setattr(serialize.os, "write", full_disk)
    snap = tmp_path / "out.qcas"
    code, out, err = _run(capsys, EVOLVE_16 + ["--snapshot", str(snap)])
    assert code == 2
    assert out == ""
    assert "--snapshot" in err and "No space left" in err
    assert calls == [36, 3 * 8192, 3 * 8192, 3 * 8192]
    assert snap.stat().st_size == 36 + 2 * 3 * 8192
    with pytest.raises(ValueError, match="its header declares"):
        serialize.load_snapshot(snap, build_presentation("bcc_3d"))


def test_evolve_closes_snapshot_when_stepping_fails(tmp_path, monkeypatch):
    def advance(self, hat, steps):
        raise KeyboardInterrupt
    monkeypatch.setattr(evolution.SpectralPlan, "advance", advance)
    closed, close = [], serialize.SnapshotStream.close
    monkeypatch.setattr(serialize.SnapshotStream, "close",
                        lambda self: closed.append(True) or close(self))
    snap = tmp_path / "out.qcas"
    with pytest.raises(KeyboardInterrupt):
        main(EVOLVE_16 + ["--snapshot", str(snap)])
    assert closed == [True]
    with pytest.raises(ValueError, match="its header declares"):
        serialize.load_snapshot(snap, build_presentation("bcc_3d"))


def test_evolve_snapshot_never_holds_the_lattice(tmp_path):
    # The 64^3 x 4 lattice is a 16 MiB snapshot body; the stream holds the
    # axis-0 pass over the packet's lines (139 of 4,096 at sigma = 0.06, 0.5 MiB)
    # and one slab, about 3.5 MiB traced in all; the whole lattice, built at
    # once, traces about 20 MiB.
    argv = ["evolve", "--builtin", "dirac-3d", "--mass", "0.5", "--sizes", "64,64,64",
            "--steps", "100", "--record-every", "100",
            "--packet", "k0=0.3,0,0;sigma=0.06;x0=32,32,32",
            "--snapshot", str(tmp_path / "out.qcas"), "--output", os.devnull]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    body = 64 ** 3 * 4 * 16
    assert (tmp_path / "out.qcas").stat().st_size == 36 + body
    assert peak <= body / 2, peak / 2 ** 20


def test_evolve_snapshot_memory_is_bounded_by_the_packet_support(tmp_path):
    # The 48^3 x 4 body is 6.75 MiB; the sigma = 0.15 packet reaches 26 of the 48
    # axis-0 rows and 503 of the 2,304 lines along axis 0.  The axis-0 pass holds
    # those lines (1.5 MiB), then each slab of about 1 MiB of rows is finished and
    # written: the snapshot raises the traced peak of the same run without it by
    # about 1.6 MiB.  Holding the 26 rows whole (3.7 MiB) for a last axis-0 pass
    # raises it by 3.2 MiB.
    argv = ["evolve", "--builtin", "dirac-3d", "--mass", "0.5", "--sizes", "48,48,48",
            "--steps", "10", "--record-every", "10",
            "--packet", "k0=0.3,0,0;sigma=0.15;x0=24,24,24", "--output", os.devnull]
    peaks = []
    for extra in ([], [], ["--snapshot", str(tmp_path / "out.qcas")]):  # the first warms up
        tracemalloc.start()
        try:
            assert main(argv + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "out.qcas").stat().st_size == 36 + 48 ** 3 * 4 * 16
    assert peaks[2] - peaks[1] <= 2.25 * 2 ** 20, (peaks[2] - peaks[1]) / 2 ** 20


def test_evolve_and_dispersion_do_not_import_numpy_ma(tmp_path):
    # A fresh interpreter: np.unique without return_inverse imports numpy.ma on
    # its first call (8 ms), which this test session has loaded already.
    runs = [EVOLVE_16 + ["--snapshot", str(tmp_path / "out.qcas"), "--output", os.devnull],
            ["dispersion", "--variant", "bcc-a-plus", "--grid", "4", "--output", os.devnull],
            ["dispersion", "--variant", "bcc-a-plus", "--grid", "4", "--emit", "json",
             "--output", os.devnull]]
    script = (
        "import sys\n"
        "from qca.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(qca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "out.qcas").stat().st_size == 36 + 16 ** 3 * 2 * 16


def test_report_escapes_control_characters():
    text = "a\nb\t\x01"
    doc = serialize.report_document({"name": text, "plain": 'q"uo\\te/é'})
    assert json.loads(doc)["name"] == text
    for value in (text, 'q"uo\\te/é', "\x00\x1f\b\f\r"):
        assert serialize.dumps_stable(value) == json.dumps(value, ensure_ascii=False)


def test_maxwell_report(capsys):
    code, out, _ = _run(
        capsys, ["maxwell", "--k", "0.2,0.1,-0.3", "--time", "5", "--dt", "1e-3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rotation_vs_spinor"] < 1e-11
    assert doc["transversality_E"] < 1e-13
    assert doc["identity_residual"] < 1e-12


def test_fock_report(capsys):
    code, out, _ = _run(capsys, ["fock", "--modes", "8", "--fill", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["anticommutator_residual"] == 0
    diag = [row for row in doc["table"] if row["i"] == row["j"]]
    assert all(row["deviation"] <= 0.5 for row in diag)
    assert all(row["epsilon"] == 0.125 for row in doc["table"])


def test_tile_report(capsys):
    code, out, _ = _run(
        capsys, ["tile", "--builtin", "weyl-1d", "--basis", "2", "--sizes", "16"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 2
    assert doc["coset_reps"] == [[0], [1]]
    assert doc["coarse_internal_dim"] == 4
    assert doc["commuting_square_residual"] < 1e-12


@pytest.mark.parametrize("builtin, basis, sizes", [
    ("weyl-1d", "2", "8"),
    ("dirac-2d", "2,1;0,2", None),  # --sizes takes diagonal bases only
    ("bcc-a-plus", "2,0,0;0,2,0;0,0,2", "8,8,8"),
])
def test_tile_builds_the_coarse_automaton_only_for_sizes(capsys, monkeypatch, builtin, basis,
                                                         sizes):
    # Without --sizes the report needs only the coarse size, s * index: the same
    # bytes as when it is read off the coarse automaton, which is not built.
    descriptor = catalog.build_descriptor(builtin)
    tiling = make_tiling(descriptor.presentation, cli._parse_int_matrix(basis))
    want = serialize.report_document({
        "index": tiling.index,
        "coset_reps": [list(rep) for rep in tiling.coset_reps],
        "coarse_internal_dim": evolution.tile_descriptor(descriptor, tiling).internal_dim,
    })
    real, built = evolution.tile_descriptor, []
    monkeypatch.setattr(evolution, "tile_descriptor",
                        lambda *args: built.append(args) or real(*args))
    code, out, _ = _run(capsys, ["tile", "--builtin", builtin, "--basis", basis])
    assert (code, out, built) == (0, want, [])
    if sizes is None:
        return
    code, out, _ = _run(capsys, ["tile", "--builtin", builtin, "--basis", basis, "--sizes", sizes])
    assert code == 0 and len(built) == 1
    assert json.loads(out)["coarse_internal_dim"] == json.loads(want)["coarse_internal_dim"]


def test_dirac_search_report(capsys):
    code, out, _ = _run(capsys, ["dirac-search", "--samples", "4", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 4
    assert doc["off_family_hits"] == 0


@pytest.mark.parametrize("flags, message", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-2"], "--samples"),
    (["--samples", "3", "--k-samples", "0"], "--k-samples"),
    (["--k-samples=-1"], "--k-samples"),
    (["--tolerance", "0"], "--tolerance"),
    (["--tolerance=-1"], "--tolerance"),
    (["--tolerance", "nan"], "--tolerance"),
    (["--tolerance", "inf"], "--tolerance"),
])
def test_dirac_search_rejects_bad_arguments_before_any_work(capsys, monkeypatch, flags,
                                                            message):
    def probe(**kwargs):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(dirac, "uniqueness_probe", probe)
    code, out, err = _run(capsys, ["dirac-search"] + flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_dirac_search_rejects_k_samples_the_family_fit_cannot_use(capsys, tmp_path):
    # Two verification wave-vectors converge every trial, but the family fit
    # needs three away from the band edges; no trial may read as off-family.
    argv = ["dirac-search", "--samples", "8", "--seed", "7", "--k-samples", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "--k-samples" in err
    # The usage error comes before --output is opened: an existing file keeps its bytes.
    keep = tmp_path / "keep.json"
    keep.write_text("keep-this\n")
    code, out, err = _run(capsys, argv + ["--output", str(keep)])
    assert code == 2
    assert "--k-samples" in err
    assert keep.read_text() == "keep-this\n"


def test_probe_imports_neither_scipy_nor_numpy_ma(tmp_path):
    # A fresh interpreter: np.median's first call imports numpy.ma, which the
    # probe's classifier avoids, and this test session has loaded both already.
    script = (
        "import sys\n"
        "from qca.cli import main\n"
        f"assert main(['dirac-search', '--samples', '8', '--seed', '7', '--output', "
        f"{str(tmp_path / 'probe.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))\n"
    )
    src = str(Path(qca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
    assert json.loads((tmp_path / "probe.json").read_text())["dressed_family"] == 2


def _files_under_blas_threads(tmp_path, argvs):
    """The files that `argvs` write under "{out}", as {name: bytes}: once from a fresh
    interpreter with one OpenBLAS thread and once from one with two."""
    src = str(Path(qca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        script = ("from qca.cli import main\n"
                  f"for argv in {[[a.format(out=out) for a in argv] for argv in argvs]!r}:\n"
                  "    assert main(argv) == 0, argv\n")
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return runs


def test_probe_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one, two = _files_under_blas_threads(tmp_path, [
        ["dirac-search", "--samples", "8", "--seed", "7", "--output", "{out}/probe.json"]])
    assert one == two
    assert json.loads(one["probe.json"])["dressed_family"] == 2


# The wide packet of the CI evolve step: 48% of the 48^3 modes, one record per step.
EVOLVE_WIDE = ["evolve", "--builtin", "bcc-a-plus", "--sizes", "48,48,48", "--steps", "24",
               "--record-every", "1", "--packet", "k0=0.2,0,0;sigma=0.29;x0=24,24,24"]


def test_evolve_dispersion_and_tile_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The packet's norm and the moments sum over 50,843 modes, long enough for
    # a BLAS dot to split across threads; the tile residual normalizes a random state.
    one, two = _files_under_blas_threads(tmp_path, [
        EVOLVE_WIDE + ["--snapshot", "{out}/wide.qcas", "--observables", "{out}/wide.csv",
                       "--output", "{out}/wide.json"],
        ["dispersion", "--variant", "bcc-a-plus", "--grid", "12", "--output", "{out}/disp.csv"],
        ["tile", "--builtin", "bcc-a-plus", "--basis", "2,0,0;0,2,0;0,0,2", "--sizes", "4,4,4",
         "--output", "{out}/tile.json"],
    ])
    assert sorted(one) == ["disp.csv", "tile.json", "wide.csv", "wide.json", "wide.qcas"]
    for name in one:
        assert one[name] == two[name], name


def test_evolve_writes_the_records_of_evolution_run(capsys, tmp_path):
    # The observables are the run's records after step 0 in Cartesian
    # coordinates, and the report's velocity is the run's, bit for bit.
    obs = tmp_path / "obs.csv"
    argv = ["evolve", "--builtin", "dirac-3d", "--mass", "0.5", "--sizes", "24,24,24",
            "--steps", "12", "--record-every", "5",
            "--packet", "k0=0.4,0.1,0;sigma=0.25;x0=3,5,7", "--observables", str(obs)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    descriptor = catalog.build_descriptor("dirac-3d", mass=0.5)
    lattice = evolution.LatticeSpec(descriptor.presentation, (24, 24, 24))
    spec = evolution.WavePacketSpec((0.4, 0.1, 0.0), 0.25, (3, 5, 7))
    run = evolution.run(*evolution.packet_modes(spec, descriptor, lattice), 12, 5, (3, 5, 7))
    basis = descriptor.presentation.basis_matrix
    rows = [[float(v) for v in line.split(",")] for line in obs.read_text().splitlines()[1:]]
    assert rows == [[r.step, r.moments.norm, *(basis @ r.position)] for r in run.records[1:]]
    assert [row[0] for row in rows] == [5, 10, 12]
    doc = json.loads(out)
    assert doc["norm"] == run.records[-1].moments.norm
    assert doc["velocity"] == list(basis @ run.velocity)


@pytest.mark.parametrize("dt", ["0", "-1e-3", "nan", "inf"])
def test_maxwell_rejects_bad_dt(capsys, dt):
    code, out, err = _run(capsys, ["maxwell", "--k", "0.1,0,0", f"--dt={dt}"])
    assert code == 2
    assert out == ""
    assert "--dt" in err


EVOLVE_3D = ["evolve", "--builtin", "bcc-a-plus", "--steps", "1", "--packet", "k0=0.2,0,0;sigma=0.2"]
TILE_3D = ["tile", "--builtin", "bcc-a-plus"]


@pytest.mark.parametrize("argv, flag", [
    (["maxwell", "--k", "0.6,0.2"], "--k"),
    (["maxwell", "--k", "0.6,x,0.2"], "--k"),
    (EVOLVE_3D + ["--sizes", "8,a,8"], "--sizes"),
    (EVOLVE_3D + ["--sizes", "8,8"], "--sizes"),
    (EVOLVE_3D + ["--sizes", "8,1,8"], "--sizes"),
    (TILE_3D + ["--basis", "2,0,0;0,x,0;0,0,2"], "--basis"),
    (TILE_3D + ["--basis", "2,0;0,2"], "--basis"),
    (TILE_3D + ["--basis", "2,0,0;0,2,0;2,2,0"], "--basis"),
    (TILE_3D + ["--basis", "2,0,0;0,2,0;0,0,2", "--sizes", "4,a,4"], "--sizes"),
    (TILE_3D + ["--basis", "2,0,0;0,2,0;0,0,2", "--sizes", "4,4"], "--sizes"),
    (["fock", "--modes", "0"], "--modes"),
    (["fock", "--modes", "200"], "--modes"),
    (["dispersion", "--variant", "weyl-2d", "--theta", "nan"], "--theta"),
    (["dispersion", "--variant", "bcc-a-plus", "--theta", "0.3"], "--theta"),
    (["dispersion", "--variant", "weyl-2d", "--dirac", "--mass", "1.5"], "--mass"),
])
def test_flag_parse_errors_name_their_flag(capsys, argv, flag):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: "), err


@pytest.mark.parametrize("argv, flag", [
    (["maxwell", "--k", "0.1,0,0", "--time", "nan"], "--time"),
    (["maxwell", "--k", "0.1,0,0", "--time", "inf"], "--time"),
    (["maxwell", "--k", "0.1,0,0", "--time=-inf"], "--time"),
    (["maxwell", "--k", "nan,0.2,-0.4"], "--k"),
    (["maxwell", "--k", "0.1,inf,0"], "--k"),
    (["validate", "--builtin", "bcc-a-plus", "--tolerance", "nan"], "--tolerance"),
    (["validate", "--builtin", "bcc-a-plus", "--tolerance", "inf"], "--tolerance"),
])
def test_non_finite_inputs_are_rejected_before_any_work(capsys, monkeypatch, argv, flag):
    def work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(maxwell, "mode_maxwell_residual", work)
    monkeypatch.setattr(catalog, "build_descriptor", work)
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be finite\n"


@pytest.mark.parametrize("argv", [
    ["dispersion", "--variant", "weyl-2d", "--theta", "nan", "--grid", "2"],
    ["dispersion", "--variant", "weyl-2d-b", "--theta=-inf", "--grid", "2"],
    ["validate", "--builtin", "weyl-2d", "--theta", "nan"],
    ["evolve", "--builtin", "dirac-2d", "--mass", "0.3", "--theta", "inf", "--sizes", "8,8",
     "--steps", "1", "--packet", "k0=0,0;sigma=0.2"],
])
def test_non_finite_theta_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "theta must be finite" in err


EVOLVE_8 = ["evolve", "--builtin", "bcc-a-plus", "--sizes", "8,8,8", "--steps", "1", "--packet"]


@pytest.mark.parametrize("argv, flag, message", [
    (["validate", "--builtin", "weyl-1d", "--mass", "0.2"], "--mass",
     "mass applies to dirac descriptors only"),
    (["validate", "--builtin", "dirac-3d", "--mass", "2"], "--mass", "mass must lie in [0, 1]"),
    (["validate", "--builtin", "weyl-1d", "--theta", "0.3"], "--theta",
     "theta applies to the two-dimensional variants only"),
    (["evolve", "--builtin", "dirac-3d", "--mass", "2", "--sizes", "8,8,8", "--steps", "1",
      "--packet", "k0=0,0,0;sigma=0.2"], "--mass", "mass must lie in [0, 1]"),
    (["tile", "--builtin", "weyl-1d", "--theta", "0.3", "--basis", "2"], "--theta",
     "theta applies to the two-dimensional variants only"),
    (EVOLVE_8 + ["k0=nan,0,0;sigma=0.2"], "--packet k0", "center_k must be finite"),
    (EVOLVE_8 + ["k0=0.2,0,0;sigma=inf"], "--packet sigma", "sigma_k must be positive and finite"),
    (EVOLVE_8 + ["k0=0.2,0,0;sigma=0.2;branch=up"], "--packet branch",
     "branch must be 'plus' or 'minus'"),
    (["tile", "--builtin", "weyl-1d", "--basis", "2", "--sizes", "15"], "--sizes",
     "lattice size 15 not divisible by sublattice step 2"),
    (["tile", "--builtin", "weyl-2d", "--basis", "1,1;1,-1", "--sizes", "8,8"], "--basis",
     "state regrouping supports diagonal sublattice bases only"),
])
def test_descriptor_packet_and_regrouping_errors_name_their_flag(capsys, argv, flag, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag}: {message}\n"


@pytest.mark.parametrize("fill, message", [
    ("-1", "--fill must be non-negative"),
    ("3", "--fill cannot exceed --modes"),
])
def test_fock_rejects_bad_fill(capsys, monkeypatch, fill, message):
    monkeypatch.setattr(fock, "fock_commutator_deviation", lambda *a: 1 / 0)
    code, out, err = _run(capsys, ["fock", "--modes", "2", f"--fill={fill}"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unknown_flag_usage_error(capsys):
    code, _, _ = _run(capsys, ["dispersion", "--variant", "weyl-1d", "--frobnicate"])
    assert code == 2


def test_unknown_subcommand_usage_error(capsys):
    assert _run(capsys, ["transmogrify"])[0] == 2


def test_missing_descriptor_is_usage_error(capsys):
    code, _, err = _run(capsys, ["validate"])
    assert code == 2
    assert "builtin" in err or "descriptor" in err


def test_output_file_writing(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = _run(capsys, ["graph", "--kind", "line", "--output", str(path)])
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["dimension"] == 1
    # Every other subcommand writes its document to --output and nothing to stdout.
    others = {name: argv for name, argv in SMALL_RUNS.items() if name != "graph"}
    for name, argv in others.items():
        path = tmp_path / name
        code, out, _ = _run(capsys, argv + ["--output", str(path)])
        assert code == 0, name
        assert out == "", name
        text = path.read_text()
        if name == "dispersion":
            assert text.startswith("k1,omega_plus,omega_minus,v1\n")
        else:
            assert "schema_version" in json.loads(text), name


def test_commands_load_no_scipy(tmp_path):
    # A fresh interpreter: this test session has imported scipy already.
    runs = {name: argv + ["--output", str(tmp_path / name)] for name, argv in SMALL_RUNS.items()}
    script = (
        "import sys\n"
        "from qca.cli import main\n"
        f"for name, argv in {runs!r}.items():\n"
        "    assert main(argv) == 0, name\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(qca.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SMALL_RUNS)


def _descriptor_without_matrices():
    doc = serialize.descriptor_to_dict(catalog.build_descriptor("weyl-1d"))
    del doc["matrices"]
    return doc


def _descriptor_with_bad_rows():
    doc = serialize.descriptor_to_dict(catalog.build_descriptor("weyl-1d"))
    doc["matrices"]["h"] = [1.0]
    return doc


def _descriptor_with_nan_entry():
    doc = serialize.descriptor_to_dict(catalog.build_descriptor("weyl-1d"))
    doc["matrices"]["h"][0][0] = [NAN, 0.0]
    return doc


def _weyl2d_isotropy_with(edit):
    def make_doc():
        doc = serialize.descriptor_to_dict(catalog.build_descriptor("weyl-2d"))
        edit(doc["isotropy"]["elements"][1])
        return doc
    return make_doc


def _weyl2d_unitaries_3x3():
    doc = serialize.descriptor_to_dict(catalog.build_descriptor("weyl-2d"))
    for element in doc["isotropy"]["elements"]:
        element["unitary"] = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    return doc


def _bcc_presentation_with(edit):
    def make_doc():
        doc = serialize.descriptor_to_dict(catalog.build_descriptor("bcc-a-plus"))
        edit(doc["presentation"])
        return doc
    return make_doc


@pytest.mark.parametrize("make_doc, key", [
    (lambda: {"presentation": {"dimension": 1}}, "generators"),
    (lambda: [1, 2], "presentation"),
    (_descriptor_without_matrices, "matrices"),
    (_descriptor_with_bad_rows, "h"),
    (_bcc_presentation_with(lambda p: p["generators"][0].update(displacement=[[1]])),
     "displacement"),
    (_bcc_presentation_with(lambda p: p["zone"]["bounds"][0].update(normal=["1", 0.0, 0.0])),
     "normal"),
    (_bcc_presentation_with(lambda p: p["relators"][0].__setitem__(0, [1])), "relators"),
    (_bcc_presentation_with(lambda p: p["zone"]["bounds"][0].update(normal=[NAN, 0.0, 0.0])),
     "normal"),
    (_bcc_presentation_with(lambda p: p["zone"]["bounds"][0].update(bound=float("inf"))),
     "bound"),
    (_descriptor_with_nan_entry, "h"),
    (_weyl2d_isotropy_with(lambda e: e.update(permutation={"h1": "h1"})), "isotropy"),
    (_weyl2d_isotropy_with(lambda e: e.update(unitary=[[[2.0, 0.0], [0.0, 0.0]],
                                                       [[0.0, 0.0], [2.0, 0.0]]])),
     "isotropy"),
    (_weyl2d_unitaries_3x3, "isotropy"),
], ids=["no-generators", "list", "no-matrices", "bad-rows", "nested-displacement",
        "string-normal", "nested-relator-entry", "nan-normal", "infinite-bound",
        "nan-matrix-entry", "isotropy-cut-permutation", "isotropy-nonunitary",
        "isotropy-wrong-size"])
def test_malformed_descriptor_is_usage_error(capsys, tmp_path, make_doc, key):
    with pytest.raises(DescriptorError, match=repr(key)):
        serialize.descriptor_from_dict(make_doc())
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(make_doc()))
    code, out, err = _run(capsys, ["validate", "--descriptor", str(path)])
    assert (code, out) == (2, "")
    assert repr(key) in err
