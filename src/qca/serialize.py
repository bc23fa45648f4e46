"""JSON document schemas and the binary state-snapshot format.

All emitted JSON renders floats at 17 significant digits with sorted keys,
so identical inputs produce byte-identical documents.  Snapshots use a
fixed little-endian layout: magic "QCAS", version, dimension, sizes,
internal dimension, time, then complex amplitudes with the internal index
fastest.
"""

import errno
import itertools
import math
import os
import struct

import numpy as np

from .automaton import AutomatonDescriptor, IsotropyGroup, TransitionRule
from .cayley import BrillouinZone, CayleyPresentation, Generator
from .errors import DescriptorError
from .evolution import FieldState, LatticeSpec

SCHEMA_VERSION = 1
SNAPSHOT_MAGIC = b"QCAS"
SNAPSHOT_VERSION = 1


def _format_float(x):
    if not math.isfinite(x):
        raise FloatingPointError("non-finite value in a report")
    return format(float(x), ".17g")


_PIECE_ROWS = 1024  # table rows per piece of a CSV document


def _distinct_text(table, what):
    """The "%.17g" text of each distinct bit pattern of the table (unlike a float
    unique, the int64 view keeps -0.0 apart) and each C-order cell's index into it.
    A non-finite value raises FloatingPointError, not a usage error."""
    flat = np.ascontiguousarray(table, dtype=float).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    values = bits.view(float)
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite value in a {what}")
    return np.array(["%.17g" % v for v in values.tolist()], dtype=object), inverse


def format_table(template, table):
    """template % the table's values in C order as "%.17g" prints them, formatting each
    distinct bit pattern once."""
    text, inverse = _distinct_text(table, "report")
    return template % tuple(text[inverse].tolist())


def csv_document(header, table):
    """The header line, then one line per table row, as an iterator over pieces of
    _PIECE_ROWS rows.  The table is deduplicated and checked whole on the call, so
    a non-finite cell raises before any piece is written."""
    text, inverse = _distinct_text(table, "table")
    cells = inverse.reshape(-1, len(header))
    line = ",".join(["%s"] * len(header)) + "\n"
    pieces = ((line * len(block)) % tuple(text[block.ravel()].tolist())
              for block in np.split(cells, range(_PIECE_ROWS, len(cells), _PIECE_ROWS)))
    return itertools.chain([",".join(header) + "\n"], pieces)


# JSON string escapes: quote, backslash and every control character.
_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_ESCAPES.update({ord(ch): esc for ch, esc in (
    ('"', '\\"'), ("\\", "\\\\"), ("\b", "\\b"), ("\f", "\\f"),
    ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t"),
)})


def dumps_stable(obj):
    """Deterministic JSON with fixed float formatting and sorted keys."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_format_float(obj.real)},{_format_float(obj.imag)}]"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind != "f":
            return dumps_stable(obj.tolist())
        row = "[" + ",".join(["%s"] * obj.shape[1]) + "]"
        return format_table("[" + ",".join([row] * obj.shape[0]) + "]", obj)
    if isinstance(obj, dict):
        items = ",".join(
            f'{dumps_stable(str(key))}:{dumps_stable(value)}'
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_stable(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_document(payload):
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    return dumps_stable(doc) + "\n"


def _matrix_to_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows, key):
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError):
        raise DescriptorError(f"descriptor matrix {key!r} is not rows of [re, im] pairs") from None
    # Python's json reads NaN and Infinity.
    if not np.all(np.isfinite(m)):
        raise DescriptorError(f"descriptor matrix {key!r} has a non-finite entry")
    return m


def presentation_to_dict(presentation):
    return {
        "dimension": presentation.dimension,
        "generators": [
            {"label": g.label, "displacement": list(g.displacement)}
            for g in presentation.generators_plus
        ],
        "relators": [list(r) for r in presentation.relators],
        "free_basis": list(presentation.free_basis),
        "zone": {
            "kind": presentation.bz.kind,
            "bounds": [
                {"normal": list(normal), "bound": c} for normal, c in presentation.bz.bounds
            ],
        },
        "kind": presentation.kind,
    }


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               (int, float): "a finite number"}


def _get(doc, key, kind):
    """doc[key]; a DescriptorError names the key if it is missing or ill-typed."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind) or (isinstance(value, float) and not math.isfinite(value)):
        raise DescriptorError(f"descriptor key {key!r} is missing or not {_JSON_TYPES[kind]}")
    return value


def _numbers(values, key, kind=float):
    if not (isinstance(values, list)
            and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)):
        raise DescriptorError(f"descriptor key {key!r} is not an array of finite numbers")
    return tuple(kind(v) for v in values)


def presentation_from_dict(doc):
    gens = tuple(
        Generator(
            label=_get(g, "label", str),
            displacement=_numbers(_get(g, "displacement", list), "displacement"),
            inverse_label=g.get("inverse_label", g["label"] + "^-1"),
        )
        for g in _get(doc, "generators", list)
    )
    zone = _get(doc, "zone", dict)
    zone = BrillouinZone(
        kind=_get(zone, "kind", str),
        bounds=tuple(
            (_numbers(_get(b, "normal", list), "normal"), float(_get(b, "bound", (int, float))))
            for b in _get(zone, "bounds", list)
        ),
    )
    pres = CayleyPresentation(
        dimension=_get(doc, "dimension", int),
        generators_plus=gens,
        relators=tuple(_numbers(r, "relators", int) for r in _get(doc, "relators", list)),
        free_basis=tuple(_get(doc, "free_basis", list)),
        bz=zone,
        kind=doc.get("kind", "custom"),
    )
    pres.check_invariants()
    return pres


def descriptor_to_dict(descriptor):
    doc = {
        "presentation": presentation_to_dict(descriptor.presentation),
        "internal_dim": descriptor.internal_dim,
        "matrices": {
            label: _matrix_to_json(block)
            for label, block in descriptor.rule.entries.items()
        },
        "name": descriptor.name,
    }
    if descriptor.isotropy is not None:
        doc["isotropy"] = {
            "elements": [
                {"permutation": dict(perm), "unitary": _matrix_to_json(u)}
                for perm, u in descriptor.isotropy.elements
            ]
        }
    return doc


def descriptor_from_dict(doc):
    """The descriptor a document holds; a missing or ill-typed key raises DescriptorError."""
    presentation = presentation_from_dict(_get(doc, "presentation", dict))
    matrices = _get(doc, "matrices", dict)
    rule = TransitionRule(
        entries={label: _matrix_from_json(rows, label) for label, rows in matrices.items()},
        internal_dim=_get(doc, "internal_dim", int),
    )
    isotropy = None
    if doc.get("isotropy"):
        isotropy = IsotropyGroup(
            elements=tuple(
                (dict(_get(e, "permutation", dict)), _matrix_from_json(e.get("unitary"), "unitary"))
                for e in _get(doc["isotropy"], "elements", list)
            )
        )
        try:
            isotropy.check_against(presentation, rule.internal_dim)
        except ValueError as exc:
            raise DescriptorError(f"descriptor key 'isotropy' is invalid: {exc}") from None
    return AutomatonDescriptor(
        presentation=presentation,
        rule=rule,
        isotropy=isotropy,
        name=doc.get("name", ""),
    )


def _snapshot_header(sizes, internal_dim, time):
    return SNAPSHOT_MAGIC + struct.pack(
        f"<II{len(sizes)}IIq", SNAPSHOT_VERSION, len(sizes), *sizes, internal_dim, time)


class SnapshotStream:
    """The snapshot layout written block by block, so that the lattice is never
    held whole: the header on opening (a pipe fails there: it cannot seek),
    then each block of Modes.ifft_blocks, row by row, at its offsets.  Only the
    last row brings the file to its declared length, so a stream cut short
    leaves one that load_snapshot rejects."""

    def __init__(self, path, sizes, internal_dim, time):
        header = _snapshot_header(sizes, internal_dim, time)
        self._start, self._site = len(header), 16 * internal_dim
        self._row = self._site * math.prod(sizes[1:])  # bytes per axis-0 row
        self._fh = open(path, "wb", buffering=0)
        try:
            self._pwrite(header, 0)
        except OSError:
            self.close()
            raise

    def _pwrite(self, data, offset):
        if os.pwrite(self._fh.fileno(), data, offset) != memoryview(data).nbytes:
            raise OSError(errno.EIO, "short write to the snapshot")

    def write(self, column, block):
        """Write the (sizes[0], columns, s) block whose first column is `column`."""
        block = np.ascontiguousarray(block, dtype="<c16")
        if block[0].nbytes == self._row:  # every column: one span of the file
            block = block.reshape(1, -1)
        for i, row in enumerate(block):
            self._pwrite(row, self._start + i * self._row + column * self._site)

    def close(self):
        self._fh.close()


def load_snapshot(path, presentation):
    """Read a snapshot back onto a lattice over the given presentation.

    The header's dimension must be the presentation's and the file must end
    exactly after the amplitudes the header declares; both are checked
    before the body is read.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("not a state snapshot (bad magic)")
    if len(raw) < 12:
        raise ValueError("truncated snapshot header")
    version, d = struct.unpack_from("<II", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if d != presentation.dimension:
        raise ValueError(
            f"snapshot has dimension {d}, the presentation {presentation.dimension}"
        )
    header = 24 + 4 * d
    if len(raw) < header:
        raise ValueError("truncated snapshot header")
    sizes = struct.unpack_from(f"<{d}I", raw, 12)
    s, time = struct.unpack_from("<Iq", raw, 12 + 4 * d)
    count = math.prod(sizes) * s
    if len(raw) != header + 16 * count:
        raise ValueError(
            f"snapshot length {len(raw)} bytes, its header declares {header + 16 * count}"
        )
    amps = np.frombuffer(raw, dtype="<c16", count=count, offset=header)
    amps = amps.reshape(tuple(sizes) + (s,)).astype(complex)
    lattice = LatticeSpec(presentation=presentation, sizes=tuple(int(v) for v in sizes))
    return FieldState(lattice=lattice, internal_dim=int(s), amplitudes=amps, time=int(time))


def load_descriptor(path):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return descriptor_from_dict(json.load(fh))
