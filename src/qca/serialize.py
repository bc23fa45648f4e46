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


_PIECE_ROWS = 1024  # table rows per piece of a CSV or JSON document


def _table_pieces(table, row, sep, what):
    """The table's rows, each `row` % its cells as "%.17g" prints them, joined by
    `sep`, as an iterator over pieces of _PIECE_ROWS rows (each piece after the
    first starts with `sep`).  Each distinct bit pattern is formatted once (unlike
    a float unique, the int64 view keeps -0.0 apart).  The table is checked whole
    on the call: a non-finite cell raises FloatingPointError, not a usage error,
    before any piece is written."""
    table = np.ascontiguousarray(table, dtype=float)
    bits, inverse = np.unique(table.ravel().view(np.int64), return_inverse=True)
    if not np.isfinite(bits.view(float)).all():
        raise FloatingPointError(f"non-finite value in a {what}")
    text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
    cells = inverse.reshape(table.shape)
    return (((sep if i else "") + sep.join([row] * len(block))) % tuple(text[block.ravel()].tolist())
            for i, block in enumerate(np.split(cells, range(_PIECE_ROWS, len(cells), _PIECE_ROWS))))


def csv_document(header, table):
    """The header line, then one line per table row, as an iterator over pieces of
    _PIECE_ROWS rows, checked on the call as _table_pieces is."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return itertools.chain([",".join(header) + "\n"], _table_pieces(table, line, "", "table"))


# JSON string escapes: quote, backslash and every control character.
_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_ESCAPES.update({ord(ch): esc for ch, esc in (
    ('"', '\\"'), ("\\", "\\\\"), ("\b", "\\b"), ("\f", "\\f"),
    ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t"),
)})


def dumps_stable(obj):
    """Deterministic JSON with fixed float formatting and sorted keys."""
    return "".join(_json_pieces(obj))


def _json_pieces(obj):
    """dumps_stable(obj) as an iterable of pieces, 2-D float arrays in pieces of _PIECE_ROWS
    rows; each value is formatted, and each table deduplicated and checked, on the call."""
    if obj is None or isinstance(obj, bool):
        return ["null" if obj is None else "true" if obj else "false"]
    if isinstance(obj, str):
        return ['"' + obj.translate(_ESCAPES) + '"']
    if isinstance(obj, (int, np.integer)):
        return [str(int(obj))]
    if isinstance(obj, (float, np.floating)):
        return [_format_float(obj)]
    if isinstance(obj, (complex, np.complexfloating)):
        return [f"[{_format_float(obj.real)},{_format_float(obj.imag)}]"]
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        row = "[" + ",".join(["%s"] * obj.shape[1]) + "]"
        return itertools.chain(["["], _table_pieces(obj, row, ",", "report"), ["]"])
    if isinstance(obj, np.ndarray):
        return _json_pieces(obj.tolist())
    if isinstance(obj, dict):
        brackets, items = "{}", [(dumps_stable(str(key)) + ":", value) for key, value
                                 in sorted(obj.items(), key=lambda kv: str(kv[0]))]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [("", value) for value in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    parts = [[brackets[0]]]
    for i, (key, value) in enumerate(items):
        parts += [[("," if i else "") + key], _json_pieces(value)]
    return itertools.chain.from_iterable(parts + [[brackets[1]]])


def report_pieces(payload):
    """report_document(payload) as an iterator over pieces, as _json_pieces gives them."""
    return itertools.chain(_json_pieces({"schema_version": SCHEMA_VERSION, **payload}), ["\n"])


def report_document(payload):
    return "".join(report_pieces(payload))


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
    """The snapshot layout written slab by slab, so that the lattice is never
    held whole: the header on opening, then each slab of Modes.ifft_slabs in
    order, one write each.  The snapshot is a file that load_snapshot reads
    back, so a target that cannot seek (a pipe) is refused on opening.  Only
    the last slab brings the file to its declared length, so a stream cut
    short leaves one that load_snapshot rejects."""

    def __init__(self, path, sizes, internal_dim, time):
        self._fh = open(path, "wb", buffering=0)
        try:
            if not self._fh.seekable():
                raise OSError(errno.ESPIPE, os.strerror(errno.ESPIPE))
            self._write(_snapshot_header(sizes, internal_dim, time))
        except OSError:
            self.close()
            raise

    def _write(self, data):
        if os.write(self._fh.fileno(), data) != memoryview(data).nbytes:
            raise OSError(errno.EIO, "short write to the snapshot")

    def write(self, slab):
        """Append the next slab of axis-0 rows, shape (rows, *sizes[1:], s)."""
        self._write(np.ascontiguousarray(slab, dtype="<c16"))

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
