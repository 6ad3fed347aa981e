"""JSON documents for systems and realization results.

Matrices are nested lists; complex scalars are two-element [re, im] arrays,
never strings.  Serialization is canonical (keys sorted, compact separators,
shortest round-trip float formatting), so byte content, and therefore the
sha256 digests derived from it, is stable across platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Mapping, NoReturn, Optional

import numpy as np

from .composition import CascadeChain
from .errors import (
    BadResidual,
    NonHermitianRtilde,
    NonSymmetricR,
    NonUnitaryScattering,
    ParseError,
)
from .model import (
    ComplexMatrix,
    PassiveForm,
    RealMatrix,
    SlhSystem,
    _as_real,
    _mode_measures,
    _readonly,
    _stages,
    from_passive_form,
    stack_max,
)

SCHEMA_VERSION = "1"


def canonical_json(obj) -> str:
    """Serialize to the canonical byte-stable JSON form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _require(cond, message, path):
    if not cond:
        raise ParseError(message, path)


def _encode(a) -> list:
    """JSON form of a matrix: rows of numbers for a real array, rows of
    [re, im] pairs for a complex one."""
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], -1).tolist()
    return a.tolist()


def _encode_stages(stages) -> list:
    """JSON form of the stages of a chain, which share their shapes: each of
    S, K and R encoded for all stages in one stacked pass."""
    fields = [_encode(np.stack([getattr(st, name) for st in stages])) for name in "skr"]
    return [{"S": s, "K": k, "R": r} for s, k, r in zip(*fields)]


def _realified_pieces(v) -> Optional[list]:
    """The canonical JSON text of the real 2n x 2n matrix V, in pieces to be
    joined inside its outer brackets, when V is realify(U) bit for bit; None
    for any other V.

    Such a V holds each number of re = Re U = V[0::2, 0::2] and
    im = Im U = V[1::2, 0::2] twice, as V[1::2, 1::2] = re and as
    V[0::2, 1::2] = 0.0 - im.  So each is formatted once, and the repr of
    0.0 - im is that of im with its sign toggled, or 0.0 for a zero of
    either sign.  The test compares bits, so that a signed zero counts, and
    never forms re + 1j * im, which turns a -0.0 real part into 0.0."""
    re, im = v[0::2, 0::2], v[1::2, 0::2]
    bits = v.view(np.uint64)
    if not (
        np.array_equal(bits[1::2, 1::2], bits[0::2, 0::2])
        and np.array_equal(bits[0::2, 1::2], (0.0 - im).view(np.uint64))
    ):
        return None
    pieces = []
    cells = [""] * v.shape[1]
    for re_row, im_row in zip(re.tolist(), im.tolist()):
        re_text = list(map(float.__repr__, re_row))
        im_text = list(map(float.__repr__, im_row))
        cells[0::2] = re_text
        cells[1::2] = [t[1:] if t[0] == "-" else t if t == "0.0" else "-" + t for t in im_text]
        pieces += ("[", ",".join(cells), "],[")
        cells[0::2], cells[1::2] = im_text, re_text
        pieces += (",".join(cells), "]", ",")
    del pieces[-1:]  # no comma after the last row
    return pieces


def _only(items, kinds) -> bool:
    """True when every item is an instance of kinds and none is a bool, in
    one C-level pass over the items."""
    return all(issubclass(t, kinds) and t is not bool for t in set(map(type, items)))


def _well_typed(obj, depth) -> bool:
    """True when obj is depth levels of nested arrays holding JSON numbers,
    checked one level at a time."""
    level = [obj]
    for _ in range(depth):
        if not _only(level, list):
            return False
        level = list(chain.from_iterable(level))
    return _only(level, (int, float))


def _convert(obj, shape) -> Optional[np.ndarray]:
    """obj as a float array of the given shape, or None unless obj is nested
    arrays of that shape holding JSON numbers that binary64 can hold."""
    try:
        out = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    # an empty matrix converts to fewer axes than it has
    if out.size == 0 and out.shape == shape[: out.ndim]:
        out = out.reshape(shape)
    return out if out.shape == shape and _well_typed(obj, len(shape)) else None


def _decode(obj, rows, cols, path, is_complex) -> np.ndarray:
    """Decode a rows x cols matrix of numbers, or of [re, im] pairs when
    is_complex: one array conversion, then checks of its shape, the types
    in it and finiteness.  Only a matrix that fails them is walked cell by
    cell, by _locate, to name the fault."""
    shape = (rows, cols, 2) if is_complex else (rows, cols)
    out = _convert(obj, shape)
    if out is None or not np.isfinite(out).all():
        _locate(obj, rows, cols, path, is_complex)
    return out.view(complex)[..., 0] if is_complex else out


def _locate(obj, rows, cols, path, is_complex) -> NoReturn:
    """Raise the ParseError that names the first fault of a matrix _decode
    rejected, in row-major order; a matrix with no fault in its structure
    has a non-finite entry."""
    _require(isinstance(obj, list), "expected an array of rows", path)
    _require(len(obj) == rows, f"expected {rows} rows, got {len(obj)}", path)
    cell_shape = (2,) if is_complex else ()
    message = "expected a [re, im] pair" if is_complex else "expected a real number"
    for i, row in enumerate(obj):
        _require(isinstance(row, list), "expected an array", f"{path}[{i}]")
        _require(
            len(row) == cols, f"expected {cols} columns, got {len(row)}", f"{path}[{i}]"
        )
        for j, cell in enumerate(row):
            _require(_convert(cell, cell_shape) is not None, message, f"{path}[{i}][{j}]")
    raise ParseError("non-finite entry", path)


def _count(data, key):
    value = data.get(key)
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 0,
        "expected a non-negative integer",
        f"$.{key}",
    )
    return value


def _parse_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _check_header(data, fields, optional=frozenset()) -> None:
    """Check what every document shares: a JSON object of this
    SCHEMA_VERSION whose field names are fields(data), where the optional
    ones may be absent."""
    _require(isinstance(data, dict), "document must be a JSON object", "$")
    version = data.get("schema_version")
    _require(
        version == SCHEMA_VERSION,
        f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION!r})",
        "$.schema_version",
    )
    allowed = fields(data)
    unknown = sorted(set(data) - allowed)
    _require(not unknown, f"unknown fields {unknown}", "$")
    missing = sorted(allowed - optional - set(data))
    _require(not missing, f"missing fields {missing}", "$")


def _system_fields(data) -> set:
    form = data.get("form")
    _require(
        form in ("general", "passive"),
        f"form must be 'general' or 'passive', got {form!r}",
        "$.form",
    )
    matrices = {"K", "R"} if form == "general" else {"K_tilde", "R_tilde"}
    return {"schema_version", "form", "n", "m", "S"} | matrices


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """Serializable description of one system, in quadrature ('general') or
    annihilation-variable ('passive') form.  Both forms carry the scattering
    matrix; the passive form stores the Hermitian Hamiltonian matrix and the
    annihilation coupling instead of their quadrature expansions."""

    form: str
    s: ComplexMatrix
    k: Optional[ComplexMatrix] = None
    r: Optional[RealMatrix] = None
    k_tilde: Optional[ComplexMatrix] = None
    r_tilde: Optional[ComplexMatrix] = None
    _system: SlhSystem = field(init=False, repr=False)

    def __post_init__(self):
        if self.form == "general":
            present, absent = ("k", "r"), ("k_tilde", "r_tilde")
        elif self.form == "passive":
            present, absent = ("k_tilde", "r_tilde"), ("k", "r")
        else:
            raise ValueError(f"form must be 'general' or 'passive', got {self.form!r}")
        for name in present:
            if getattr(self, name) is None:
                raise ValueError(f"{self.form} form requires {name}")
        for name in absent:
            if getattr(self, name) is not None:
                raise ValueError(f"{self.form} form must not carry {name}")
        # the domain types copy and check the arrays, and the document keeps
        # theirs; the SlhSystem built here is the one to_system returns
        if self.form == "general":
            system = owner = SlhSystem(s=self.s, k=self.k, r=self.r)
        else:
            owner = PassiveForm(r_tilde=self.r_tilde, k_tilde=self.k_tilde)
            system = from_passive_form(owner, self.s)
        for name in present:
            object.__setattr__(self, name, getattr(owner, name))
        object.__setattr__(self, "s", system.s)
        object.__setattr__(self, "_system", system)

    @property
    def n(self) -> int:
        return self.r.shape[0] // 2 if self.form == "general" else self.r_tilde.shape[0]

    @property
    def m(self) -> int:
        return self.s.shape[0]

    @classmethod
    def from_system(cls, sys: SlhSystem) -> "SystemDocument":
        return cls(form="general", s=sys.s, k=sys.k, r=sys.r)

    @classmethod
    def from_passive(cls, pf: PassiveForm, s) -> "SystemDocument":
        return cls(form="passive", s=s, k_tilde=pf.k_tilde, r_tilde=pf.r_tilde)

    def to_system(self) -> SlhSystem:
        """The quadrature system this document describes, built once on
        construction."""
        return self._system

    def to_dict(self) -> dict:
        data = {
            "schema_version": SCHEMA_VERSION,
            "form": self.form,
            "n": self.n,
            "m": self.m,
            "S": _encode(self.s),
        }
        if self.form == "general":
            data["K"] = _encode(self.k)
            data["R"] = _encode(self.r)
        else:
            data["K_tilde"] = _encode(self.k_tilde)
            data["R_tilde"] = _encode(self.r_tilde)
        return data

    @classmethod
    def from_dict(cls, data) -> "SystemDocument":
        _check_header(data, _system_fields)
        n = _count(data, "n")
        m = _count(data, "m")
        s = _decode(data["S"], m, m, "$.S", True)
        if data["form"] == "general":
            fields = {
                "k": _decode(data["K"], m, 2 * n, "$.K", True),
                "r": _decode(data["R"], 2 * n, 2 * n, "$.R", False),
            }
        else:
            fields = {
                "r_tilde": _decode(data["R_tilde"], n, n, "$.R_tilde", True),
                "k_tilde": _decode(data["K_tilde"], m, n, "$.K_tilde", True),
            }
        # the constructor checks S, then R, or R_tilde as the symmetry of its R
        try:
            return cls(form=data["form"], s=s, **fields)
        except NonUnitaryScattering as exc:
            raise ParseError(str(exc), "$.S") from None
        except NonSymmetricR as exc:
            raise ParseError(str(exc), "$.R") from None
        except NonHermitianRtilde as exc:
            raise ParseError(str(exc), "$.R_tilde") from None

    def dumps(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def loads(cls, text) -> "SystemDocument":
        return cls.from_dict(_parse_json(text))

    def digest(self) -> str:
        """sha256 digest of the canonical encoding, dumps(), used to tie
        realization documents back to their input."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()


def _decode_stages(entries) -> tuple[SlhSystem, ...]:
    """Decode the stage objects of a realization document, every stage at
    the field count m of stage 0.  Each of S, K and R is converted and
    checked for all stages at once, and the stages are read-only views into
    those stacks, measured by the formula that measures a system mode by
    mode (model._mode_measures) and judged in one pass (model._stages); a
    stage that is not a system is a ParseError at $.stages.  Each is judged
    passive at the scale of its chain.  Stages that fail the decoding checks
    are walked by _locate_stages to name the fault."""
    for i, entry in enumerate(entries):
        path = f"$.stages[{i}]"
        _require(isinstance(entry, dict), "expected an object", path)
        _require(set(entry) == {"S", "K", "R"}, "expected fields S, K, R", path)
    first = entries[0]["S"]
    _require(isinstance(first, list), "expected an array of rows", "$.stages[0].S")
    count, m = len(entries), len(first)
    shapes = {"S": (count, m, m, 2), "K": (count, m, 2, 2), "R": (count, 2, 2)}
    s, k, r = (_convert([entry[key] for entry in entries], shapes[key]) for key in "SKR")
    if not all(a is not None and np.isfinite(a).all() for a in (s, k, r)):
        _locate_stages(entries, m)
    # locked before the complex views are taken, which share their memory
    s, k = (_readonly(a).view(complex)[..., 0] for a in (s, k))
    with np.errstate(over="ignore", invalid="ignore"):
        unitarity = stack_max(s.conj().swapaxes(1, 2) @ s - np.eye(m))
        dropped = [x.ravel() for x in _mode_measures(k, r)]
    try:
        return _stages(s, k, r, unitarity.tolist(), dropped)
    except (NonUnitaryScattering, NonSymmetricR) as exc:
        raise ParseError(str(exc), "$.stages") from None


def _locate_stages(entries, m) -> NoReturn:
    """Raise the ParseError that names the first fault of the stages
    _decode_stages rejected, stage by stage in the order S, K, R, each
    matrix decoded on its own at the field count m (see _decode)."""
    shapes = {"S": (m, m), "K": (m, 2), "R": (2, 2)}
    for i, entry in enumerate(entries):
        for key, (rows, cols) in shapes.items():
            _decode(entry[key], rows, cols, f"$.stages[{i}].{key}", key != "R")
    raise AssertionError("stages that decode one by one decode stacked")


_REALIZATION_FIELDS = {"schema_version", "input_digest", "stages", "V", "residual_R", "reports"}


@dataclass(frozen=True, eq=False)
class RealizationDocument:
    """Serializable result of a decomposition or passive-realization run:
    the one-mode stages (input end first), the symplectic transform when one
    was constructed, the residual interaction when one is needed, and the
    numerical reports of every certification that ran.  The stages and the
    residual form one CascadeChain, built and checked on construction; the
    document keeps the chain's arrays, and to_chain returns that chain.  The
    reports must be finite JSON, so that the document can be written."""

    input_digest: str
    stages: tuple[SlhSystem, ...]
    v: Optional[RealMatrix] = None
    residual_r: Optional[RealMatrix] = None
    reports: Mapping[str, Any] = field(default_factory=dict)
    _chain: CascadeChain = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.input_digest, str):
            raise ValueError("input_digest must be a string")
        chain = CascadeChain(stages=self.stages, residual_r=self.residual_r)
        object.__setattr__(self, "stages", chain.stages)
        object.__setattr__(self, "residual_r", chain.residual_r)
        object.__setattr__(self, "_chain", chain)
        if self.v is not None:
            v = _as_real(self.v, "V")
            nn = 2 * chain.n
            if v.shape != (nn, nn):
                raise ValueError(f"V must be {nn} x {nn}, got {v.shape}")
            object.__setattr__(self, "v", v)
        try:
            encoded = canonical_json(self.reports)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"reports must be finite JSON: {exc}") from None
        # keep the checked encoding, not the caller's objects, which could still change
        object.__setattr__(self, "reports", json.loads(encoded))

    def to_chain(self) -> CascadeChain:
        """The cascade chain of the stages and the residual, built and
        checked once, on construction."""
        return self._chain

    def _fields(self) -> dict:
        """The JSON form of every field but V."""
        data = {
            "schema_version": SCHEMA_VERSION,
            "input_digest": self.input_digest,
            "stages": _encode_stages(self.stages),
            "reports": dict(self.reports),
        }
        if self.residual_r is not None:
            data["residual_R"] = _encode(self.residual_r)
        return data

    def to_dict(self) -> dict:
        data = self._fields()
        if self.v is not None:
            data["V"] = _encode(self.v)
        return data

    @classmethod
    def from_dict(cls, data) -> "RealizationDocument":
        _check_header(data, lambda _: _REALIZATION_FIELDS, optional={"V", "residual_R"})
        _require(isinstance(data["input_digest"], str), "expected a string", "$.input_digest")
        _require(isinstance(data["stages"], list), "expected an array", "$.stages")
        _require(len(data["stages"]) > 0, "expected at least one stage", "$.stages")
        stages = _decode_stages(data["stages"])
        nn = 2 * len(stages)
        v, residual = (
            _decode(data[key], nn, nn, f"$.{key}", False) if key in data else None
            for key in ("V", "residual_R")
        )
        _require(isinstance(data["reports"], dict), "expected an object", "$.reports")
        # the stages were judged as they were decoded; the chain checks the residual
        try:
            return cls(
                input_digest=data["input_digest"],
                stages=stages,
                v=v,
                residual_r=residual,
                reports=data["reports"],
            )
        except BadResidual as exc:
            raise ParseError(str(exc), "$.residual_R") from None
        except ValueError as exc:
            # decoded stages, V and residual raise no ValueError; the reports can
            raise ParseError(str(exc), "$.reports") from None

    def dumps(self) -> str:
        """canonical_json(self.to_dict()), with V written from its complex
        form when it has one (see _realified_pieces)."""
        pieces = None if self.v is None else _realified_pieces(self.v)
        if pieces is None:
            return canonical_json(self.to_dict())
        # "V" sorts before every other field
        return "".join(['{"V":[', *pieces, "],", canonical_json(self._fields())[1:]])

    @classmethod
    def loads(cls, text) -> "RealizationDocument":
        return cls.from_dict(_parse_json(text))

    def digest(self) -> str:
        """sha256 digest of the canonical encoding, dumps()."""
        return hashlib.sha256(self.dumps().encode("utf-8")).hexdigest()
