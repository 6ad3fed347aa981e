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
from .errors import NonHermitianRtilde, ParseError
from .model import (
    ComplexMatrix,
    PassiveForm,
    RealMatrix,
    SlhSystem,
    _as_real,
    _readonly,
    _stages,
    from_passive_form,
)

SCHEMA_VERSION = "1"

HERMITICITY_TOL = 1e-9


def canonical_json(obj) -> str:
    """Serialize to the canonical byte-stable JSON form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def document_digest(data: Mapping) -> str:
    """sha256 hex digest of the canonical JSON encoding."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _require(cond, message, path):
    if not cond:
        raise ParseError(message, path)


def _encode(a) -> list:
    """JSON form of a matrix: rows of numbers for a real array, rows of
    [re, im] pairs for a complex one."""
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], -1).tolist()
    return a.tolist()


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
    schema_version: str = SCHEMA_VERSION
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
            system = from_passive_form(owner, self.s, tol_sym=HERMITICITY_TOL)
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
            "schema_version": self.schema_version,
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
            return cls(
                form="general",
                s=s,
                k=_decode(data["K"], m, 2 * n, "$.K", True),
                r=_decode(data["R"], 2 * n, 2 * n, "$.R", False),
            )
        r_tilde = _decode(data["R_tilde"], n, n, "$.R_tilde", True)
        k_tilde = _decode(data["K_tilde"], m, n, "$.K_tilde", True)
        # the constructor checks Hermiticity, through PassiveForm.validate
        try:
            return cls(form="passive", s=s, k_tilde=k_tilde, r_tilde=r_tilde)
        except NonHermitianRtilde:
            raise ParseError(
                f"R_tilde must be Hermitian within {HERMITICITY_TOL:.1e} of |R_tilde|_max",
                "$.R_tilde",
            ) from None

    def dumps(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def loads(cls, text) -> "SystemDocument":
        return cls.from_dict(_parse_json(text))

    def digest(self) -> str:
        """sha256 digest of the canonical encoding, used to tie realization
        documents back to their input."""
        return document_digest(self.to_dict())


def _decode_stage(entry, path) -> SlhSystem:
    _require(isinstance(entry["S"], list), "expected an array of rows", f"{path}.S")
    m = len(entry["S"])
    return SlhSystem(
        s=_decode(entry["S"], m, m, f"{path}.S", True),
        k=_decode(entry["K"], m, 2, f"{path}.K", True),
        r=_decode(entry["R"], 2, 2, f"{path}.R", False),
    )


def _decode_stages(entries) -> tuple[SlhSystem, ...]:
    """Decode the stage objects of a realization document.  Each of S, K
    and R is converted and checked for all stages at once, with the field
    count of stage 0, and the stages are read-only views into those stacks
    (model._stages); only when that fails are the stages decoded one by one,
    each with its own field count, so that a fault is named at its stage."""
    for i, entry in enumerate(entries):
        path = f"$.stages[{i}]"
        _require(isinstance(entry, dict), "expected an object", path)
        _require(set(entry) == {"S", "K", "R"}, "expected fields S, K, R", path)
    first = entries[0]["S"]
    if isinstance(first, list):
        count, m = len(entries), len(first)
        shapes = {"S": (count, m, m, 2), "K": (count, m, 2, 2), "R": (count, 2, 2)}
        s, k, r = (_convert([entry[key] for entry in entries], shapes[key]) for key in "SKR")
        if all(a is not None and np.isfinite(a).all() for a in (s, k, r)):
            # locked before the complex views are taken, which share their memory
            s, k = (_readonly(a).view(complex)[..., 0] for a in (s, k))
            return _stages(s, k, r)
    return tuple(_decode_stage(entry, f"$.stages[{i}]") for i, entry in enumerate(entries))


_REALIZATION_FIELDS = {"schema_version", "input_digest", "stages", "V", "residual_R", "reports"}


@dataclass(frozen=True, eq=False)
class RealizationDocument:
    """Serializable result of a decomposition or passive-realization run:
    the one-mode stages (input end first), the symplectic transform when one
    was constructed, the residual interaction when one is needed, and the
    numerical reports of every certification that ran."""

    input_digest: str
    stages: tuple[SlhSystem, ...]
    v: Optional[RealMatrix] = None
    residual_r: Optional[RealMatrix] = None
    reports: Mapping[str, Any] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not isinstance(self.input_digest, str):
            raise ValueError("input_digest must be a string")
        nn = 2 * len(self.stages)
        for name, label in (("v", "V"), ("residual_r", "residual_R")):
            value = getattr(self, name)
            if value is not None:
                a = _as_real(value, label)
                if a.shape != (nn, nn):
                    raise ValueError(f"{label} must be {nn} x {nn}, got {a.shape}")
                object.__setattr__(self, name, a)
        object.__setattr__(self, "reports", dict(self.reports))

    @property
    def n(self) -> int:
        return len(self.stages)

    def to_chain(self) -> CascadeChain:
        """Rebuild the cascade chain (validating the chain invariants)."""
        return CascadeChain(stages=self.stages, residual_r=self.residual_r)

    def to_dict(self) -> dict:
        data = {
            "schema_version": self.schema_version,
            "input_digest": self.input_digest,
            "stages": [
                {"S": _encode(st.s), "K": _encode(st.k), "R": _encode(st.r)}
                for st in self.stages
            ],
            "reports": dict(self.reports),
        }
        if self.v is not None:
            data["V"] = _encode(self.v)
        if self.residual_r is not None:
            data["residual_R"] = _encode(self.residual_r)
        return data

    @classmethod
    def from_dict(cls, data) -> "RealizationDocument":
        _check_header(data, lambda _: _REALIZATION_FIELDS, optional={"V", "residual_R"})
        _require(isinstance(data["input_digest"], str), "expected a string", "$.input_digest")
        _require(isinstance(data["stages"], list), "expected an array", "$.stages")
        _require(len(data["stages"]) > 0, "expected at least one stage", "$.stages")
        stages = _decode_stages(data["stages"])
        nn = 2 * len(stages)
        v = None
        if "V" in data:
            v = _decode(data["V"], nn, nn, "$.V", False)
        residual = None
        if "residual_R" in data:
            residual = _decode(data["residual_R"], nn, nn, "$.residual_R", False)
        _require(isinstance(data["reports"], dict), "expected an object", "$.reports")
        return cls(
            input_digest=data["input_digest"],
            stages=stages,
            v=v,
            residual_r=residual,
            reports=data["reports"],
        )

    def dumps(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def loads(cls, text) -> "RealizationDocument":
        return cls.from_dict(_parse_json(text))

    def digest(self) -> str:
        return document_digest(self.to_dict())
