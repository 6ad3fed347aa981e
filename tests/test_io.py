"""JSON document encoding, decoding, digests, and schema validation."""

import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_synth import (
    BadResidual,
    CascadeChain,
    FieldCountMismatch,
    NonSymmetricR,
    NonUnitaryScattering,
    ParseError,
    PassiveForm,
    RealizationDocument,
    SlhSystem,
    SystemDocument,
    canonical_json,
    cascade,
    from_passive_form,
    max_abs,
    one_mode_stages,
    passive_realize,
    residual_interaction,
)
from cascade_synth import model
from cascade_synth.documents import _realified_pieces
from cascade_synth.model import _as_matrix as as_matrix, realify
from cascade_synth.sampling import (
    random_chain,
    random_passive_form,
    random_symplectic_orthogonal,
    random_system,
    random_unitary,
)

import reference_data as ref

FROZEN_DOC = SystemDocument.from_system(
    SlhSystem(
        s=np.array([[1.0 + 0.0j]]),
        k=np.array([[0.5, -0.25j]]),
        r=np.array([[0.125, 0.0], [0.0, 0.125]]),
    )
)
FROZEN_DIGEST = "63bc2b57eba10a46cbfbecb925e6c6a3e62887ceade98b26878eb3cd5aab6d46"

# The stages of a fixed two-mode passive system, V = realify(U) for a fixed
# unitary U with signed zeros in both parts, and a report.  Every number is
# exact or written as given, so the bytes are the same on every platform;
# the digest was recorded when dumps still encoded all of V.
FROZEN_REALIZATION = RealizationDocument(
    input_digest=FROZEN_DIGEST,
    stages=one_mode_stages(
        from_passive_form(
            PassiveForm(
                r_tilde=np.array([[1 / 3, 0.25 - 0.5j], [0.25 + 0.5j, -2.0]]),
                k_tilde=np.array([[1.0, 0.5j]]),
            ),
            np.array([[1j]]),
        )
    ),
    v=realify(
        np.array(
            [[complex(0.6, -0.0), complex(-0.0, 0.8)], [complex(0.0, -0.8), complex(-0.6, 0.0)]]
        )
    ),
    reports={"stages_passive": True, "chain_residual": 0.0},
)
FROZEN_REALIZATION_DIGEST = "dace6db4fb6cad662c57e17b34c9f235f0f587761ccb8335269cbd6f93d306ff"


def _set_cell(value):
    return lambda row: row.__setitem__(1, value)


# A change to the last row of R (2 x 2) or K (1 x 2, complex) of FROZEN_DOC,
# and the ParseError path and message the cell-by-cell decoder gave for it.
MALFORMED_ROWS = [
    pytest.param("R", _set_cell(True), "$.R[1][1]", "expected a real number", id="R-true"),
    pytest.param("R", _set_cell("0.5"), "$.R[1][1]", "expected a real number", id="R-string"),
    pytest.param("R", _set_cell(None), "$.R[1][1]", "expected a real number", id="R-null"),
    pytest.param("R", _set_cell([0.5, 0.0]), "$.R[1][1]", "expected a real number", id="R-pair"),
    pytest.param("R", _set_cell([0.5]), "$.R[1][1]", "expected a real number", id="R-re"),
    pytest.param(
        "R", _set_cell([0.5, 0.0, 1.0]), "$.R[1][1]", "expected a real number", id="R-triple"
    ),
    pytest.param("R", list.pop, "$.R[1]", "expected 2 columns, got 1", id="R-short-row"),
    pytest.param(
        "R", lambda row: row.append(0.5), "$.R[1]", "expected 2 columns, got 3", id="R-long-row"
    ),
    pytest.param("R", _set_cell(float("inf")), "$.R", "non-finite entry", id="R-Infinity"),
    pytest.param("R", _set_cell(float("nan")), "$.R", "non-finite entry", id="R-NaN"),
    pytest.param("K", _set_cell(True), "$.K[0][1]", "expected a [re, im] pair", id="K-true"),
    pytest.param("K", _set_cell("0.5"), "$.K[0][1]", "expected a [re, im] pair", id="K-string"),
    pytest.param("K", _set_cell(None), "$.K[0][1]", "expected a [re, im] pair", id="K-null"),
    pytest.param("K", _set_cell(0.5), "$.K[0][1]", "expected a [re, im] pair", id="K-bare"),
    pytest.param("K", _set_cell([0.5]), "$.K[0][1]", "expected a [re, im] pair", id="K-re"),
    pytest.param(
        "K", _set_cell([0.5, 0.0, 1.0]), "$.K[0][1]", "expected a [re, im] pair", id="K-triple"
    ),
    pytest.param(
        "K", _set_cell([True, 0.0]), "$.K[0][1]", "expected a [re, im] pair", id="K-bool-pair"
    ),
    pytest.param("K", list.pop, "$.K[0]", "expected 2 columns, got 1", id="K-short-row"),
    pytest.param(
        "K", lambda row: row.append([0.5, 0.0]), "$.K[0]", "expected 2 columns, got 3",
        id="K-long-row",
    ),
    pytest.param("K", _set_cell([float("inf"), 0.0]), "$.K", "non-finite entry", id="K-Infinity"),
    pytest.param("K", _set_cell([0.0, float("nan")]), "$.K", "non-finite entry", id="K-NaN"),
]

def _three_fields(stage):
    """Stage S becomes the 3 x 3 identity; K keeps its two rows."""
    stage["S"] = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]


def _set(field, *index, value):
    def change(stage):
        target = stage[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value

    return change


# A change to one stage of a five-stage, two-field realization document, and
# the ParseError path and message for it: every stage is read at the field
# count of stage 0, and a fault is named at its stage.
MALFORMED_STAGES = [
    pytest.param(3, _three_fields, "$.stages[3].S", "expected 2 rows, got 3", id="m-changes"),
    pytest.param(
        2, _set("K", 1, 0, value=True), "$.stages[2].K[1][0]", "expected a [re, im] pair",
        id="K-true",
    ),
    pytest.param(
        2, _set("K", 1, 0, 1, value=True), "$.stages[2].K[1][0]", "expected a [re, im] pair",
        id="K-bool-part",
    ),
    pytest.param(
        4, lambda st: st["R"].append([0.0, 0.0]), "$.stages[4].R", "expected 2 rows, got 3",
        id="R-3x2",
    ),
    pytest.param(
        0, lambda st: st["K"][0].pop(), "$.stages[0].K[0]", "expected 2 columns, got 1",
        id="K-short-row",
    ),
    pytest.param(
        1, _set("R", 0, 0, value=float("inf")), "$.stages[1].R", "non-finite entry", id="R-Infinity"
    ),
    pytest.param(
        1, lambda st: st.update(S="x"), "$.stages[1].S", "expected an array of rows", id="S-string"
    ),
]

# Finite doubles at the edges of binary64: signed zeros, subnormals, the
# smallest normal, the extremes, and values with long shortest-repr forms.
EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 0.1, 1 / 3, 1e16, -2.5, 123456789.125]
)


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("inf")})

    def test_digest_is_sha256_of_canonical_text(self):
        import hashlib

        assert ref.document_digest({"a": 1}) == hashlib.sha256(b'{"a":1}').hexdigest()
        for doc in (FROZEN_DOC, FROZEN_REALIZATION):
            expected = hashlib.sha256(doc.dumps().encode("utf-8")).hexdigest()
            assert doc.digest() == expected == ref.document_digest(doc.to_dict())


class TestSystemDocument:
    def test_frozen_digest(self):
        assert FROZEN_DIGEST == FROZEN_DOC.digest()

    def test_frozen_encoding_keeps_signed_zero(self):
        assert '[-0.0,-0.25]' in FROZEN_DOC.dumps()

    def test_general_roundtrip_is_byte_stable(self):
        doc = SystemDocument.from_system(random_system(3, 2, 14))
        text = doc.dumps()
        again = SystemDocument.loads(text)
        assert again.dumps() == text
        assert again.digest() == doc.digest()
        sys1, sys2 = doc.to_system(), again.to_system()
        assert np.array_equal(sys1.s, sys2.s)
        assert np.array_equal(sys1.k, sys2.k)
        assert np.array_equal(sys1.r, sys2.r)

    def test_passive_roundtrip(self, reference_passive_form):
        doc = SystemDocument.from_passive(
            reference_passive_form, s=np.eye(2, dtype=complex)
        )
        assert doc.form == "passive" and doc.n == 2 and doc.m == 2
        text = doc.dumps()
        again = SystemDocument.loads(text)
        assert again.dumps() == text
        sys = again.to_system()
        assert max_abs(sys.k - ref.K_EXACT) == 0.0
        assert max_abs(sys.r - ref.R_EXACT) == 0.0

    def test_form_field_consistency(self):
        with pytest.raises(ValueError):
            SystemDocument(form="general", s=np.eye(1), k=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            SystemDocument(
                form="passive",
                s=np.eye(1),
                k=np.zeros((1, 2)),
                k_tilde=np.zeros((1, 1)),
                r_tilde=np.zeros((1, 1)),
            )
        with pytest.raises(ValueError):
            SystemDocument(form="other", s=np.eye(1))

    def parse(self, mutate):
        data = json.loads(FROZEN_DOC.dumps())
        mutate(data)
        with pytest.raises(ParseError) as exc:
            SystemDocument.from_dict(data)
        return exc.value

    def test_rejects_unknown_schema_version(self):
        err = self.parse(lambda d: d.update(schema_version="2"))
        assert err.path == "$.schema_version"

    def test_schema_version_is_not_a_field(self):
        # every document writes SCHEMA_VERSION, so every one can be read back
        with pytest.raises(TypeError, match="schema_version"):
            SystemDocument(
                form="general", s=np.eye(1), k=np.zeros((1, 2)), r=np.eye(2), schema_version="2"
            )
        with pytest.raises(TypeError, match="schema_version"):
            RealizationDocument(
                input_digest="x", stages=(random_system(1, 1, 0),), schema_version="2"
            )

    def test_rejects_unknown_field(self):
        err = self.parse(lambda d: d.update(extra=1))
        assert err.path == "$" and "extra" in str(err)

    def test_rejects_missing_field(self):
        err = self.parse(lambda d: d.pop("R"))
        assert err.path == "$" and "'R'" in str(err)

    def test_rejects_bad_form(self):
        err = self.parse(lambda d: d.update(form="diagonal"))
        assert err.path == "$.form"

    def test_rejects_bad_counts(self):
        assert self.parse(lambda d: d.update(n=-1)).path == "$.n"
        assert self.parse(lambda d: d.update(m=True)).path == "$.m"

    def test_rejects_wrong_column_count(self):
        err = self.parse(lambda d: d.update(n=2))
        assert err.path == "$.K[0]" and "columns" in str(err)

    def test_rejects_complex_pair_in_real_matrix(self):
        err = self.parse(lambda d: d["R"][0].__setitem__(0, [1.0, 0.0]))
        assert err.path == "$.R[0][0]"

    def test_rejects_bare_number_in_complex_matrix(self):
        err = self.parse(lambda d: d["K"][0].__setitem__(0, 0.5))
        assert err.path == "$.K[0][0]"

    @pytest.mark.parametrize("key, change, path, message", MALFORMED_ROWS)
    def test_rejects_malformed_cell(self, key, change, path, message):
        err = self.parse(lambda d: change(d[key][-1]))
        assert err.path == path and str(err) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "cell, path, message",
        [
            ("0.125", "$.R[0][0]", "expected a real number"),
            ("0.5", "$.K[0][0]", "expected a [re, im] pair"),
        ],
    )
    def test_rejects_integer_beyond_binary64(self, cell, path, message):
        # RFC 8259 lets a number exceed binary64; such a cell is malformed here
        text = FROZEN_DOC.dumps().replace(cell, "-1" + "0" * 400, 1)
        with pytest.raises(ParseError) as exc:
            SystemDocument.loads(text)
        assert exc.value.path == path and str(exc.value) == f"{path}: {message}"

    def test_rejects_non_finite_entries(self):
        # json.loads admits Infinity; schema validation must not
        text = FROZEN_DOC.dumps().replace("0.125", "Infinity", 1)
        with pytest.raises(ParseError) as exc:
            SystemDocument.loads(text)
        assert exc.value.path == "$.R"

    def test_rejects_non_hermitian_r_tilde(self):
        doc = SystemDocument.from_passive(
            random_passive_form(2, 1, 3), s=np.eye(1, dtype=complex)
        )
        data = json.loads(doc.dumps())
        data["R_tilde"][0][1] = [99.0, 0.0]
        with pytest.raises(ParseError) as exc:
            SystemDocument.from_dict(data)
        assert exc.value.path == "$.R_tilde"

    def test_passive_document_builds_its_system_once(self, monkeypatch):
        calls = []

        def recording(pf, s):
            calls.append(pf)
            return from_passive_form(pf, s)

        for name, module in list(sys.modules.items()):
            if name.startswith("cascade_synth") and getattr(
                module, "from_passive_form", None
            ) is from_passive_form:
                monkeypatch.setattr(module, "from_passive_form", recording)
        doc = SystemDocument.from_passive(
            random_passive_form(3, 2, 5), s=np.eye(2, dtype=complex)
        )
        text = doc.dumps()
        calls.clear()
        loaded = SystemDocument.loads(text)
        system = loaded.to_system()
        assert len(calls) == 1 and loaded.to_system() is system

    def test_hermiticity_is_checked_once_per_read(self, monkeypatch):
        # R_tilde is judged once, as the symmetry of the R it expands to
        calls = []
        judge = model._judge

        def recording(*args):
            calls.append(args)
            return judge(*args)

        monkeypatch.setattr(model, "_judge", recording)
        doc = SystemDocument.from_passive(
            random_passive_form(3, 2, 6), s=np.eye(2, dtype=complex)
        )
        text = doc.dumps()
        calls.clear()
        SystemDocument.loads(text)
        assert len(calls) == 1
        data = json.loads(text)
        data["R_tilde"][0][1] = [99.0, 0.0]
        calls.clear()
        with pytest.raises(ParseError) as exc:
            SystemDocument.from_dict(data)
        assert len(calls) == 1 and exc.value.path == "$.R_tilde"
        assert str(exc.value) == (
            "$.R_tilde: R_tilde must be Hermitian within 1.0e-09 of its largest "
            "real or imaginary part"
        )

    def test_hermiticity_has_the_scale_of_the_symmetry_of_r(self):
        # within 1e-9 of the largest modulus of R_tilde, not of its largest
        # real or imaginary part: a fault of R_tilde, not of an R the
        # document does not hold
        data = ref.leaning_passive_data()
        with pytest.raises(ParseError) as exc:
            SystemDocument.from_dict(data)
        assert exc.value.path == "$.R_tilde"
        assert str(exc.value).startswith("$.R_tilde: R_tilde must be Hermitian")

    def test_arrays_are_copied_once_per_read(self, monkeypatch):
        names = []

        def recording(value, dtype, name):
            names.append(name)
            return as_matrix(value, dtype, name)

        monkeypatch.setattr(model, "_as_matrix", recording)
        general = SystemDocument.from_system(random_system(3, 2, 7))
        passive = SystemDocument.from_passive(
            random_passive_form(3, 2, 7), s=np.eye(2, dtype=complex)
        )
        for doc, copied in (
            (general, ["S", "K", "R"]),
            (passive, ["R_tilde", "K_tilde", "S", "K", "R"]),
        ):
            text = doc.dumps()
            names.clear()
            loaded = SystemDocument.loads(text)
            assert names == copied
            # the document holds the arrays of the system it describes
            system = loaded.to_system()
            assert loaded.s is system.s
            assert loaded.dumps() == text
        general = SystemDocument.loads(general.dumps())
        assert general.k is general.to_system().k and general.r is general.to_system().r

    def test_rejects_invalid_json_and_non_objects(self):
        with pytest.raises(ParseError):
            SystemDocument.loads("{not json")
        with pytest.raises(ParseError):
            SystemDocument.loads("[1, 2]")


class TestRealizationDocument:
    def build(self, with_optional=True):
        chain = random_chain(3, 2, 6)
        combined = cascade(chain)
        input_doc = SystemDocument.from_system(combined)
        v = np.eye(6) if with_optional else None
        residual = np.zeros((6, 6)) if with_optional else None
        if with_optional:
            residual[0, 2] = residual[2, 0] = 0.5
        return RealizationDocument(
            input_digest=input_doc.digest(),
            stages=chain.stages,
            v=v,
            residual_r=residual,
            reports={"triangularity": {"is_triangular": True}},
        )

    def test_roundtrip_byte_stable(self):
        for with_optional in (True, False):
            doc = self.build(with_optional)
            text = doc.dumps()
            again = RealizationDocument.loads(text)
            assert again.dumps() == text
            assert again.digest() == doc.digest()
            assert again.reports == doc.reports
            assert ("V" in text) == with_optional
            assert ("residual_R" in text) == with_optional

    def test_to_chain_rebuilds_stages(self):
        doc = self.build(with_optional=False)
        chain = doc.to_chain()
        assert chain.n == 3 and chain.residual_r is None
        for stage, original in zip(chain.stages, doc.stages):
            assert np.array_equal(stage.k, original.k)

    def test_to_chain_validates_residual(self):
        # the chain checks the residual when the document is built
        doc = self.build()
        assert doc.to_chain().residual_r is doc.residual_r
        with pytest.raises(BadResidual):
            RealizationDocument(
                input_digest=doc.input_digest,
                stages=doc.stages,
                residual_r=np.eye(6),
            )

    def parse(self, mutate):
        data = json.loads(self.build().dumps())
        mutate(data)
        with pytest.raises(ParseError) as exc:
            RealizationDocument.from_dict(data)
        return exc.value

    def test_rejects_empty_stage_list(self):
        assert self.parse(lambda d: d.update(stages=[])).path == "$.stages"

    def test_rejects_stage_with_missing_fields(self):
        err = self.parse(lambda d: d["stages"][1].pop("K"))
        assert err.path == "$.stages[1]"

    def test_rejects_wrong_transform_shape(self):
        err = self.parse(lambda d: d.update(V=[[1.0, 0.0], [0.0, 1.0]]))
        assert err.path == "$.V"

    def test_rejects_bad_digest_type(self):
        assert self.parse(lambda d: d.update(input_digest=7)).path == "$.input_digest"
        with pytest.raises(ValueError, match="input_digest must be a string"):
            RealizationDocument(input_digest=7, stages=self.build().stages)

    def test_rejects_bad_reports(self):
        assert self.parse(lambda d: d.update(reports=[1])).path == "$.reports"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_rejects_reports_it_could_not_write(self, token):
        # json.loads reads NaN and Infinity tokens and turns 1e400 into inf
        text = self.build().dumps().replace('"is_triangular":true', f'"r":{token}')
        assert f'"r":{token}' in text
        with pytest.raises(ParseError) as exc:
            RealizationDocument.loads(text)
        assert exc.value.path == "$.reports" and "finite JSON" in str(exc.value)

    @pytest.mark.parametrize(
        "reports",
        [{"ok": np.bool_(True)}, {"r": float("nan")}, {"r": {"s": {1}}}],
        ids=["numpy-bool", "nan", "set"],
    )
    def test_reports_that_cannot_be_written_are_refused(self, reports):
        doc = self.build()
        with pytest.raises(ValueError, match="reports must be finite JSON"):
            RealizationDocument(doc.input_digest, doc.stages, reports=reports)

    def test_reports_are_held_apart_from_the_caller(self):
        # a nested report changed after construction reaches neither reports nor dumps
        doc = self.build()
        inner = {"r": 0.5}
        held = RealizationDocument(doc.input_digest, doc.stages, reports={"eq": inner})
        text = held.dumps()
        inner["r"] = float("nan")
        assert held.reports == {"eq": {"r": 0.5}}
        assert held.dumps() == text

    def test_rejects_unknown_field(self):
        assert self.parse(lambda d: d.update(zz=1)).path == "$"


def _one_stage_document(v=None, residual_r=None):
    return RealizationDocument(
        input_digest="x", stages=(random_system(1, 2, 0),), v=v, residual_r=residual_r
    )


def _two_stage_chain(residual_r):
    stage = random_system(1, 2, 0)
    return CascadeChain(stages=(stage, stage), residual_r=residual_r)


_COUPLING = np.zeros((4, 4))
_COUPLING[0, 2] = _COUPLING[2, 0] = 1.0

# An array given to a document or a chain, and the error that rejects it.
UNCHECKED_ARRAYS = [
    pytest.param(
        lambda: _one_stage_document(v=np.eye(2) * (1 + 1j)), ValueError, "V must be real",
        id="V-complex",
    ),
    pytest.param(
        lambda: _one_stage_document(v=np.full((2, 2), np.nan)), ValueError,
        "V contains non-finite", id="V-nan",
    ),
    pytest.param(
        lambda: _one_stage_document(v=np.ones(4)), ValueError, "V must be a 2-d", id="V-1d"
    ),
    pytest.param(
        lambda: _one_stage_document(v=np.eye(4)), ValueError, "V must be 2 x 2", id="V-4x4"
    ),
    pytest.param(
        lambda: _one_stage_document(residual_r=1j * np.eye(2)), ValueError,
        "residual_R must be real", id="residual-complex",
    ),
    pytest.param(
        lambda: _one_stage_document(residual_r=np.full((2, 2), np.inf)), ValueError,
        "residual_R contains non-finite", id="residual-inf",
    ),
    pytest.param(
        lambda: _one_stage_document(residual_r=np.zeros((4, 4))), BadResidual,
        "residual must be 2 x 2", id="residual-4x4",
    ),
    pytest.param(
        lambda: SystemDocument(
            form="general", s=np.eye(1), k=np.zeros((1, 2)), r=np.eye(2) * (1 + 1j)
        ),
        ValueError, "R must be real", id="system-R-complex",
    ),
    pytest.param(
        lambda: _two_stage_chain(_COUPLING * (1 + 1j)), ValueError, "residual_R must be real",
        id="chain-residual-complex",
    ),
]


@pytest.mark.parametrize("build, error, message", UNCHECKED_ARRAYS)
def test_rejects_unchecked_array(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestRealizationStages:
    """Stages are decoded for all stages at once; a fault is still named at
    its stage."""

    @staticmethod
    def data():
        chain = random_chain(5, 2, 8)
        return RealizationDocument(input_digest="0", stages=chain.stages).to_dict()

    @pytest.mark.parametrize("index, change, path, message", MALFORMED_STAGES)
    def test_rejects_malformed_stage(self, index, change, path, message):
        data = self.data()
        change(data["stages"][index])
        with pytest.raises(ParseError) as exc:
            RealizationDocument.from_dict(data)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    def test_field_count_change_is_found_by_the_chain(self):
        # stages of mixed field counts form no chain, so no document
        stages = list(random_chain(5, 2, 8).stages)
        stages[3] = random_system(1, 3, 8)
        with pytest.raises(FieldCountMismatch, match="stage 3 has 3 fields, stage 0 has 2"):
            RealizationDocument(input_digest="0", stages=stages)

    def test_decoded_stages_are_read_only_views_of_their_own(self):
        chain = random_chain(4, 3, 9)
        doc = RealizationDocument(input_digest="0", stages=chain.stages)
        loaded = RealizationDocument.loads(doc.dumps())
        for stage, source in zip(loaded.stages, chain.stages):
            for a, b in ((stage.s, source.s), (stage.k, source.k), (stage.r, source.r)):
                assert_bits_equal(a, b)
                with pytest.raises(ValueError):
                    a[0, 0] = 1.0
                with pytest.raises(ValueError):
                    a.setflags(write=True)
                for other in chain.stages:
                    for c in (other.s, other.k, other.r):
                        assert not np.shares_memory(a, c)
            # judged passive at the scale of its chain, not at its own
            fresh = SlhSystem(s=source.s, k=source.k, r=source.r)
            assert stage._passivity == fresh._passivity[:2] + (ref.chain_sigma(chain.stages),)
        assert loaded.to_chain().n == 4

    def test_decoded_stages_arrive_measured(self, count_computations):
        chain = random_chain(6, 3, 11)
        stages = [
            SlhSystem(s=random_unitary(3, j), k=stage.k, r=stage.r)
            for j, stage in enumerate(chain.stages)
        ]
        text = RealizationDocument(input_digest="0", stages=stages).dumps()
        defects, dropped = count_computations("_defects"), count_computations("_dropped")
        loaded = RealizationDocument.loads(text)
        assert loaded.to_chain().n == 6
        assert defects == [] and dropped == []
        # a stage arrives with what it is judged by, the same numbers as the
        # stage measured on its own, at the passivity scale of the chain
        sigma = ref.chain_sigma(stages)
        for stage in loaded.stages:
            fresh = SlhSystem(s=stage.s, k=stage.k, r=stage.r)
            assert stage.__dict__["_defects"] == fresh._defects
            assert stage.__dict__["_passivity"] == fresh._passivity[:2] + (sigma,)
            # what it drops is measured when asked for, and equals the slice
            # of the decoding pass that its passivity figures came from
            assert "_dropped" not in stage.__dict__
            assert stage._dropped == fresh._dropped
            assert stage._dropped[:2] == stage._passivity[:2]
        # once per stage, each time on request
        assert [x for x in dropped if x in loaded.stages] == list(loaded.stages)

    def test_decoded_stages_match_loop_oracle(self):
        # the stages of a realization, and general stages with one R
        # asymmetric at rounding level, measured on decode as the loop over
        # their one column pair and one block measures them
        pf = random_passive_form(5, 3, 12)
        realization = passive_realize(from_passive_form(pf, random_unitary(3, 12)))
        general = random_chain(4, 2, 13).stages
        r = np.array(general[1].r)
        r[0, 1] *= 1.0 + 1e-12
        tilted = SlhSystem(s=general[1].s, k=general[1].k, r=r)
        assert tilted._defects[1] > 0.0
        for stages in (realization.chain.stages, (general[0], tilted, *general[2:])):
            text = RealizationDocument(input_digest="0", stages=stages).dumps()
            for stage in RealizationDocument.loads(text).stages:
                k_defect, r_defect, k_max, r_max = ref.mode_measures_oracle(stage.k, stage.r)
                # measured lazily, the same parts as the decoding slice
                assert "_dropped" not in stage.__dict__
                dropped = stage._dropped
                assert dropped[:2] == stage._passivity[:2]
                assert dropped[1::2] == (r_defect[0, 0], r_max[0, 0])
                for x, y in zip(dropped[0::2], (k_defect[0], k_max[0])):
                    assert abs(x - y) <= 2.3e-16 * y
                whole = ref.dropped_parts(stage.k[None], stage.r[None])
                assert dropped == tuple(float(x[0]) for x in whole)
                assert stage.__dict__["_defects"][1] == abs(stage.r[0, 1] - stage.r[1, 0])

    def test_stages_match_cell_by_cell_decoder(self):
        data = self.data()
        doc = RealizationDocument.from_dict(data)
        for stage, entry in zip(doc.stages, data["stages"]):
            assert_bits_equal(stage.s, ref.decode_complex_matrix(entry["S"], 2, 2))
            assert_bits_equal(stage.k, ref.decode_complex_matrix(entry["K"], 2, 2))
            assert_bits_equal(stage.r, ref.decode_real_matrix(entry["R"], 2, 2))
            with pytest.raises(ValueError):
                stage.r[0, 0] = 1.0


def _stages_with(index, stage):
    """The stages of a three-stage, two-field chain with stage index
    replaced."""
    stages = list(random_chain(3, 2, 21).stages)
    stages[index] = stage
    return stages


def _bent_stage(s_factor, r_shift):
    """The arrays of a one-mode, two-field stage with S scaled by s_factor
    and the 2x2 r_shift added to R, which no SlhSystem may hold."""
    stage = random_system(1, 2, 1)
    return SimpleNamespace(s=s_factor * stage.s, k=stage.k, r=stage.r + np.array(r_shift))


def _bent_residual(*cells):
    """A valid three-mode residual with 1 added to each of cells."""
    residual = np.array(residual_interaction(random_system(3, 2, 22)))
    for cell in cells:
        residual[cell] += 1.0
    return residual


# Stages and a residual that form no chain; the error that making the
# stages, then the document, raises for them; and the ParseError path and
# message that loads gives for their cell-by-cell encoding.
INVALID_CHAINS = [
    pytest.param(
        lambda: (_stages_with(0, random_system(2, 2, 1)), None),
        ValueError, "stage 0 has 2 modes, expected 1",
        "$.stages[0].K[0]", "expected 2 columns, got 4", id="two-mode-stage",
    ),
    pytest.param(
        lambda: ((), None),
        ValueError, "a chain needs at least one stage",
        "$.stages", "expected at least one stage", id="no-stages",
    ),
    pytest.param(
        lambda: (_stages_with(2, random_system(1, 3, 1)), None),
        FieldCountMismatch, "stage 2 has 3 fields, stage 0 has 2",
        "$.stages[2].S", "expected 2 rows, got 3", id="mixed-field-counts",
    ),
    pytest.param(
        lambda: (_stages_with(1, _bent_stage(2.0, np.zeros((2, 2)))), None),
        NonUnitaryScattering, "S fails unitarity at tolerance 1.0e-09",
        "$.stages", "stage 1: S fails unitarity at tolerance 1.0e-09", id="non-unitary-S",
    ),
    pytest.param(
        lambda: (_stages_with(2, _bent_stage(1.0, [[0, 1.0], [0, 0]])), None),
        NonSymmetricR, "R fails symmetry at relative tolerance 1.0e-09",
        "$.stages", "stage 2: R fails symmetry at relative tolerance 1.0e-09", id="asymmetric-R",
    ),
    # finite entries whose residual overflows to inf, or cancels as
    # inf - inf = NaN; warnings are errors in this suite, so none escapes
    pytest.param(
        lambda: (_stages_with(1, _bent_stage(1e200, np.zeros((2, 2)))), None),
        NonUnitaryScattering, "S fails unitarity at tolerance 1.0e-09",
        "$.stages", "stage 1: S fails unitarity at tolerance 1.0e-09", id="non-finite-unitarity",
    ),
    pytest.param(
        lambda: (_stages_with(2, _bent_stage(1.0, [[0, 1.5e308], [-1.5e308, 0]])), None),
        NonSymmetricR, "R fails symmetry at relative tolerance 1.0e-09",
        "$.stages", "stage 2: R fails symmetry at relative tolerance 1.0e-09",
        id="overflowing-asymmetry",
    ),
    pytest.param(
        lambda: (random_chain(3, 2, 21).stages, _bent_residual((0, 4))),
        BadResidual, "residual matrix must be symmetric",
        "$.residual_R", "residual matrix must be symmetric", id="asymmetric-residual",
    ),
    pytest.param(
        lambda: (random_chain(3, 2, 21).stages, _bent_residual((2, 3), (3, 2))),
        BadResidual, "residual diagonal block 1 must be zero",
        "$.residual_R", "residual diagonal block 1 must be zero", id="diagonal-block-residual",
    ),
]


class TestRealizationChain:
    """A realization document holds one checked CascadeChain: what does not
    form a chain is neither built nor read."""

    @pytest.mark.parametrize("make, error, message, path, parse_message", INVALID_CHAINS)
    def test_construction_rejects(self, make, error, message, path, parse_message):
        stages, residual = make()
        with pytest.raises(error) as exc:
            # a stage that is not a system fails as it is made
            stages = [SlhSystem(s=stage.s, k=stage.k, r=stage.r) for stage in stages]
            RealizationDocument(input_digest="0", stages=stages, residual_r=residual)
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, error, message, path, parse_message", INVALID_CHAINS)
    def test_loads_rejects(self, make, error, message, path, parse_message):
        stages, residual = make()
        # no document can hold them, so the oracle encoder writes their JSON
        doc = SimpleNamespace(
            input_digest="0", stages=stages, v=None, residual_r=residual, reports={}
        )
        with pytest.raises(ParseError) as exc:
            RealizationDocument.loads(ref.realization_json(doc))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {parse_message}"

    def test_to_chain_is_the_checked_chain(self, monkeypatch):
        stages = random_chain(4, 2, 23).stages
        residual = residual_interaction(random_system(4, 2, 24))
        built, reads = [], []
        check_chain = CascadeChain.__post_init__

        def recording_chain(chain):
            built.append(chain)
            check_chain(chain)

        def recording_reads(name):
            # a data descriptor, so that a value held in the instance
            # dictionary is read through it too
            compute = SlhSystem.__dict__[name].func

            def read(system):
                reads.append((name, system))
                if name not in system.__dict__:
                    system.__dict__[name] = compute(system)
                return system.__dict__[name]

            return property(read)

        monkeypatch.setattr(CascadeChain, "__post_init__", recording_chain)
        for name in ("_defects", "_dropped"):
            monkeypatch.setattr(SlhSystem, name, recording_reads(name))
        # the stages are systems, checked when they were made, so neither
        # building a document nor reading one reads a stage residual
        doc = RealizationDocument(input_digest="0", stages=stages, residual_r=residual)
        assert len(built) == 1 and reads == []
        chain = doc.to_chain()
        assert chain is built[0] and doc.to_chain() is chain
        assert doc.stages is chain.stages and doc.residual_r is chain.residual_r
        text = doc.dumps()
        loaded = RealizationDocument.loads(text)
        assert len(built) == 2 and reads == []
        assert loaded.to_chain() is built[1] and loaded.dumps() == text
        assert len(built) == 2 and reads == []

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        with_v=st.booleans(),
        with_residual=st.booleans(),
        odd_stage=st.sampled_from([None, None, (2, 0), (1, 1)]),
    )
    def test_every_document_round_trips(self, n, m, seed, with_v, with_residual, odd_stage):
        # odd_stage, when drawn, replaces a random stage by one with that
        # many modes and that many more fields, which most often is no chain
        rng = np.random.default_rng(seed)
        stages = list(random_chain(n, m, rng).stages)
        if odd_stage is not None:
            modes, more_fields = odd_stage
            stages[rng.integers(n)] = random_system(modes, m + more_fields, rng)
        v = random_symplectic_orthogonal(n, rng) if with_v else None
        residual = residual_interaction(random_system(n, m, rng)) if with_residual else None
        try:
            doc = RealizationDocument(
                input_digest="0" * 64, stages=stages, v=v, residual_r=residual, reports={}
            )
        except (ValueError, FieldCountMismatch):
            assert odd_stage is not None
            return
        text = doc.dumps()
        loaded = RealizationDocument.loads(text)
        assert loaded.dumps() == text and loaded.digest() == doc.digest()
        for stage, original in zip(loaded.stages, doc.stages, strict=True):
            for name in ("s", "k", "r"):
                assert_bits_equal(getattr(stage, name), getattr(original, name))
        for name in ("v", "residual_r"):
            if getattr(doc, name) is None:
                assert getattr(loaded, name) is None
            else:
                assert_bits_equal(getattr(loaded, name), getattr(doc, name))


class TestCodecOracle:
    """Documents against the cell-by-cell encoders and decoders in
    reference_data: the same bytes out, the same bits back."""

    def check_system(self, doc):
        text = doc.dumps()
        assert text == ref.system_json(doc)
        again = SystemDocument.loads(text)
        for name in ("s", "k", "r", "k_tilde", "r_tilde"):
            if getattr(doc, name) is not None:
                assert_bits_equal(getattr(again, name), getattr(doc, name))

    def check_realization(self, doc):
        text = doc.dumps()
        assert text == ref.realization_json(doc)
        again = RealizationDocument.loads(text)
        for stage, original in zip(again.stages, doc.stages, strict=True):
            for name in ("s", "k", "r"):
                assert_bits_equal(getattr(stage, name), getattr(original, name))
        for name in ("v", "residual_r"):
            if getattr(doc, name) is not None:
                assert_bits_equal(getattr(again, name), getattr(doc, name))

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_system_documents(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 1 + seed % 5, 1 + seed % 3
        self.check_system(SystemDocument.from_system(random_system(n, m, rng)))
        pf = random_passive_form(n, m, rng)
        self.check_system(SystemDocument.from_passive(pf, random_unitary(m, rng)))

    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (3, 2, 1), (6, 3, 2), (128, 4, 3)])
    def test_seeded_realization_documents(self, n, m, seed):
        rng = np.random.default_rng(seed)
        doc = RealizationDocument(
            input_digest="0" * 64,
            stages=random_chain(n, m, rng).stages,
            v=random_symplectic_orthogonal(n, rng),
            residual_r=residual_interaction(random_system(n, m, rng)) if seed % 2 else None,
            reports={"seed": seed},
        )
        self.check_realization(doc)

    def test_edge_values(self):
        rng = np.random.default_rng(5)
        # a symmetric R: every edge value in the upper triangle, mirrored
        upper = np.triu(np.ones((6, 6), dtype=bool))
        r = np.zeros((6, 6))
        r[upper] = rng.permutation(np.resize(EDGE_VALUES, 21))
        r = np.where(upper, r, r.T)
        assert np.isin(EDGE_VALUES.view(np.uint64), r.view(np.uint64)).all()
        assert np.array_equal(r.view(np.uint64), r.T.view(np.uint64))
        k = (
            rng.permutation(np.resize(EDGE_VALUES, 12))
            + 1j * rng.permutation(np.resize(EDGE_VALUES, 12))
        ).reshape(2, 6)
        k[0, 0] = complex(-0.0, -0.0)
        self.check_system(SystemDocument(form="general", s=np.eye(2), k=k, r=r))
        stage = SlhSystem(s=np.eye(2) * -1.0, k=k[:, :2], r=r[:2, :2])
        self.check_realization(
            RealizationDocument(input_digest="x", stages=(stage,), v=r[:2, :2])
        )

    def test_integer_cells(self):
        cells = [1, -2, 0, 2**53 + 1, -(2**63), 10**300]
        data = {
            "schema_version": "1",
            "form": "general",
            "n": 1,
            "m": 1,
            "S": [[[1, 0]]],
            "K": [[cells[0:2], cells[2:4]]],
            "R": [cells[2:4], cells[4:6]],
        }
        doc = SystemDocument.loads(json.dumps(data))
        assert_bits_equal(doc.s, ref.decode_complex_matrix(data["S"], 1, 1))
        assert_bits_equal(doc.k, ref.decode_complex_matrix(data["K"], 1, 2))
        assert_bits_equal(doc.r, ref.decode_real_matrix(data["R"], 2, 2))
        assert doc.dumps() == ref.system_json(doc)
        assert '"S":[[[1.0,0.0]]]' in doc.dumps()

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 2), (2, 0)])
    def test_empty_dimensions(self, n, m):
        doc = SystemDocument(
            form="general",
            s=np.eye(m),
            k=np.zeros((m, 2 * n), dtype=complex),
            r=np.eye(2 * n),
        )
        self.check_system(doc)
        stage = SlhSystem(s=np.eye(m), k=np.zeros((m, 2)), r=np.eye(2))
        self.check_realization(
            RealizationDocument(input_digest="x", stages=(stage,), v=np.eye(2))
        )


# One part of a complex number: a zero of either sign, a subnormal, a number
# of magnitude 1e-300 to 1e300 of either sign, or an integral value.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
    st.integers(-(2**60), 2**60).map(float),
)
REPLACEMENTS = st.lists(st.tuples(st.integers(0, 24), st.booleans(), PARTS), max_size=20)


def _replaced(u, replacements):
    """A copy of the complex matrix u with each (cell, imaginary, value) of
    replacements written into the real or imaginary part of its flat cell
    cell % u.size.  The parts are written through a float view, never as
    re + 1j * im, which would turn a -0.0 real part into 0.0."""
    u = u.copy()
    parts = u.view(float).reshape(-1, 2)
    for cell, imaginary, value in replacements:
        parts[cell % len(parts), int(imaginary)] = value
    return u


class TestRealifiedV:
    """dumps writes V from U when V is realify(U) bit for bit, and every V
    by the same bytes as canonical_json(to_dict())."""

    @staticmethod
    def document(v, n, seed):
        rng = np.random.default_rng(seed)
        return RealizationDocument(
            input_digest="0" * 64,
            stages=random_chain(n, 2, rng).stages,
            v=v,
            residual_r=residual_interaction(random_system(n, 2, rng)) if seed % 2 else None,
            reports={"seed": seed},
        )

    @staticmethod
    def check(doc):
        text = doc.dumps()
        assert text == canonical_json(doc.to_dict())
        assert text == ref.realization_json(doc)
        assert doc.digest() == ref.document_digest(doc.to_dict())
        loaded = RealizationDocument.loads(text)
        assert loaded.dumps() == text
        if doc.v is not None:
            assert_bits_equal(loaded.v, doc.v)

    def test_frozen_digest(self):
        assert _realified_pieces(FROZEN_REALIZATION.v) is not None
        assert FROZEN_REALIZATION.digest() == FROZEN_REALIZATION_DIGEST
        self.check(FROZEN_REALIZATION)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), replacements=REPLACEMENTS)
    def test_realified_v(self, n, seed, replacements):
        v = realify(_replaced(random_unitary(n, seed), replacements))
        assert _realified_pieces(v) is not None
        self.check(self.document(v, n, seed))

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        replacements=REPLACEMENTS,
        cell=st.integers(0, 99),
    )
    def test_v_with_one_cell_changed(self, n, seed, replacements, cell):
        v = realify(_replaced(random_unitary(n, seed), replacements))
        i, j = divmod(cell % v.size, v.shape[1])
        was_zero = v[i, j] == 0.0
        # a zero's sign flipped, any other number moved by one ulp
        v[i, j] = -v[i, j] if was_zero else np.nextafter(v[i, j], np.inf)
        # 0.0 - im is +0.0 for a zero im of either sign, so only the sign
        # of a zero in V[1::2, 0::2] leaves V a realification
        still = was_zero and i % 2 == 1 and j % 2 == 0
        assert (_realified_pieces(v) is not None) == still
        self.check(self.document(v, n, seed))

    def test_cells_that_break_the_realification(self):
        v = realify(random_unitary(3, 4))
        off = v.copy()
        off[2, 5] = np.nextafter(off[2, 5], np.inf)
        # realify writes 0.0 - Im, never -0.0, in V[0::2, 1::2]
        signed = realify(np.eye(3, dtype=complex))
        signed[0, 3] = -0.0
        for changed in (off, signed):
            assert _realified_pieces(changed) is None
            self.check(self.document(changed, 3, 1))

    @pytest.mark.parametrize("n", [1, 4])
    def test_documents_without_v(self, n):
        self.check(self.document(None, n, n))
        self.check(self.document(np.random.default_rng(n).standard_normal((2 * n, 2 * n)), n, n))

    def test_empty_v(self):
        # an empty V belongs to a document with no stages, which is no chain
        with pytest.raises(ValueError, match="a chain needs at least one stage"):
            RealizationDocument(input_digest="x", stages=(), v=np.zeros((0, 0)))

    def test_realized_v_round_trips_bit_for_bit(self):
        system = from_passive_form(random_passive_form(16, 3, 7), random_unitary(3, 8))
        realization = passive_realize(system)
        doc = RealizationDocument(
            input_digest="0" * 64, stages=realization.chain.stages, v=realization.transform.v
        )
        assert _realified_pieces(doc.v) is not None
        self.check(doc)
        assert_bits_equal(RealizationDocument.loads(doc.dumps()).v, realization.transform.v)

    def test_stages_of_mixed_shapes_never_reach_the_encoder(self):
        # read at the field count of stage 0, they are no document to encode
        data = TestRealizationStages.data()
        _three_fields(data["stages"][3])
        data["stages"][3]["K"].append([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ParseError) as exc:
            RealizationDocument.from_dict(data)
        assert str(exc.value) == "$.stages[3].S: expected 2 rows, got 3"
