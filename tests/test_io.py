"""JSON document encoding, decoding, digests, and schema validation."""

import json
import sys

import numpy as np
import pytest

from cascade_synth import (
    BadResidual,
    CascadeChain,
    FieldCountMismatch,
    ParseError,
    RealizationDocument,
    SlhSystem,
    SystemDocument,
    canonical_json,
    cascade,
    document_digest,
    from_passive_form,
    max_abs,
)
from cascade_synth import model
from cascade_synth.model import _as_matrix as as_matrix, is_hermitian
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
# the ParseError path and message the stage-by-stage decoder gave for it.
MALFORMED_STAGES = [
    pytest.param(3, _three_fields, "$.stages[3].K", "expected 3 rows, got 2", id="m-changes"),
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

        data = {"a": 1}
        expected = hashlib.sha256(b'{"a":1}').hexdigest()
        assert document_digest(data) == expected


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

        def recording(pf, s, tol_sym):
            calls.append(pf)
            return from_passive_form(pf, s, tol_sym)

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
        assert system.validate() is system

    def test_hermiticity_is_checked_once_per_read(self, monkeypatch):
        calls = []

        def recording(a, tol):
            calls.append(tol)
            return is_hermitian(a, tol)

        for name, module in list(sys.modules.items()):
            if name.startswith("cascade_synth") and getattr(
                module, "is_hermitian", None
            ) is is_hermitian:
                monkeypatch.setattr(module, "is_hermitian", recording)
        doc = SystemDocument.from_passive(
            random_passive_form(3, 2, 6), s=np.eye(2, dtype=complex)
        )
        text = doc.dumps()
        calls.clear()
        SystemDocument.loads(text)
        assert calls == [1e-9]
        data = json.loads(text)
        data["R_tilde"][0][1] = [99.0, 0.0]
        calls.clear()
        with pytest.raises(ParseError) as exc:
            SystemDocument.from_dict(data)
        assert calls == [1e-9] and exc.value.path == "$.R_tilde"
        assert str(exc.value) == "$.R_tilde: R_tilde must be Hermitian within 1.0e-09 of |R_tilde|_max"

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
        doc = self.build(with_optional=False)
        bad = RealizationDocument(
            input_digest=doc.input_digest,
            stages=doc.stages,
            residual_r=np.eye(6),
        )
        with pytest.raises(BadResidual):
            bad.to_chain()

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

    def test_rejects_bad_reports(self):
        assert self.parse(lambda d: d.update(reports=[1])).path == "$.reports"

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

# An array given to a document or a chain, and the ValueError that rejects it.
UNCHECKED_ARRAYS = [
    pytest.param(
        lambda: _one_stage_document(v=np.eye(2) * (1 + 1j)), "V must be real", id="V-complex"
    ),
    pytest.param(
        lambda: _one_stage_document(v=np.full((2, 2), np.nan)), "V contains non-finite",
        id="V-nan",
    ),
    pytest.param(lambda: _one_stage_document(v=np.ones(4)), "V must be a 2-d", id="V-1d"),
    pytest.param(lambda: _one_stage_document(v=np.eye(4)), "V must be 2 x 2", id="V-4x4"),
    pytest.param(
        lambda: _one_stage_document(residual_r=1j * np.eye(2)), "residual_R must be real",
        id="residual-complex",
    ),
    pytest.param(
        lambda: _one_stage_document(residual_r=np.full((2, 2), np.inf)),
        "residual_R contains non-finite", id="residual-inf",
    ),
    pytest.param(
        lambda: _one_stage_document(residual_r=np.zeros((4, 4))), "residual_R must be 2 x 2",
        id="residual-4x4",
    ),
    pytest.param(
        lambda: SystemDocument(
            form="general", s=np.eye(1), k=np.zeros((1, 2)), r=np.eye(2) * (1 + 1j)
        ),
        "R must be real", id="system-R-complex",
    ),
    pytest.param(
        lambda: _two_stage_chain(_COUPLING * (1 + 1j)), "residual_R must be real",
        id="chain-residual-complex",
    ),
]


@pytest.mark.parametrize("build, message", UNCHECKED_ARRAYS)
def test_rejects_unchecked_array(build, message):
    with pytest.raises(ValueError, match=message):
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
        data = self.data()
        stage = data["stages"][3]
        _three_fields(stage)
        stage["K"].append([[0.5, 0.0], [0.0, 0.5]])
        doc = RealizationDocument.from_dict(data)
        assert [st.m for st in doc.stages] == [2, 2, 2, 3, 2]
        with pytest.raises(FieldCountMismatch):
            doc.to_chain()

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
            # judged at its own scale, as a freshly constructed system is
            fresh = SlhSystem(s=source.s, k=source.k, r=source.r)
            assert stage._passivity == fresh._passivity
        assert loaded.to_chain().n == 4

    def test_stages_match_cell_by_cell_decoder(self):
        data = self.data()
        doc = RealizationDocument.from_dict(data)
        for stage, entry in zip(doc.stages, data["stages"]):
            assert_bits_equal(stage.s, ref.decode_complex_matrix(entry["S"], 2, 2))
            assert_bits_equal(stage.k, ref.decode_complex_matrix(entry["K"], 2, 2))
            assert_bits_equal(stage.r, ref.decode_real_matrix(entry["R"], 2, 2))
            with pytest.raises(ValueError):
                stage.r[0, 0] = 1.0


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
            residual_r=rng.standard_normal((2 * n, 2 * n)) if seed % 2 else None,
            reports={"seed": seed},
        )
        self.check_realization(doc)

    def test_edge_values(self):
        rng = np.random.default_rng(5)
        r = rng.permutation(np.resize(EDGE_VALUES, 36)).reshape(6, 6)
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
