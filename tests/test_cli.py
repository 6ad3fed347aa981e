"""End-to-end CLI behavior: payloads, exit codes, files, environment."""

import ast
import contextlib
import hashlib
import json
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import cascade_synth
from cascade_synth import (
    CascadeChain,
    RealizationDocument,
    SlhSystem,
    SystemDocument,
    build_state_space,
    canonical_json,
    cascade,
    certify_realization,
    is_passive,
    max_abs,
    passive_realize,
    transfer_function,
)
from cascade_synth import cli, passive
from cascade_synth.cli import main
from cascade_synth.sampling import random_chain, random_passive_form, random_system, random_unitary
from cascade_synth.verification import EQUIVALENCE_SAMPLES, EQUIVALENCE_TOL
from test_model import SCALES, bumped_passive, coupled_system, rounded_hermitian, zero_mode_system
from test_passive import failing_zgees, near_passive

import reference_data as ref


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc.dumps())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def cascade_doc(tmp_path):
    chain = random_chain(3, 2, 40)
    combined = cascade(chain)
    doc = SystemDocument.from_system(combined)
    return write_doc(tmp_path, "cascade.json", doc), combined, doc


@pytest.fixture
def reference_doc(tmp_path, reference_passive_form):
    doc = SystemDocument.from_passive(
        reference_passive_form, s=np.eye(2, dtype=complex)
    )
    return write_doc(tmp_path, "reference.json", doc), doc


class TestCheck:
    def test_realizable_system(self, capsys, cascade_doc):
        path, _, _ = cascade_doc
        code, payload = run_cli(capsys, "check", path)
        assert code == 0
        assert payload["is_triangular"] is True
        assert set(payload) == {
            "is_triangular",
            "max_upper_residual",
            "tolerance_used",
            "scale",
        }

    def test_non_realizable_system(self, capsys, reference_doc):
        path, _ = reference_doc
        code, payload = run_cli(capsys, "check", path)
        assert code == 2
        assert payload["is_triangular"] is False
        assert payload["max_upper_residual"] > 1.0

    def test_tolerance_flag(self, capsys, reference_doc):
        path, _ = reference_doc
        code, payload = run_cli(capsys, "check", path, "--tol", "1e6")
        assert code == 0 and payload["tolerance_used"] == 1e6

    def test_missing_file(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1 and payload["kind"] == "parse"

    def test_invalid_document(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 1 and payload["kind"] == "parse"

    def test_non_hermitian_r_tilde_is_named(self, capsys, tmp_path):
        # the fault is reported at R_tilde, which the document holds
        path = tmp_path / "leaning.json"
        path.write_text(json.dumps(ref.leaning_passive_data()))
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 1 and payload["kind"] == "parse"
        assert payload["error"].startswith("$.R_tilde: R_tilde must be Hermitian")

    def test_integer_beyond_binary64_is_parse_error(self, capsys, tmp_path, cascade_doc):
        _, _, doc = cascade_doc
        data = json.loads(doc.dumps())
        data["R"][1][0] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, payload = run_cli(capsys, "check", str(path))
        assert code == 1
        assert payload == {"error": "$.R[1][0]: expected a real number", "kind": "parse"}

    @pytest.mark.parametrize("command", ["check", "decompose", "passive-realize"])
    def test_zero_mode_system_is_input_error(self, capsys, tmp_path, command):
        doc = SystemDocument.from_system(ref.identity_system(2))
        code, payload = run_cli(capsys, command, write_doc(tmp_path, "empty.json", doc))
        assert code == 1 and payload["kind"] == "input"

    @pytest.mark.parametrize(
        "command, extra",
        [
            pytest.param("check", (), id="check"),
            pytest.param("decompose", (), id="decompose"),
            pytest.param("passive-realize", (), id="passive-realize"),
            pytest.param("tf", ("--points", "1+1j"), id="tf"),
            pytest.param("verify", (None,), id="verify"),
        ],
    )
    def test_overflowing_scale_is_numeric(self, capsys, tmp_path, command, extra):
        doc = SystemDocument.from_system(coupled_system(1e160))
        path = write_doc(tmp_path, "overflow.json", doc)
        # verify compares the document with itself
        code = main([command, path, *(path if arg is None else arg for arg in extra)])
        captured = capsys.readouterr()
        # exactly one JSON object on stdout, and no warning on stderr (the
        # test settings turn warnings into errors, as python -W error does)
        payload = json.loads(captured.out)
        assert captured.err == ""
        assert code == 4 and payload["kind"] == "numeric"
        assert "is not finite" in payload["error"]


class TestDecompose:
    def test_writes_realization(self, capsys, tmp_path, cascade_doc):
        path, combined, doc = cascade_doc
        out = tmp_path / "realization.json"
        code, payload = run_cli(capsys, "decompose", path, "--out", str(out))
        assert code == 0
        assert payload["input_digest"] == doc.digest()
        assert len(payload["stages"]) == 3
        assert "V" not in payload and "residual_R" not in payload
        assert payload["reports"]["triangularity"]["is_triangular"] is True

        stored = RealizationDocument.loads(out.read_text())
        rebuilt = cascade(stored.to_chain())
        assert max_abs(rebuilt.s - combined.s) <= 1e-10
        assert max_abs(rebuilt.k - combined.k) <= 1e-10
        assert max_abs(rebuilt.r - combined.r) <= 1e-10

    def test_refuses_non_realizable_passive_system(self, capsys, reference_doc):
        path, _ = reference_doc
        code, payload = run_cli(capsys, "decompose", path)
        assert code == 2
        assert payload["suggestion"] == "passive-realize"
        assert payload["triangularity"]["is_triangular"] is False

    def test_refuses_non_realizable_active_system(self, capsys, tmp_path):
        sys_ = random_system(2, 2, 77)
        path = write_doc(tmp_path, "active.json", SystemDocument.from_system(sys_))
        code, payload = run_cli(capsys, "decompose", path)
        assert code == 2
        assert "suggestion" not in payload


def bent_document(tmp_path, doc, fault):
    """The JSON of doc, a general-form document, with S doubled (fault "S")
    or with 0.5 added to R[2][0], below the block diagonal, and not to its
    mirror R[0][2] (fault "R")."""
    data = doc.to_dict()
    if fault == "S":
        data["S"] = [[[2.0 * x for x in cell] for cell in row] for row in data["S"]]
    else:
        data["R"][2][0] += 0.5
    path = tmp_path / f"bent-{fault}.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestInvalidSystem:
    """A document that holds no system, with an S that is not unitary or an
    R that is not symmetric, is a parse error at the matrix at fault, and no
    command gives a verdict on it or writes a realization of it."""

    ERRORS = {
        "S": "$.S: S fails unitarity at tolerance 1.0e-09",
        "R": "$.R: R fails symmetry at relative tolerance 1.0e-09",
    }

    @pytest.mark.parametrize("fault", ["S", "R"])
    @pytest.mark.parametrize("command", ["check", "decompose", "passive-realize", "tf", "verify"])
    def test_every_command_refuses(self, capsys, tmp_path, cascade_doc, fault, command):
        valid, _, doc = cascade_doc
        path = bent_document(tmp_path, doc, fault)
        out = tmp_path / "realization.json"
        extra = {
            "decompose": ["--out", str(out)],
            "passive-realize": ["--out", str(out)],
            "tf": ["--points", "1+1j"],
            "verify": [valid],
        }
        code, payload = run_cli(capsys, command, path, *extra.get(command, []))
        assert code == 1
        assert payload == {"error": self.ERRORS[fault], "kind": "parse"}
        assert not out.exists()

    def test_verify_reads_both_documents(self, capsys, tmp_path, cascade_doc):
        valid, _, doc = cascade_doc
        code, payload = run_cli(capsys, "verify", valid, bent_document(tmp_path, doc, "R"))
        assert code == 1 and payload == {"error": self.ERRORS["R"], "kind": "parse"}


class TestPassiveRealize:
    def test_full_pipeline(self, capsys, tmp_path, reference_doc):
        path, doc = reference_doc
        out = tmp_path / "realized.json"
        code, payload = run_cli(
            capsys, "passive-realize", path, "--out", str(out), "--seed", "3"
        )
        assert code == 0
        assert payload["input_digest"] == doc.digest()
        reports = payload["reports"]
        assert reports["triangularity"]["is_triangular"] is True
        assert reports["symplectic_residual"] <= 1e-9
        assert reports["equivalence"]["verdict"] is True
        assert reports["equivalence"]["seed"] == 3
        assert reports["stages_passive"] is True
        assert reports["chain_residual"] <= 1e-12
        assert len(payload["V"]) == 4

        stored = RealizationDocument.loads(out.read_text())
        assert stored.digest() == RealizationDocument.from_dict(payload).digest()
        levels = sorted(stage.r[0, 0] for stage in stored.to_chain().stages)
        assert max_abs(np.array(levels) - sorted(ref.STAGE_LEVELS)) <= 1e-3

    @pytest.mark.parametrize("tol, seed", [(None, 0), ("1e-6", 3), ("1e-15", 1)])
    def test_reports_are_the_certificate(self, capsys, reference_doc, tol, seed):
        path, doc = reference_doc
        argv = ["passive-realize", path, "--seed", str(seed)]
        argv += [] if tol is None else ["--tol", tol]
        code, payload = run_cli(capsys, *argv)
        system = doc.to_system()
        structural = 1e-9 if tol is None else float(tol)
        realization = passive_realize(system, structural)
        certificate = certify_realization(system, realization, structural, seed)
        assert payload["reports"] == asdict(certificate)
        assert code == (2 if certificate.failed else 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_stage_verdicts_survive_the_document(self, capsys, tmp_path, seed):
        # a decoupled mode of zero frequency leaves a stage that is zero up
        # to rounding, which is passive at its chain's scale only
        doc = SystemDocument.from_system(zero_mode_system(seed))
        code, payload = run_cli(capsys, "passive-realize", write_doc(tmp_path, "z.json", doc))
        loaded = RealizationDocument.from_dict(payload)
        stages_passive = payload["reports"]["stages_passive"]
        assert code == 0 and stages_passive is True
        assert all(is_passive(stage) for stage in loaded.stages) is stages_passive

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (5, 2), (8, 3)])
    def test_defective_mode_matrix_realizes(self, capsys, tmp_path, n, seed):
        # M is one rotated Jordan block: one eigenvalue, one eigenvector
        r_tilde, k_tilde = ref.defective_passive_form(n, random_unitary(n, seed))
        doc = SystemDocument(
            form="passive",
            s=random_unitary(n, seed + 1),
            k_tilde=k_tilde,
            r_tilde=(r_tilde + r_tilde.conj().T) / 2,
        )
        code, payload = run_cli(capsys, "passive-realize", write_doc(tmp_path, "d.json", doc))
        reports = payload["reports"]
        assert code == 0 and reports["stages_passive"] is True
        assert reports["triangularity"]["is_triangular"] is True
        assert reports["equivalence"]["max_rel_mismatch"] <= 1e-12
        for stage in RealizationDocument.from_dict(payload).stages:
            assert stage._passivity[:2] == (0.0, 0.0)

    @pytest.mark.parametrize("parts", ["k", "r"])
    def test_passive_within_a_loose_tolerance_realizes(self, capsys, tmp_path, parts):
        # a creation coupling or a non-scalar R block of ~1e-7 of the
        # passivity scale: passive at --tol 1e-6, and the realization keeps
        # that part, so its transfer function is the input's to rounding
        doc = SystemDocument.from_system(near_passive(3, 2, 4, 1e-7, parts))
        path = write_doc(tmp_path, "near.json", doc)
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 3 and payload["kind"] == "precondition"
        code, payload = run_cli(capsys, "passive-realize", path, "--tol", "1e-6")
        assert code == 0 and payload["reports"]["equivalence"]["max_rel_mismatch"] <= 1e-12

    def test_rejects_non_passive_system(self, capsys, tmp_path):
        sys_ = random_system(2, 2, 77)
        path = write_doc(tmp_path, "active.json", SystemDocument.from_system(sys_))
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 3 and payload["kind"] == "precondition"

    @pytest.mark.parametrize("c", [1e-9, 1.0])
    def test_small_non_passive_part_is_precondition(self, capsys, tmp_path, c):
        _, bumped = bumped_passive(c)
        path = write_doc(tmp_path, "bumped.json", SystemDocument.from_system(bumped))
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 3 and payload["kind"] == "precondition"

    def test_zero_frequency_mode_realizes(self, capsys, tmp_path):
        # the stage of the decoupled mode is zero up to the system's rounding
        path = write_doc(tmp_path, "zero.json", SystemDocument.from_system(zero_mode_system(0)))
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 0 and payload["reports"]["stages_passive"] is True

    @pytest.mark.parametrize("c", SCALES)
    def test_hermiticity_is_judged_at_the_scale_of_r_tilde(self, capsys, tmp_path, c):
        r_tilde, k_tilde = rounded_hermitian(c)
        doc = SystemDocument(form="passive", s=np.eye(1), k_tilde=k_tilde, r_tilde=r_tilde)
        code, payload = run_cli(capsys, "passive-realize", write_doc(tmp_path, "h.json", doc))
        assert code == 0 and payload["reports"]["equivalence"]["verdict"] is True
        data = doc.to_dict()
        data["R_tilde"][0][1][0] += 0.1 * max_abs(r_tilde)
        path = tmp_path / "bent.json"
        path.write_text(json.dumps(data))
        code, payload = run_cli(capsys, "passive-realize", str(path))
        assert code == 1 and payload["kind"] == "parse"
        assert payload["error"].startswith("$.R_tilde: R_tilde must be Hermitian")

    def test_schur_failure_is_numeric(self, capsys, monkeypatch, reference_doc):
        monkeypatch.setattr(passive, "_zgees", lambda: failing_zgees(1))
        path, _ = reference_doc
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 4 and payload["kind"] == "numeric"
        assert "failed to converge" in payload["error"]

    def test_drift_of_realized_system_never_formed(self, capsys, drift_calls, reference_doc):
        # triangularity and the certificate's scale are read from
        # R + Im(K^dag K); a passive pair is certified without a state space
        path, _ = reference_doc
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 0
        assert payload["reports"]["triangularity"]["is_triangular"] is True
        assert drift_calls == []

    @staticmethod
    def _bent_stage(realization):
        first, *rest = realization.chain.stages
        bent = SlhSystem(s=first.s, k=1.01 * first.k, r=first.r)
        return realization._replace(chain=CascadeChain(stages=(bent, *rest)))

    @staticmethod
    def _shifted_system(realization):
        system = realization.system
        shifted = SlhSystem(s=system.s, k=system.k, r=system.r + 1e-3 * np.eye(2 * system.n))
        return realization._replace(system=shifted)

    @pytest.mark.parametrize(
        "corrupt, equivalent",
        [("_bent_stage", True), ("_shifted_system", False)],
    )
    def test_emitted_stages_and_system_are_both_certified(
        self, capsys, monkeypatch, reference_doc, corrupt, equivalent
    ):
        # stages that no longer cascade to the transformed system, or a
        # transformed system that no longer matches the input, fail the run
        def realize(system, tol):
            return getattr(self, corrupt)(passive_realize(system, tol))

        monkeypatch.setattr(cli, "passive_realize", realize)
        path, _ = reference_doc
        code, payload = run_cli(capsys, "passive-realize", path)
        reports = payload["reports"]
        assert code == 2
        assert reports["equivalence"]["verdict"] is equivalent
        assert reports["chain_residual"] > 1e-9


class TestStdout:
    """stdout is one line of canonical JSON, and a realization command
    prints exactly the bytes it writes to --out."""

    @pytest.mark.parametrize("command", ["decompose", "passive-realize"])
    def test_realization_stdout_is_the_out_file(
        self, capsys, tmp_path, cascade_doc, reference_doc, command
    ):
        path = cascade_doc[0] if command == "decompose" else reference_doc[0]
        out = tmp_path / "out.json"
        assert main([command, path, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.encode("utf-8") == out.read_bytes()
        digest = hashlib.sha256(stdout.removesuffix("\n").encode("utf-8")).hexdigest()
        assert digest == RealizationDocument.loads(stdout).digest()

    @pytest.mark.parametrize("command", ["decompose", "passive-realize"])
    def test_unwritable_out_is_an_input_error(
        self, capsys, tmp_path, cascade_doc, reference_doc, command
    ):
        path = cascade_doc[0] if command == "decompose" else reference_doc[0]
        out = tmp_path / "missing" / "out.json"
        # run_cli reads exactly one JSON object: the error, with no document
        code, payload = run_cli(capsys, command, path, "--out", str(out))
        assert code == 1 and set(payload) == {"error", "kind"} and payload["kind"] == "input"
        assert payload["error"].startswith(f"cannot write {out}: ")
        assert not out.parent.exists()

    def test_every_payload_is_one_canonical_line(
        self, capsys, tmp_path, cascade_doc, reference_doc
    ):
        path, _, _ = cascade_doc
        passive_path, _ = reference_doc
        for argv in (
            ["check", path],
            ["decompose", passive_path],
            ["tf", path, "--points", "1+2j,0.5"],
            ["verify", path, path],
            ["check", str(tmp_path / "absent.json")],
            ["frobnicate"],
        ):
            with contextlib.suppress(SystemExit):  # argparse exits on a bad command
                main(argv)
            out = capsys.readouterr().out
            assert out == canonical_json(json.loads(out)) + "\n"


class TestTf:
    def test_samples_match_library(self, capsys, cascade_doc):
        path, combined, _ = cascade_doc
        code, payload = run_cli(capsys, "tf", path, "--points", "1+2j, 0.75")
        assert code == 0
        samples = payload["samples"]
        assert len(samples) == 2
        points = (1 + 2j, 0.75 + 0j)
        expected = transfer_function(build_state_space(combined), points)
        for entry, point, value in zip(samples, points, expected):
            assert entry["s"] == [point.real, point.imag]
            decoded = np.array(
                [[complex(re, im) for re, im in row] for row in entry["value"]]
            )
            assert max_abs(decoded - value) == 0.0

    def test_rejects_unparseable_points(self, capsys, cascade_doc):
        path, _, _ = cascade_doc
        code, payload = run_cli(capsys, "tf", path, "--points", "1+2j,zebra")
        assert code == 1 and payload["kind"] == "parse"
        code, payload = run_cli(capsys, "tf", path, "--points", " , ")
        assert code == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400j", "1+nanj"])
    def test_rejects_non_finite_points(self, capsys, cascade_doc, token):
        path, _, _ = cascade_doc
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["tf", path, "--points", f"1+2j,{token}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert json.loads(captured.out) == {
            "error": f"frequency {token!r} is not finite",
            "kind": "parse",
        }

    def test_frequency_on_spectrum_is_numeric_failure(self, capsys, tmp_path):
        sys_ = SlhSystem(
            s=np.eye(1, dtype=complex),
            k=np.array([[1.0, 1.0j]]),
            r=np.zeros((2, 2)),
        )
        path = write_doc(tmp_path, "lossy.json", SystemDocument.from_system(sys_))
        code, payload = run_cli(capsys, "tf", path, "--points", "-2")
        assert code == 4 and payload["kind"] == "numeric"


class TestVerify:
    def test_equivalent_documents(self, capsys, tmp_path, cascade_doc):
        path, combined, _ = cascade_doc
        same = write_doc(tmp_path, "same.json", SystemDocument.from_system(combined))
        code, payload = run_cli(capsys, "verify", path, same, "--samples", "7")
        assert code == 0
        assert payload["verdict"] is True
        assert payload["max_rel_mismatch"] == 0.0
        assert payload["samples_used"] == 7

    def test_detects_mismatch(self, capsys, tmp_path, cascade_doc):
        path, combined, _ = cascade_doc
        bumped = SlhSystem(s=combined.s, k=1.01 * combined.k, r=combined.r)
        other = write_doc(tmp_path, "bumped.json", SystemDocument.from_system(bumped))
        code, payload = run_cli(capsys, "verify", path, other)
        assert code == 2 and payload["verdict"] is False

    def test_scattering_mismatch_is_precondition(self, capsys, tmp_path, cascade_doc):
        path, combined, _ = cascade_doc
        flipped = SlhSystem(s=-combined.s, k=combined.k, r=combined.r)
        other = write_doc(tmp_path, "flip.json", SystemDocument.from_system(flipped))
        code, payload = run_cli(capsys, "verify", path, other)
        assert code == 3 and payload["kind"] == "precondition"

    def test_dimension_mismatch_is_input_error(self, capsys, tmp_path, cascade_doc):
        path, _, _ = cascade_doc
        other = write_doc(
            tmp_path, "small.json", SystemDocument.from_system(random_system(1, 2, 0))
        )
        code, payload = run_cli(capsys, "verify", path, other)
        assert code == 1 and payload["kind"] == "input"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_input_error(self, capsys, tmp_path, cascade_doc, samples):
        path, combined, _ = cascade_doc
        bumped = SlhSystem(s=combined.s, k=1.01 * combined.k, r=combined.r)
        other = write_doc(tmp_path, "bumped.json", SystemDocument.from_system(bumped))
        code, payload = run_cli(capsys, "verify", path, other, "--samples", samples)
        assert code == 1 and payload["kind"] == "input"
        assert "verdict" not in payload


    @pytest.mark.parametrize("fixture", ["cascade_doc", "reference_doc"])
    def test_samples_beyond_memory_are_an_input_error(self, capsys, request, fixture):
        # 10^15 samples ask for 14.2 PiB of sample points at once, which no
        # host grants, so the allocation fails at once, on either route
        path = request.getfixturevalue(fixture)[0]
        code, payload = run_cli(capsys, "verify", path, path, "--samples", "1000000000000000")
        assert code == 1 and payload["kind"] == "input"
        assert "verdict" not in payload


class TestVacuousVerdict:
    """With m = 0 the transfer function is 0 x 0: the verdict holds for any
    two systems of one mode count, and the report says it is vacuous."""

    @staticmethod
    def no_field_docs(tmp_path):
        pfs = [random_passive_form(3, 0, seed) for seed in (1, 2)]
        return [
            write_doc(tmp_path, f"m0_{i}.json", SystemDocument.from_passive(pf, s=np.eye(0)))
            for i, pf in enumerate(pfs)
        ]

    def test_verify(self, capsys, tmp_path, cascade_doc):
        a, b = self.no_field_docs(tmp_path)
        code, payload = run_cli(capsys, "verify", a, b)
        assert code == 0 and payload["verdict"] is True
        assert payload["vacuous"] is True and payload["max_rel_mismatch"] == 0.0
        path, _, _ = cascade_doc
        code, payload = run_cli(capsys, "verify", path, path)
        assert code == 0 and payload["vacuous"] is False

    def test_passive_realize(self, capsys, tmp_path, reference_doc):
        path, _ = self.no_field_docs(tmp_path)
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 0 and payload["reports"]["equivalence"]["vacuous"] is True
        path, _ = reference_doc
        code, payload = run_cli(capsys, "passive-realize", path)
        assert code == 0 and payload["reports"]["equivalence"]["vacuous"] is False


class TestTightTolerance:
    def test_passive_realize_never_reports_an_input_error(self, capsys, tmp_path):
        # U is LAPACK's own Schur unitary and is not tested again, so a
        # tolerance near rounding gives a verdict (exit 0 or 2), never exit 1
        codes = set()
        for seed in range(12):
            pf = random_passive_form(4, 1 + seed % 3, seed)
            doc = SystemDocument.from_passive(pf, s=random_unitary(pf.m, seed))
            path = write_doc(tmp_path, "t.json", doc)
            code, payload = run_cli(capsys, "passive-realize", path, "--tol", "1e-15")
            assert code in (0, 2), payload
            codes.add(code)
        assert codes == {0, 2}

    def test_untriangular_rotation_is_a_verdict(self, capsys, tmp_path):
        pf = random_passive_form(4, 2, 3)
        doc = SystemDocument.from_passive(pf, s=random_unitary(2, 3))
        path = write_doc(tmp_path, "t.json", doc)
        code, payload = run_cli(capsys, "passive-realize", path, "--tol", "1e-18")
        assert code == 2 and payload["triangularity"]["is_triangular"] is False
        assert payload["error"].startswith("drift matrix is not lower 2x2-block triangular")


class TestToleranceInput:
    """Each tolerance is --tol or its subparser's default.  One that is not a
    finite number at least 0 bounds nothing: it is an input error before any
    verdict."""

    @pytest.fixture
    def slightly_off(self, tmp_path):
        combined = cascade(random_chain(2, 1, 8))
        r = np.array(combined.r)
        r[0, 2] += 1e-5
        r[2, 0] += 1e-5
        sys_ = SlhSystem(s=combined.s, k=combined.k, r=r)
        return write_doc(tmp_path, "off.json", SystemDocument.from_system(sys_))

    def test_flag_loosens_tolerance(self, capsys, slightly_off):
        code, payload = run_cli(capsys, "check", slightly_off)
        assert code == 2 and payload["tolerance_used"] == 1e-9
        code, payload = run_cli(capsys, "check", slightly_off, "--tol", "1e-3")
        assert code == 0 and payload["tolerance_used"] == 1e-3

    @pytest.mark.parametrize("command", ["check", "decompose", "passive-realize", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_meaningless_tolerance_is_an_input_error(
        self, capsys, tmp_path, reference_doc, command, value
    ):
        path, _ = reference_doc
        out = tmp_path / "out.json"
        argv = [command, path, path] if command == "verify" else [command, path]
        if command in ("decompose", "passive-realize"):
            argv += ["--out", str(out)]
        # run_cli reads exactly one JSON object: no verdict came first
        code, payload = run_cli(capsys, *argv, f"--tol={value}")
        assert code == 1 and payload["kind"] == "input"
        assert payload["error"].startswith("--tol must be a finite number at least 0")
        assert not out.exists()

    def test_zero_tolerance_gives_a_verdict(self, capsys, reference_doc):
        path, _ = reference_doc
        code, payload = run_cli(capsys, "check", path, "--tol", "0")
        assert code == 2 and payload["tolerance_used"] == 0.0

    def test_equivalence_reports_carry_the_defaults(self, capsys, reference_doc):
        # the structural --tol of passive-realize does not reach its equivalence check
        assert (EQUIVALENCE_TOL, EQUIVALENCE_SAMPLES) == (1e-8, 20)
        path, _ = reference_doc
        code, verified = run_cli(capsys, "verify", path, path)
        assert code == 0
        for tol in ([], ["--tol", "1e-6"]):
            code, realized = run_cli(capsys, "passive-realize", path, *tol)
            assert code == 0
            for report in (verified, realized["reports"]["equivalence"]):
                assert report["tolerance"] == EQUIVALENCE_TOL
                assert report["samples_used"] == EQUIVALENCE_SAMPLES


def _environment_reads(source) -> list[int]:
    """The lines of source that read the environment: os.environ, os.getenv
    or a bare environ or getenv, however imported."""
    names = {"environ", "environb", "getenv", "getenvb"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names):
            lines.append(node.lineno)
    return lines


class TestNoHiddenSettings:
    """A result depends only on argv and the files it names: no setting of
    the environment reaches it."""

    # the values the variable once read as an input error, or as a tolerance
    @pytest.mark.parametrize(
        "value", ["garbage", "nan", "inf", "-inf", "-1", "-1e-300", "0.5", "1e-18"]
    )
    def test_environment_changes_no_result(
        self, capsys, monkeypatch, tmp_path, cascade_doc, reference_doc, value
    ):
        path, combined, _ = cascade_doc
        passive_path, _ = reference_doc
        same = write_doc(tmp_path, "same.json", SystemDocument.from_system(combined))
        calls = [
            ["check", path],
            ["check", passive_path],
            ["decompose", path],
            ["passive-realize", passive_path],
            ["tf", path, "--points", "1+2j,0.5"],
            ["verify", path, same],
            ["verify", passive_path, passive_path],
        ]

        def results():
            return [(main(argv), capsys.readouterr().out) for argv in calls]

        monkeypatch.delenv("CASCADE_SYNTH_TOL", raising=False)
        unset = results()
        assert {code for code, _ in unset} == {0, 2}
        monkeypatch.setenv("CASCADE_SYNTH_TOL", value)
        assert results() == unset

    def test_no_module_reads_the_environment(self):
        modules = sorted(Path(cascade_synth.__file__).parent.glob("*.py"))
        assert len(modules) > 5
        for module in modules:
            assert _environment_reads(module.read_text()) == [], module.name

    @pytest.mark.parametrize(
        "source",
        [
            "import os\nx = os.environ['X']",
            "import os\nx = os.environ.get('X')",
            "import os\nx = os.getenv('X')",
            "from os import environ\nx = environ.get('X')",
            "from os import getenv as g\nx = g('X')",
        ],
    )
    def test_guard_sees_every_form(self, source):
        assert _environment_reads(source)


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "error" in json.loads(out)

    def test_missing_required_flag(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["tf", str(tmp_path / "x.json")])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["passive-realize", "verify"])
    def test_negative_seed_is_an_input_error(self, capsys, tmp_path, reference_doc, command):
        path, _ = reference_doc
        out = tmp_path / "out.json"
        argv = [command, path, path] if command == "verify" else [command, path, "--out", str(out)]
        code, payload = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 1 and payload == {
            "error": "--seed must be an integer at least 0, got -1",
            "kind": "input",
        }
        assert not out.exists()


class TestModuleEntryPoint:
    def test_no_command_imports_scipy_linalg(self, tmp_path, cascade_doc, reference_doc):
        # passive-realize loads LAPACK's compiled module, not the package
        path, combined, _ = cascade_doc
        passive_path, _ = reference_doc
        same = write_doc(tmp_path, "same.json", SystemDocument.from_system(combined))
        out = str(tmp_path / "out.json")
        script = (
            "import contextlib, io, sys\n"
            "from cascade_synth.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(['check', {path!r}]),\n"
            f"             main(['tf', {path!r}, '--points', '1+2j,0.5']),\n"
            f"             main(['verify', {path!r}, {same!r}]),\n"
            f"             main(['decompose', {path!r}, '--out', {out!r}]),\n"
            f"             main(['passive-realize', {passive_path!r}, '--out', {out!r}])]\n"
            "print(codes, 'scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0] False"

    def test_python_dash_m_smoke(self, tmp_path):
        chain = random_chain(2, 1, 15)
        doc = SystemDocument.from_system(cascade(chain))
        path = write_doc(tmp_path, "chain.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "cascade_synth", "check", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_triangular"] is True
