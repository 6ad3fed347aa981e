"""Workload inputs, operations and output gates of the cascade-synth benchmark.

Every input is drawn here from the benchmark seed with plain numpy, never
with ``cascade_synth.sampling``, so a change to the package cannot change
what the benchmark feeds it.  Each operation calls the package through the
``cascade_synth`` namespace (``cs.passive_realize`` and so on), which is what
the tracer in ``spans.py`` patches and what the benchmark's tests replace to
feed in a deliberately wrong result.

The operations:

- ``batch-small``: one random passive system, n in [1, 6], m in [1, 4], 20%
  of those with n >= 2 drawn with a degenerate spectrum; ``passive_realize``
  and its certification (triangularity, symplecticity, stage passivity, a
  20-sample equivalence check).
- ``large-n``: the same at n = 128, m = 4, plus ``cascade`` of the emitted
  chain, ``residual_interaction`` of the result and a ``RealizationDocument``
  round trip (``dumps`` then ``loads``).
- ``cli-cold``: one ``python -m cascade_synth`` call on n = 4 documents,
  cycling through check, decompose, passive-realize, tf and verify.

Each gate checks the outputs with the benchmark's own numpy code where it
can, and a failed gate counts the operation as failed.  Nothing is retried.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

import cascade_synth as cs
from cpus import pin_fastest_cpu

WORKLOADS = ("batch-small", "large-n", "cli-cold")

# Seed streams: inputs of timed, warm-up, set-up and traced ops never
# coincide, so no two ops in one run share an input.
STREAM_TIMED, STREAM_WARMUP, STREAM_SETUP, STREAM_TRACED = 0, 1, 2, 3

TOL = 1e-9
EQUIVALENCE_TOL = 1e-8
EQUIVALENCE_SAMPLES = 20
DEGENERATE_FRACTION = 0.2
LARGE_N, LARGE_M = 128, 4
CLI_N, CLI_M = 4, 2
CLI_COMMANDS = ("check", "decompose", "passive-realize", "tf", "verify")
CLI_EXPECTED_EXIT = {
    "check": 2,
    "decompose": 0,
    "passive-realize": 0,
    "tf": 0,
    "verify": 0,
}
CLI_TIMEOUT_S = 120
# Ops per block of the timed loop; see run.py.  batch-small's blocks are
# short (about a quarter second) because its tail is read in the best block:
# with 80 ops that is p87.5; in longer blocks the tail moved with every brief
# slow spell of the machine.  cli-cold's 5 hold one call of each command.
BLOCK_OPS = {"batch-small": 80, "large-n": 3, "cli-cold": 5}
# The timed loop moves to the currently fastest CPU this often.
PIN_EVERY_S = 0.5

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class GateFailure(Exception):
    """An output failed its correctness check."""


def _gate(cond, message):
    if not cond:
        raise GateFailure(message)


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _close(a, b, what, tol=TOL):
    scale = max(1.0, _max_abs(a), _max_abs(b))
    err = _max_abs(np.asarray(a) - np.asarray(b))
    _gate(err <= tol * scale, f"{what} differs by {err:.3e} (scale {scale:.3e})")


def case_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


# ---------------------------------------------------------------- inputs


def _complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar_unitary(rng, m):
    q, r = np.linalg.qr(_complex_gaussian(rng, (m, m)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(rng, n, degenerate):
    if degenerate:
        lam = rng.standard_normal(n)
        lam[1::2] = lam[0::2][: n // 2]
        w = _haar_unitary(rng, n)
        h = (w * lam) @ w.conj().T
    else:
        h = _complex_gaussian(rng, (n, n))
    return (h + h.conj().T) / 2


@dataclasses.dataclass
class Passive:
    """A passive system in annihilation variables, with its quadrature form.

    K = k_tilde Sigma and R = Re(Sigma^dag r_tilde Sigma): column pair j of K
    is (k_j / 2, i k_j / 2) and block (j, k) of R is
    [[a, -b], [b, a]] / 4 with r_tilde[j, k] = a + ib.
    """

    s: np.ndarray
    k_tilde: np.ndarray
    r_tilde: np.ndarray
    k: np.ndarray = dataclasses.field(init=False)
    r: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        m, n = self.k_tilde.shape
        self.k = np.empty((m, 2 * n), dtype=complex)
        self.k[:, 0::2] = self.k_tilde / 2
        self.k[:, 1::2] = 1j * self.k_tilde / 2
        a, b = self.r_tilde.real / 4, self.r_tilde.imag / 4
        self.r = np.empty((2 * n, 2 * n))
        self.r[0::2, 0::2] = a
        self.r[0::2, 1::2] = -b
        self.r[1::2, 0::2] = b
        self.r[1::2, 1::2] = a

    def mode_matrix(self) -> np.ndarray:
        """M = (1/2) Sigma Theta Sigma^dag (r_tilde - i k_tilde^dag k_tilde),
        where Sigma Theta Sigma^dag = -(i/2) I."""
        return -0.25j * self.r_tilde - 0.25 * self.k_tilde.conj().T @ self.k_tilde

    def system(self):
        return cs.SlhSystem(s=self.s, k=self.k, r=self.r)

    def digest(self) -> str:
        h = hashlib.sha256()
        for a in (self.s, self.k_tilde, self.r_tilde):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()


def draw_passive(rng, n, m, degenerate=False) -> Passive:
    r_tilde = _hermitian(rng, n, degenerate)
    return Passive(s=_haar_unitary(rng, m), k_tilde=_complex_gaussian(rng, (m, n)), r_tilde=r_tilde)


def draw_general(rng, n, m):
    """A generic (S, K, R): Haar S, complex Gaussian K, symmetric Gaussian R."""
    r = rng.standard_normal((2 * n, 2 * n))
    return _haar_unitary(rng, m), _complex_gaussian(rng, (m, 2 * n)), (r + r.T) / 2


def collapse_chain(stages):
    """Series product of one-mode stages (S_j, K_j, R_j), input end first.

    Column pair j of K is S_{n-1} ... S_{j+1} K_j, S = S_{n-1} ... S_0, the
    diagonal blocks of R are R_j and block (j, k), j > k, is
    Im(K_j^dag S_j ... S_{k+1} K_k).
    """
    n, m = len(stages), stages[0][0].shape[0]
    k = np.zeros((m, 2 * n), dtype=complex)
    acc = np.eye(m, dtype=complex)
    for j in reversed(range(n)):
        k[:, 2 * j : 2 * j + 2] = acc @ stages[j][1]
        acc = acc @ stages[j][0]
    r = np.zeros((2 * n, 2 * n))
    for j in range(n):
        r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = stages[j][2]
        between = stages[j][0]
        for kk in range(j - 1, -1, -1):
            blk = np.imag(stages[j][1].conj().T @ between @ stages[kk][1])
            r[2 * j : 2 * j + 2, 2 * kk : 2 * kk + 2] = blk
            r[2 * kk : 2 * kk + 2, 2 * j : 2 * j + 2] = blk.T
            between = between @ stages[kk][0]
    return acc, k, r


def lower_schur_unitary(m_mat):
    """U with U M U^dag lower triangular, from numpy alone.

    With M X = X diag(lam) and X = Q T, Q^dag M Q is upper triangular, so
    U = P Q^dag with P the reversal permutation.  Adequate for the generic,
    well-separated spectra the benchmark draws for its CLI inputs.
    """
    _, x = np.linalg.eig(m_mat)
    q, _ = np.linalg.qr(x)
    return q.conj().T[::-1]


def symplectic_embedding(u):
    """V with block (j, k) = [[Re u_jk, -Im u_jk], [Im u_jk, Re u_jk]]."""
    return np.kron(u.real, np.eye(2)) - np.kron(u.imag, J2)


def drift_and_io(s, k, r):
    """Doubled-up state space (A, B, Cd, Dd), G(s) = Cd (sI - A)^-1 B + Dd."""
    n, m = r.shape[0] // 2, s.shape[0]
    th = np.kron(np.eye(n), J2)
    a = 2.0 * th @ (r + np.imag(k.conj().T @ k))
    b = 2j * th @ np.hstack([-k.conj().T @ s, k.T @ s.conj()])
    c = np.vstack([k, k.conj()])
    d = np.zeros((2 * m, 2 * m), dtype=complex)
    d[:m, :m], d[m:, m:] = s, s.conj()
    return a, b, c, d


def transfer_value(s, k, r, point):
    a, b, c, d = drift_and_io(s, k, r)
    return c @ np.linalg.solve(point * np.eye(a.shape[0]) - a, b) + d


# ------------------------------------------------------- documents on disk


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encode_complex(a):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(a)]


def _encode_real(a):
    return [[float(x) for x in row] for row in np.asarray(a)]


def general_document(s, k, r) -> dict:
    return {
        "schema_version": "1",
        "form": "general",
        "n": r.shape[0] // 2,
        "m": s.shape[0],
        "S": _encode_complex(s),
        "K": _encode_complex(k),
        "R": _encode_real(r),
    }


def passive_document(p: Passive) -> dict:
    return {
        "schema_version": "1",
        "form": "passive",
        "n": p.r_tilde.shape[0],
        "m": p.s.shape[0],
        "S": _encode_complex(p.s),
        "K_tilde": _encode_complex(p.k_tilde),
        "R_tilde": _encode_complex(p.r_tilde),
    }


def _decode_complex(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def _write_document(path: Path, doc: dict) -> str:
    text = canonical_json(doc)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ cases


@dataclasses.dataclass
class Case:
    """One op's input.  ``passive`` is the system whose mode matrix the
    Schur floor is measured on; ``data`` holds what the op and gate need."""

    index: int
    passive: Passive
    data: dict[str, Any]


def make_case(workload: str, seed: int, stream: int, index: int, workdir: Optional[Path]) -> Case:
    rng = case_rng(seed, stream, index)
    if workload == "batch-small":
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        degenerate = bool(rng.random() < DEGENERATE_FRACTION) and n > 1
        p = draw_passive(rng, n, m, degenerate)
        return Case(index, p, {"system": p.system()})
    if workload == "large-n":
        p = draw_passive(rng, LARGE_N, LARGE_M)
        return Case(index, p, {"system": p.system(), "digest": p.digest()})
    if workload == "cli-cold":
        return _make_cli_case(rng, index, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _make_cli_case(rng, index, workdir: Path) -> Case:
    command = CLI_COMMANDS[index % len(CLI_COMMANDS)]
    stem = workdir / f"op{index}"
    p = draw_passive(rng, CLI_N, CLI_M)
    data: dict[str, Any] = {"command": command}
    if command == "check":
        s, k, r = draw_general(rng, CLI_N, CLI_M)
        _write_document(stem.with_suffix(".in.json"), general_document(s, k, r))
        data["argv"] = ["check", str(stem.with_suffix(".in.json"))]
    elif command == "decompose":
        stages = []
        for _ in range(CLI_N):
            s_j, k_j, r_j = draw_general(rng, 1, CLI_M)
            stages.append((s_j, k_j, r_j))
        s, k, r = collapse_chain(stages)
        _write_document(stem.with_suffix(".in.json"), general_document(s, k, r))
        data.update(argv=["decompose", str(stem.with_suffix(".in.json"))], system=(s, k, r))
    elif command == "passive-realize":
        digest = _write_document(stem.with_suffix(".in.json"), passive_document(p))
        out = stem.with_suffix(".out.json")
        data.update(
            argv=["passive-realize", str(stem.with_suffix(".in.json")), "--out", str(out)],
            out=out,
            digest=digest,
        )
    elif command == "tf":
        points = [complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(3)]
        _write_document(stem.with_suffix(".in.json"), passive_document(p))
        data.update(
            argv=["tf", str(stem.with_suffix(".in.json")), "--points", ",".join(map(str, points))],
            points=points,
        )
    else:  # verify: the original against its cascade realization
        v = symplectic_embedding(lower_schur_unitary(p.mode_matrix()))
        r2 = v @ p.r @ v.T
        _write_document(stem.with_suffix(".a.json"), passive_document(p))
        _write_document(stem.with_suffix(".b.json"), general_document(p.s, p.k @ v.T, (r2 + r2.T) / 2))
        data["argv"] = ["verify", str(stem.with_suffix(".a.json")), str(stem.with_suffix(".b.json"))]
    return Case(index, p, data)


def cleanup_case(case: Case, workdir: Optional[Path]) -> None:
    if workdir is not None:
        for path in workdir.glob(f"op{case.index}.*"):
            path.unlink()


# ------------------------------------------------------- ops and gates


def _certify(system, realization, seed):
    return {
        "triangularity": cs.is_cascade_realizable(realization.system, TOL),
        "symplectic": cs.certify_symplectic(realization.transform.v, tol=TOL),
        "stages_passive": all(cs.is_passive(st, TOL) for st in realization.chain.stages),
        "equivalence": cs.certify_equivalence(
            system, realization.system, n_samples=EQUIVALENCE_SAMPLES, tol=EQUIVALENCE_TOL, seed=seed
        ),
    }


def _gate_certificates(certs):
    _gate(certs["triangularity"].is_triangular, "transformed drift is not lower block triangular")
    _gate(certs["symplectic"], "transform is not symplectic")
    _gate(certs["stages_passive"], "a stage is not passive")
    eq = certs["equivalence"]
    _gate(eq.verdict and eq.samples_used == EQUIVALENCE_SAMPLES, "transfer functions differ")


def op_batch_small(case: Case):
    system = case.data["system"]
    realization = cs.passive_realize(system, TOL)
    return realization, _certify(system, realization, case.index)


def gate_batch_small(case: Case, out) -> None:
    realization, certs = out
    _gate_certificates(certs)
    _gate(realization.chain.n == case.passive.r_tilde.shape[0], "wrong stage count")


def op_large_n(case: Case):
    system = case.data["system"]
    realization = cs.passive_realize(system, TOL)
    certs = _certify(system, realization, case.index)
    collapsed = cs.cascade(realization.chain)
    residual = cs.residual_interaction(collapsed)
    document = cs.RealizationDocument(
        input_digest=case.data["digest"],
        stages=realization.chain.stages,
        v=realization.transform.v,
        reports={
            "triangularity": dataclasses.asdict(certs["triangularity"]),
            "equivalence": dataclasses.asdict(certs["equivalence"]),
            "symplectic": certs["symplectic"],
            "stages_passive": certs["stages_passive"],
        },
    )
    text = document.dumps()
    loaded = cs.RealizationDocument.loads(text)
    return realization, certs, collapsed, residual, text, loaded


def gate_large_n(case: Case, out) -> None:
    realization, certs, collapsed, residual, text, loaded = out
    _gate_certificates(certs)
    target = realization.system
    _close(collapsed.s, target.s, "cascade(chain) S")
    _close(collapsed.k, target.k, "cascade(chain) K")
    _close(collapsed.r, target.r, "cascade(chain) R")
    _gate(_max_abs(residual) <= TOL * max(1.0, _max_abs(collapsed.r)), "residual interaction is not zero")
    # digest identity: the digest is the sha256 of exactly this encoding
    _gate(loaded.dumps() == text, "document round trip is not digest-identical")
    _gate(np.array_equal(loaded.v, realization.transform.v), "V changed in the round trip")


def _cli_in_process(argv) -> tuple[int, str]:
    from cascade_synth import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buffer.getvalue()


def _cli_subprocess(argv, env, cwd) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "-m", "cascade_synth", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return done.returncode, done.stdout


def gate_cli(case: Case, out) -> None:
    code, stdout = out
    command = case.data["command"]
    expected = CLI_EXPECTED_EXIT[command]
    _gate(code == expected, f"{command} exited {code}, expected {expected}")
    payload = json.loads(stdout)
    _gate(isinstance(payload, dict), f"{command} printed no JSON object")
    p = case.passive
    if command == "check":
        _gate(payload["is_triangular"] is False, "check called a generic system triangular")
        _gate(payload["max_upper_residual"] > TOL * payload["scale"], "check residual below tolerance")
    elif command == "decompose":
        s, k, r = case.data["system"]
        stages = payload["stages"]
        _gate(len(stages) == CLI_N, "decompose emitted the wrong stage count")
        decoded = [
            (_decode_complex(st["S"]), _decode_complex(st["K"]), np.array(st["R"], dtype=float))
            for st in stages
        ]
        for j, (_, k_j, r_j) in enumerate(decoded):
            _gate(np.array_equal(k_j, k[:, 2 * j : 2 * j + 2]), f"stage {j} K is not column pair {j}")
            _gate(np.array_equal(r_j, r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]), f"stage {j} R is not block {j}")
        s2, k2, r2 = collapse_chain(decoded)
        _close(s2, s, "collapsed stages S")
        _close(k2, k, "collapsed stages K")
        _close(r2, r, "collapsed stages R")
    elif command == "passive-realize":
        text = case.data["out"].read_text().strip()
        _gate(text == canonical_json(payload), "--out file differs from stdout")
        _gate(payload["input_digest"] == case.data["digest"], "input digest does not match the input")
        reports = payload["reports"]
        _gate(reports["triangularity"]["is_triangular"], "realization not triangular")
        _gate(reports["symplectic_residual"] <= TOL, "realization not symplectic")
        _gate(reports["equivalence"]["verdict"], "realization not equivalent")
        _gate(reports["stages_passive"], "realization stage not passive")
        v = np.array(payload["V"], dtype=float)
        _close(v.T @ v, np.eye(2 * CLI_N), "V^T V")
        stages = [
            (_decode_complex(st["S"]), _decode_complex(st["K"]), np.array(st["R"], dtype=float))
            for st in payload["stages"]
        ]
        _gate(len(stages) == CLI_N, "passive-realize emitted the wrong stage count")
        s2, k2, r2 = collapse_chain(stages)
        _close(s2, p.s, "collapsed realization S")
        _close(k2, p.k @ v.T, "collapsed realization K")
        _close(r2, v @ p.r @ v.T, "collapsed realization R")
    elif command == "tf":
        samples = payload["samples"]
        _gate(len(samples) == len(case.data["points"]), "tf returned the wrong sample count")
        for sample, point in zip(samples, case.data["points"]):
            _gate(complex(*sample["s"]) == point, "tf sampled another frequency")
            _close(_decode_complex(sample["value"]), transfer_value(p.s, p.k, p.r, point), "G(s)")
    else:
        _gate(payload["verdict"] is True, "verify rejected an equivalent realization")
        _gate(payload["samples_used"] == EQUIVALENCE_SAMPLES, "verify used the wrong sample count")


# ------------------------------------------------------------------ loop


class Runner:
    """Runs one workload's ops one at a time (closed loop, one client).

    ``in_process`` makes cli-cold call ``cli.main`` in this interpreter
    instead of starting ``python -m cascade_synth``; the traced run uses it,
    since spans can only be recorded in this process.  With a ``tracer``,
    each op's spans carry its index and the gates run untraced.
    """

    WARMUP_OPS = 2

    def __init__(self, workload, seed, workdir: Optional[Path] = None, in_process=False, cwd=None, tracer=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload, self.seed, self.workdir, self.tracer = workload, seed, workdir, tracer
        self.subprocess_ops = workload == "cli-cold" and not in_process
        if workload == "batch-small":
            self.op, self.gate = op_batch_small, gate_batch_small
        elif workload == "large-n":
            self.op, self.gate = op_large_n, gate_large_n
        elif in_process:
            self.op, self.gate = lambda case: _cli_in_process(case.data["argv"]), gate_cli
        else:
            env = dict(os.environ)
            self.op, self.gate = lambda case: _cli_subprocess(case.data["argv"], env, cwd), gate_cli

    def case(self, stream, index) -> Case:
        return make_case(self.workload, self.seed, stream, index, self.workdir)

    def run_one(self, case: Case) -> tuple[float, Optional[str], float]:
        """Time one op and gate its output.

        Returns the op's wall time, the failure message or None, and the
        ``time.monotonic()`` at which the op (not its gate) ended.
        """
        if self.tracer is not None:
            self.tracer.op = case.index
        untraced = self.tracer.paused if self.tracer is not None else contextlib.nullcontext
        try:
            t0 = time.perf_counter()
            try:
                out = self.op(case)
            except Exception as exc:  # a raising op is a failed op, never a crash
                elapsed, end = time.perf_counter() - t0, time.monotonic()
                return elapsed, f"op {case.index}: {type(exc).__name__}: {exc}", end
            elapsed, end = time.perf_counter() - t0, time.monotonic()
            try:
                with untraced():
                    self.gate(case, out)
            except Exception as exc:
                return elapsed, f"op {case.index}: gate: {type(exc).__name__}: {exc}", end
            return elapsed, None, end
        finally:
            cleanup_case(case, self.workdir)

    def warm_up(self) -> list[str]:
        """Untimed ops on their own inputs, so lazy set-up is done before timing."""
        results = [self.run_one(self.case(STREAM_WARMUP, i)) for i in range(self.WARMUP_OPS)]
        return [failure for _, failure, _ in results if failure is not None]

    def loop(self, seconds) -> dict:
        """Run timed ops until ``seconds`` of wall time have passed, moving
        to the fastest allowed CPU every ``PIN_EVERY_S`` (see
        ``cpus.pin_fastest_cpu``).  ``BLOCK_OPS`` tells the caller how to
        cut the latencies into blocks."""
        latencies, failures = [], []
        cpus = sorted(os.sched_getaffinity(0))
        start = pinned = time.perf_counter()
        pin_fastest_cpu(cpus)
        try:
            while time.perf_counter() - start < seconds:
                if time.perf_counter() - pinned >= PIN_EVERY_S:
                    pin_fastest_cpu(cpus)
                    pinned = time.perf_counter()
                elapsed, failure, _ = self.run_one(self.case(STREAM_TIMED, len(latencies)))
                latencies.append(elapsed)
                if failure is not None:
                    failures.append(failure)
        finally:
            os.sched_setaffinity(0, cpus)
        return {
            "latencies": latencies,
            "failures": failures,
            "block_ops": BLOCK_OPS[self.workload],
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def traced_loop(self, seconds) -> dict:
        """Alternate untraced and traced ops, on inputs of their own, until
        ``seconds`` of wall time have passed.

        The tracer is uninstalled for each untraced op, so those time the
        package as is; alternating in one process keeps drift in machine
        speed out of the overhead figure.  After each untraced op, and
        outside its time, a bare ``scipy.linalg.schur`` of the case's mode
        matrix and a bare ``passive_realize`` of its passive system are timed.
        """
        plain, traced, failures, schur_s, realize_s = [], [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            index = len(plain)
            self.tracer.uninstall()
            case = self.case(STREAM_TIMED, index)
            elapsed, failure, _ = self.run_one(case)
            plain.append(elapsed)
            schur_s.append(time_schur(case.passive.mode_matrix()))
            system = case.passive.system()
            t0 = time.perf_counter()
            cs.passive_realize(system, TOL)
            realize_s.append(time.perf_counter() - t0)
            self.tracer.install()
            traced_elapsed, traced_failure, _ = self.run_one(self.case(STREAM_TRACED, index))
            traced.append(traced_elapsed)
            failures += [f for f in (failure, traced_failure) if f is not None]
        self.tracer.uninstall()
        return {
            "untraced": plain,
            "traced": traced,
            "failures": failures,
            "schur_s": schur_s,
            "realize_s": realize_s,
        }

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work: this one, or
        for subprocess CLI ops the largest child."""
        who = resource.RUSAGE_CHILDREN if self.subprocess_ops else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0


def time_schur(mode_matrix) -> float:
    # Imported here, not at the top: input generation must not load scipy,
    # or set-up probes would stop paying for a package that imports it lazily.
    import scipy.linalg

    t0 = time.perf_counter()
    scipy.linalg.schur(mode_matrix, output="complex")
    return time.perf_counter() - t0
