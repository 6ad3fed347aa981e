"""Shared fixtures: the two-mode passive reference system in both forms,
and a recorder of drift_matrix calls."""

import sys

import numpy as np
import pytest

from cascade_synth import PassiveForm, drift_matrix, from_passive_form

import reference_data as ref


@pytest.fixture
def reference_passive_form():
    return PassiveForm(r_tilde=ref.R_TILDE, k_tilde=ref.K_TILDE, offset=ref.OFFSET)


@pytest.fixture
def reference_system(reference_passive_form):
    return from_passive_form(reference_passive_form, np.eye(2, dtype=complex))


@pytest.fixture
def drift_calls(monkeypatch):
    """The systems drift_matrix is called on, recorded at every module of
    the package that holds it."""
    calls = []

    def recording(system):
        calls.append(system)
        return drift_matrix(system)

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "drift_matrix", None) is drift_matrix
        if name.startswith("cascade_synth") and holds:
            monkeypatch.setattr(module, "drift_matrix", recording)
    return calls
