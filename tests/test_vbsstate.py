import hashlib

import numpy as np
import pytest
from fractions import Fraction

from qvbs.cgproj import BudgetError
from qvbs.qnum import LaurentQ
from qvbs.vbsstate import (
    verify_two_site_lemma,
    build_open,
    build_pbc,
    random_weight_zero_state,
    two_site_kernel_dimension,
    verify_annihilation,
)

Q0 = Fraction(4, 5)


def test_pbc_two_site_expansion():
    st = build_pbc(1, 2)
    assert st.amps == {
        (0, 0): LaurentQ({2: 1, -2: 1}),
        (1, -1): LaurentQ.const(-1),
        (-1, 1): LaurentQ.const(-1),
    }


def test_pbc_weight_neutral():
    for S, L in ((1, 4), (2, 3), (3, 2)):
        assert build_pbc(S, L).weights() == [0]


def test_pbc_translation_invariant_exactly():
    for S, L in ((1, 5), (2, 4)):
        st = build_pbc(S, L)
        assert st.translated().amps == st.amps


def test_pbc_classical_limit_matches_standard_mps():
    # independent oracle: the textbook isotropic spin-1 chain tensors
    Ap = np.sqrt(2.0) * np.array([[0, 1], [0, 0]])
    A0 = -np.array([[1, 0], [0, -1]])
    Am = -np.sqrt(2.0) * np.array([[0, 0], [1, 0]])
    A = {1: Ap, 0: A0, -1: Am}
    L = 4
    st = build_pbc(1, L)
    dense = st.to_dense(Fraction(1))
    ref = np.zeros_like(dense)
    for idx in range(3 ** L):
        digits = []
        r = idx
        for _ in range(L):
            digits.append(1 - r % 3)
            r //= 3
        ms = tuple(reversed(digits))
        mat = np.eye(2)
        for m in ms:
            mat = mat @ A[m]
        ref[st.basis_index(ms)] = np.trace(mat)
    i = int(np.argmax(np.abs(ref)))
    ratio = dense[i] / ref[i]
    assert np.abs(dense - ratio * ref).max() < 1e-10 * np.abs(dense).max()


def test_open_leading_monomial():
    # S=1, L=2, p1=p2=1: x1 (q x1 y2 - 1/q y1 x2) y2
    st = build_open(1, 2, 1, 1)
    assert st.amps == {
        (1, -1): LaurentQ.q_power(1),
        (0, 0): LaurentQ.q_power(-1, -1),
    }


def test_open_weights():
    for p1 in (1, 2, 3):
        for p2 in (1, 2, 3):
            st = build_open(2, 3, p1, p2)
            assert st.weights() == [p2 - p1]


def test_open_boundary_range():
    with pytest.raises(ValueError):
        build_open(2, 3, 0, 1)
    with pytest.raises(ValueError):
        build_open(2, 3, 1, 4)


def test_open_family_linearly_independent():
    rows = [build_open(2, 3, p1, p2).to_dense(Q0)
            for p1 in (1, 2, 3) for p2 in (1, 2, 3)]
    assert np.linalg.matrix_rank(np.array(rows)) == 9


def test_annihilation_pbc():
    for S, L in ((1, 4), (2, 4)):
        rep = verify_annihilation(build_pbc(S, L), "periodic")
        assert rep["all_zero"]
        assert len(rep["bonds"]) == L


def test_annihilation_open_bonds_only():
    rep = verify_annihilation(build_open(2, 3, 2, 1), "open")
    assert rep["all_zero"]
    assert len(rep["bonds"]) == 2


def test_annihilation_negative_control():
    rep = verify_annihilation(random_weight_zero_state(2, 3, seed=0), "periodic")
    assert not rep["all_zero"]
    assert any(b["nonzero_components"] for b in rep["bonds"].values())


def test_negative_control_seeded_deterministic():
    a = random_weight_zero_state(2, 3, seed=5).amps
    b = random_weight_zero_state(2, 3, seed=5).amps
    assert a == b


def test_two_site_kernel_dimension():
    for S in (1, 2, 3):
        assert two_site_kernel_dimension(S) == (S + 1) ** 2


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("QVBS_BUDGET_MB", "0")
    with pytest.raises(BudgetError):
        build_pbc(2, 8)
    # the control walks every digit tuple, so it is held to the same budget
    with pytest.raises(BudgetError):
        random_weight_zero_state(2, 8)


def test_negative_control_argument_checks():
    # S = 0 returned a spin-0 state
    for S, L in ((0, 4), (2, 1)):
        with pytest.raises(ValueError):
            random_weight_zero_state(S, L)


@pytest.mark.parametrize("S,L,seed,digest", (
    (2, 4, 1, "dd420a40875086bdecc2f2fd1995ac762d74c0f8566bc4c550dbe37e6485e77d"),
    (3, 4, 7, "9feb4a044a77884e50206983441c9530ae49c79e13f824463f5ab1445dcade53"),
))
def test_negative_control_amplitudes_pinned(S, L, seed, digest):
    # the benchmark draws these controls, so their amplitudes must not move
    amps = random_weight_zero_state(S, L, seed=seed).amps
    text = repr(sorted((k, sorted(v.items())) for k, v in amps.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_spin_flip_inversion_symmetries_exact():
    # two exact identities: site reversal + m -> -m leaves amplitudes fixed;
    # m -> -m alone conjugates q -> 1/q with sign (-1)^(L S)
    for S, L in ((1, 6), (2, 5), (2, 4)):
        st = build_pbc(S, L)
        sign = -1 if (L * S) % 2 else 1
        for k, a in st.amps.items():
            assert a == st.amps[tuple(-m for m in reversed(k))]
            assert a == st.amps[tuple(-m for m in k)].bar() * sign


def test_annihilation_two_site_chain_both_bonds():
    rep = verify_annihilation(build_pbc(1, 2), "periodic")
    assert rep["all_zero"]
    assert set(rep["bonds"]) == {"1-2", "2-1"}


def test_two_site_lemma_identified():
    for S in (1, 2):
        rep = verify_two_site_lemma(S)
        assert rep["inclusion"]
        assert rep["kernel_dimension"] == (S + 1) ** 2
        assert rep["solution_space_identified"]
