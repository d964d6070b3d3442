import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest
from fractions import Fraction

from qvbs import vbsstate
from qvbs.cgproj import (BudgetError, bond_list, bond_product, exact_dot,
                         upper_dual_rows)
from qvbs.qnum import Batch, LaurentQ
from qvbs.vbsstate import (
    verify_two_site_lemma,
    build_open,
    build_pbc,
    random_weight_zero_state,
    two_site_kernel_dimension,
    verify_annihilation,
)
from qvbs.weylrep import SitePoly, StateVector, poly_to_spin

import oracles

Q0 = Fraction(4, 5)


def _keyed_float_values(st, q0):
    """StateVector.float_values keyed by basis state."""
    return dict(zip(st.amps, st.float_values(q0).tolist()))


def _float_outcome(fn, *args):
    """The keys and float bits fn(*args) gives, or the error it raises."""
    try:
        values = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return list(values), [v.hex() for v in values.values()]


@pytest.mark.parametrize("state", (
    lambda: build_pbc(1, 8),
    lambda: build_open(2, 4, 2, 3),
    lambda: random_weight_zero_state(2, 3, seed=4),
))
def test_float_amplitudes_match_per_amplitude_loop(state):
    # one evaluation per distinct amplitude, each product in the same order,
    # so every float is the per-amplitude loop's bit for bit, and far from
    # q = 1 the same error is raised
    st = state()
    assert len(set(st.amps.values())) < len(st.amps)
    errors = 0
    for q0 in (Q0, Fraction(7, 3), Fraction(1), Fraction(1, 10 ** 6),
               Fraction(10 ** 30), Fraction(10 ** 60), Fraction(10 ** 400)):
        got = _float_outcome(_keyed_float_values, st, q0)
        assert got == _float_outcome(oracles.float_amplitudes, st, q0)
        errors += isinstance(got[0], type)
    assert errors >= 2


@pytest.mark.parametrize("state", (
    lambda: build_pbc(1, 8),
    lambda: build_open(2, 4, 2, 3),
    lambda: random_weight_zero_state(2, 3, seed=4),
))
def test_float_amplitudes_raise_at_the_loop_s_first_key(state):
    # over q = 1e-320..1e320 the error is the per-amplitude loop's: an
    # amplitude that overflows is met only after every key before it, one
    # of which may already be non-finite (the open chain near q = 1e-40)
    st = state()
    kinds = set()
    for k in range(-320, 321, 3):
        q0 = Fraction(10) ** k
        got = _float_outcome(_keyed_float_values, st, q0)
        assert got == _float_outcome(oracles.float_amplitudes, st, q0), k
        kinds.add(got[0] if isinstance(got[0], type) else "finite")
    assert {OverflowError, "finite"} <= kinds


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
        # idx reads ms' digits 1 - m with site 1 leading
        ref[idx] = np.trace(mat)
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


# -- the modular annihilation check against the dict oracle --------------


def dict_annihilation_report(state, boundary="periodic", bonds=None,
                             duals=None):
    """The report verify_annihilation gives, by exact Laurent pairing: each
    (rest, w, J) component is the dot product of a dual row with the
    amplitudes, summed term by term in Z[q, 1/q]."""
    S, L = state.S, state.L
    duals = duals or upper_dual_rows(S)
    if bonds is None:
        bonds = bond_list(L, boundary)
    report = {"S": S, "L": L, "boundary": boundary, "bonds": {}, "all_zero": True}
    for (k, l) in bonds:
        pk, pl = k - 1, l - 1
        groups = {}
        for mvec, amp in state.amps.items():
            rest = tuple(m for i, m in enumerate(mvec) if i not in (pk, pl))
            groups.setdefault(rest, {})[(mvec[pk], mvec[pl])] = amp
        residual = {}
        for pair_amps in groups.values():
            by_w = {}
            for pair, amp in pair_amps.items():
                by_w.setdefault(pair[0] + pair[1], {})[pair] = amp
            for w, amps_w in by_w.items():
                pairs, rows = duals[w]
                vec = [amps_w.get(p, LaurentQ.zero()) for p in pairs]
                for J, row in rows:
                    if not exact_dot(row, vec).is_zero:
                        residual[J] = residual.get(J, 0) + 1
        zero = {J: residual.get(J, 0) == 0 for J in range(S + 1, 2 * S + 1)}
        report["bonds"]["%d-%d" % (k, l)] = {
            "residual_zero": zero,
            "nonzero_components": sum(residual.values()),
        }
        if not all(zero.values()):
            report["all_zero"] = False
    return report


def _lemma_states(S):
    prod = bond_product(S)
    return [poly_to_spin(SitePoly.monomial({1: (a, S - a), 2: (b, S - b)})
                         * prod, S, (1, 2))
            for a in range(S + 1) for b in range(S + 1)]


ORACLE_CASES = (
    [("pbc", (S, L), build_pbc(S, L), "periodic", None)
     for S, L in ((1, 6), (2, 5), (3, 4))]
    + [("open", (p1, p2), build_open(2, 4, p1, p2), "open", None)
       for p1 in (1, 2, 3) for p2 in (1, 2, 3)]
    + [("lemma", (S, i), st, "open", [(1, 2)])
       for S in (1, 2, 3) for i, st in enumerate(_lemma_states(S))]
    + [("control", (S, L, seed), random_weight_zero_state(S, L, seed=seed),
        "periodic", None)
       for seed in range(4) for S, L in ((1, 6), (2, 5), (3, 4), (2, 4), (1, 5))]
)


@pytest.mark.parametrize("kind,label,state,boundary,bonds", ORACLE_CASES,
                         ids=["%s%s" % case[:2] for case in ORACLE_CASES])
def test_modular_report_equals_dict_oracle(kind, label, state, boundary, bonds):
    got = verify_annihilation(state, boundary, bonds=bonds)
    assert got == dict_annihilation_report(state, boundary, bonds=bonds)
    assert got["all_zero"] is (kind != "control")


def test_amplitude_mutant_rejected_by_both_paths():
    # one seeded amplitude of a ground state gets +q
    rng = random.Random(11)
    for S, L in ((2, 5), (3, 4)):
        state = build_pbc(S, L)
        amps = dict(state.amps)
        key = rng.choice(sorted(amps))
        amps[key] = amps[key] + LaurentQ.q_power(1)
        mutant = StateVector(S, L, amps)
        got = verify_annihilation(mutant, "periodic")
        assert got == dict_annihilation_report(mutant, "periodic")
        assert not got["all_zero"]


def test_dual_entry_mutant_rejected_by_both_paths(monkeypatch):
    # one seeded nonzero dual entry gets +1; the modular path reads the dual
    # rows through its caches, which are cleared around the mutation
    S, L = 2, 5
    rng = random.Random(12)
    duals = {w: (pairs, [(J, list(row)) for J, row in rows])
             for w, (pairs, rows) in upper_dual_rows(S).items()}
    slots = [(w, r, i) for w, (pairs, rows) in sorted(duals.items())
             for r, (J, row) in enumerate(rows)
             for i, e in enumerate(row) if not e.is_zero]
    w, r, i = rng.choice(slots)
    row = duals[w][1][r][1]
    row[i] = row[i] + 1
    state = build_pbc(S, L)
    want = dict_annihilation_report(state, "periodic", duals=duals)
    assert not want["all_zero"]
    monkeypatch.setattr(vbsstate, "upper_dual_rows", lambda S: duals)
    vbsstate._dual_layout.cache_clear()
    vbsstate._dual_residues.cache_clear()
    try:
        assert verify_annihilation(state, "periodic") == want
    finally:
        monkeypatch.undo()
        vbsstate._dual_layout.cache_clear()
        vbsstate._dual_residues.cache_clear()
    assert verify_annihilation(state, "periodic")["all_zero"]


@pytest.mark.parametrize("bond", ((0, 1), (1, 4), (2, 2)))
def test_annihilation_rejects_bonds_off_the_chain(bond):
    # an array index of -1 for site 0 would silently read site L
    with pytest.raises(ValueError, match="not two sites"):
        verify_annihilation(build_pbc(1, 3), bonds=[bond])


@pytest.mark.parametrize("amps, key", (
    ({(2, -2): 1}, (2, -2)),
    ({(1, -1): 1, (3, -3): 5}, (3, -3)),
    ({(1, 0, -1): 1}, (1, 0, -1)),
))
def test_annihilation_rejects_keys_off_the_digits(amps, key):
    # read as digits, m = 2 on S = 1 wrapped onto another pair of the bond
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        verify_annihilation(StateVector(1, 2, amps), "open")


def test_screen_alone_decides_a_control(monkeypatch):
    # every component of this control is nonzero at the screen point, so
    # its amplitudes are evaluated there and nowhere else
    state = random_weight_zero_state(3, 4, seed=0)
    duals = vbsstate._dual_layout(3).entries
    points = []
    eval_mod = Batch.eval_mod

    def spy(self, at, p):
        if self is not duals:
            points.append(list(at))
        return eval_mod(self, at, p)
    monkeypatch.setattr(Batch, "eval_mod", spy)
    assert not verify_annihilation(state)["all_zero"]
    assert points == [[vbsstate._SCREEN_POINT]]


@pytest.mark.parametrize("build, all_zero", (
    (lambda: random_weight_zero_state(3, 4, seed=0), False),
    (lambda: build_pbc(2, 4), True),
), ids=("screen_decides", "proof_decides"))
def test_annihilation_flattens_the_amplitudes_once(batches_built, build,
                                                   all_zero):
    # the screen, the D and H bounds and the proof share one batch of the
    # distinct amplitudes, in order of first appearance; the dual entries'
    # batch is built with the cached layout
    state = build()
    vbsstate._dual_layout(state.S)
    batches_built.clear()
    assert verify_annihilation(state)["all_zero"] is all_zero
    distinct = list(dict.fromkeys(state.amps.values()))
    assert len(distinct) < len(state.amps)
    assert batches_built == [distinct]


def test_annihilation_checks_the_boundary_label_with_given_bonds():
    state = build_open(1, 3, 1, 1)
    with pytest.raises(ValueError, match="boundary must be"):
        verify_annihilation(state, "bogus", bonds=[(1, 2)])
    assert verify_annihilation(state, "open", bonds=[(1, 2)])["all_zero"]


def test_annihilation_screen_counts_against_the_budget(monkeypatch):
    states = (build_pbc(2, 5), random_weight_zero_state(2, 5, seed=0))
    monkeypatch.setenv("QVBS_BUDGET_MB", "0")
    for state in states:
        with pytest.raises(BudgetError, match="verify_annihilation"):
            verify_annihilation(state)


def test_annihilation_with_no_bonds():
    want = {"S": 1, "L": 3, "boundary": "periodic", "bonds": {},
            "all_zero": True}
    assert verify_annihilation(build_pbc(1, 3), bonds=[]) == want
    one_site = StateVector(1, 1, {(0,): LaurentQ.const(1)})
    assert verify_annihilation(one_site, "open") == dict(
        want, L=1, boundary="open")


def test_annihilation_on_a_long_sparse_chain():
    # 3**45 indices overflow int64: the open (1, 3) state padded with
    # m = 0 on 42 more sites, plus seeded strays, on every periodic bond
    S, L = 1, 45
    rng = random.Random(13)
    pad = (0,) * (L - 3)
    amps = {mvec + pad: amp for mvec, amp in build_open(S, 3, 1, 2).amps.items()}
    padded = StateVector(S, L, dict(amps))
    for _ in range(12):
        mvec = [0] * L
        for i in rng.sample(range(L), 4):
            mvec[i] = rng.choice((-1, 1))
        amps[tuple(mvec)] = LaurentQ({rng.randint(-2, 2): rng.randint(1, 9)})
    strays = StateVector(S, L, amps)
    for state, bonds in ((padded, [(1, 2), (2, 3)]), (padded, None),
                         (strays, None)):
        got = verify_annihilation(state, bonds=bonds)
        assert got == dict_annihilation_report(state, bonds=bonds)
        assert got["all_zero"] is (bonds is not None)


def test_screen_point_generates_the_field():
    # 16807 has multiplicative order p - 1 = 2 3^2 7 11 31 151 331 mod
    # p = 2^31 - 1, so no q-integer vanishes there
    p, x0 = vbsstate._SCREEN_PRIME, vbsstate._SCREEN_POINT
    assert p == 2 ** 31 - 1 == 2 * 3 ** 2 * 7 * 11 * 31 * 151 * 331 + 1
    assert all(pow(x0, (p - 1) // f, p) != 1 for f in (2, 3, 7, 11, 31, 151, 331))


def test_component_vanishing_at_the_screen_point_is_counted():
    # q - x0 vanishes at the screen point mod the screen prime, so only the
    # proof stage can tell that this component is not zero
    p, x0 = vbsstate._SCREEN_PRIME, vbsstate._SCREEN_POINT
    amp = LaurentQ({1: 1, 0: -x0})
    assert not Batch([amp]).eval_mod([x0], p).any()
    state = StateVector(1, 2, {(1, 0): amp})
    got = verify_annihilation(state, "open")
    assert got == dict_annihilation_report(state, "open")
    assert got["bonds"]["1-2"] == {"residual_zero": {2: False},
                                   "nonzero_components": 1}
    # the same factor on a ground-state amplitude: the sum still vanishes
    # at x0 on that component, and is still counted
    amps = dict(build_pbc(2, 4).amps)
    key = sorted(amps)[0]
    amps[key] = amps[key] + amp * amps[key]
    mutant = StateVector(2, 4, amps)
    got = verify_annihilation(mutant, "periodic")
    assert got == dict_annihilation_report(mutant, "periodic")
    assert not got["all_zero"]


def _report_digest(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# computed with the dict pairing, before the modular check replaced it
REPORT_DIGESTS = {
    (1, 6, 0): "5029ad0976329778d721d113410878ec99e3e402eeec8064459fc454c2e94ee7",
    (1, 6, 1): "3a98e83b57ccff691909f2d40224e3e43bc7274396a7e21ada90ffa66acf2124",
    (1, 6, 2): "43b4cd503a82b7b339aa154b7efe3340216ff34cbf58e39b38095a1d99b9453a",
    (1, 6, 3): "ae2bf1610120c73a5a5ccf7df688b72facc9da005fc01958eff0332b8e7cd524",
    (1, 6, 4): "d216ce46144715f64ce1b22228e6499d8a1a8ebe6b9b148c10ec1e0d5c2b0f27",
    (2, 5, 0): "9a4525dedbb564bfa2935e22d47df1dedc6031aa623df24256daafebb71b7dc1",
    (2, 5, 1): "301bb236973dae74be88ff9e63bd7e9cccf040d7a45f103da9953168ca2c11de",
    (2, 5, 2): "ddb70a621fd9191aa1d2869daa6db07bbb517b38197fd15ec64b605c6ea8776c",
    (2, 5, 3): "ce05d7c7cf39081a009bfb9579729e40089c5b19515d013172fab48838d8638a",
    (2, 5, 4): "ce05d7c7cf39081a009bfb9579729e40089c5b19515d013172fab48838d8638a",
    (3, 4, 0): "4c253477b50f5aac1d434fb3e74733164d90f9336830718593e282ed2bf89da4",
    (3, 4, 1): "4c253477b50f5aac1d434fb3e74733164d90f9336830718593e282ed2bf89da4",
    (3, 4, 2): "4c253477b50f5aac1d434fb3e74733164d90f9336830718593e282ed2bf89da4",
    (3, 4, 3): "4c253477b50f5aac1d434fb3e74733164d90f9336830718593e282ed2bf89da4",
    (3, 4, 4): "a886f7ba87c279924f2b955e48fbeca3b81deae28af0e16c11d4b90f47acac27",
}
PBC_4_4_DIGEST = "cd55d5c9faaf02b400997acd579704ad64915de1c17da8bbb9c45889fff0ab6e"


@pytest.mark.parametrize("S,L,seed", sorted(REPORT_DIGESTS))
def test_control_reports_pinned(S, L, seed):
    # the benchmark's control cases: the reports must not move
    rep = verify_annihilation(random_weight_zero_state(S, L, seed=seed))
    assert _report_digest(rep) == REPORT_DIGESTS[(S, L, seed)]


def test_pbc_4_4_report_pinned():
    assert _report_digest(verify_annihilation(build_pbc(4, 4))) == PBC_4_4_DIGEST


def _old_random_weight_zero_state(S, L, seed):
    # the digit walk the numpy enumeration replaced
    rng = random.Random(seed)
    amps = {}
    for digits in itertools.product(range(2 * S + 1), repeat=L):
        mvec = tuple(S - k for k in reversed(digits))
        if sum(mvec) != 0:
            continue
        c = rng.randint(-9, 9)
        if c:
            amps[mvec] = LaurentQ.const(c)
    return amps


@pytest.mark.parametrize("S,L", ((1, 6), (2, 5), (3, 4), (2, 4), (1, 2)))
def test_control_matches_digit_walk(S, L):
    # same tuples, same order, one draw per weight-zero tuple
    for seed in range(5):
        new = random_weight_zero_state(S, L, seed=seed).amps
        old = _old_random_weight_zero_state(S, L, seed)
        assert list(new.items()) == list(old.items())
        assert all(type(m) is int for key in new for m in key)


def test_two_site_lemma_rejects_a_wrong_bond_product(monkeypatch):
    # the batched inclusion check still fails when one multiple is wrong
    def skewed(S, site_a=1, site_b=2):
        return bond_product(S, site_a, site_b) + SitePoly.monomial(
            {site_a: (S, 0), site_b: (S, 0)})
    monkeypatch.setattr(vbsstate, "bond_product", skewed)
    for S in (1, 2):
        rep = verify_two_site_lemma(S)
        assert not rep["inclusion"]
        assert not rep["solution_space_identified"]
