"""Verification suites: every closed form, lemma, and conjecture at desk scale.

Each suite returns one report shape (`_report`: id, description, source, a
`passed` flag and enough detail to see what was compared); `run_suite` is the
one dispatcher, the CLI serializes what it returns and the acceptance tests
assert on it. Reports hold no run time, so the same seed gives the same
report, byte for byte once serialized.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import cgproj, mpscore, transfercorr, vbsstate
from .qnum import LaurentQ, RatQ, q_binomial, q_integer
from .weylrep import (
    QH,
    XMINUS,
    XPLUS,
    SitePoly,
    apply_boson,
    apply_generator,
)

FIVE_Q = (Fraction(1, 2), Fraction(4, 5), Fraction(1), Fraction(5, 4), Fraction(2))


def _report(id, description, source, passed, details):
    """The one report shape of every suite, the --spin runs included."""
    return {"id": id, "description": description, "source": source,
            "passed": passed, "details": details}


def _printed_s2():
    """The paper's S=2 transfer eigenvalues of levels l = 0, 1, 2,
    [5][4][2], -[5][2]^2 and [2]^2; level l has multiplicity 2l+1."""
    i2, i4, i5 = q_integer(2), q_integer(4), q_integer(5)
    return [i5 * i4 * i2, -(i5 * i2 * i2), i2 * i2]


def suite_spectrum_s2():
    """Numeric S=2 spectrum against the printed eigenvalues, 5 q points,
    each eigenvalue paired with its level by transfercorr.level_check; the
    spectrum must also resolve into exactly the three printed levels."""
    printed = _printed_s2()
    tol = 1e-10
    points = []
    for q0 in FIVE_Q:
        es = transfercorr.spectral_data(2, q0).es
        rep = transfercorr.level_check(
            2, q0, [p.eval_float(q0) for p in printed], tol)
        ok = rep["match"] and len(es.groups) == len(printed)
        points.append({"q": str(q0), "groups": es.groups, "match": ok})
    return _report("spectrum_s2",
                   "S=2 transfer spectrum matches printed closed forms "
                   "with degeneracies 1/3/5",
                   "transfer_eigenvalues_closed_form_s2",
                   all(pt["match"] for pt in points),
                   {"tolerance": tol, "points": points})


def suite_eigenvalue_conjecture():
    """Exact S=2 identity plus numeric S=3..5 spectra with multiplicities."""
    exact_ok = all(transfercorr.conjectured_eigenvalue(2, l) == p
                   for l, p in enumerate(_printed_s2()))
    numeric = [{"S": S, "q": str(q0),
                "match": transfercorr.conjecture_check(S, q0)["match"]}
               for S in (3, 4, 5) for q0 in FIVE_Q]
    return _report("eigenvalue_conjecture",
                   "general-S eigenvalue closed form: exact for S=2, "
                   "numeric with multiplicities 2l+1 for S=3..5",
                   "transfer_eigenvalue_general_form",
                   exact_ok and all(row["match"] for row in numeric),
                   {"exact_s2": exact_ok, "numeric": numeric,
                    "tolerance": transfercorr.CONJECTURE_TOL})


def suite_divisibility(spin=None):
    """Bond-product divisibility of every low-spin orbit vector, S<=4 and
    the published S=2 quotients; with spin given, that S's vectors alone."""
    vectors = [row for S in ((1, 2, 3, 4) if spin is None else (spin,))
               for row in cgproj.check_divisibility(S)]
    passed = all(row["remainder_zero"] for row in vectors)
    if spin is not None:
        return _report("divisibility", "every vector of the low-spin blocks "
                       "of S=%d is divisible by the bond product" % spin,
                       "bond_product_divisibility", passed,
                       {"vectors": vectors})
    # divisible with a quotient proportional to ref, without forming it
    B = cgproj.bond_product(2)
    quotients_ok = all(cgproj.rep_basis(2, j)[t].proportional_to(ref * B) for
                       (j, t), ref in cgproj.spin2_reference_quotients().items())
    return _report("divisibility",
                   "every vector of the low-spin blocks is divisible by "
                   "the bond product; S=2 quotients match the published list",
                   "bond_product_divisibility", passed and quotients_ok,
                   {"vectors": vectors, "spin2_quotients_match": quotients_ok})


def suite_ground_state(seed=0):
    """Exact bond annihilation for closed and open chains plus a control."""
    cases = []
    for S, L in ((1, 6), (2, 5), (3, 4)):
        rep = vbsstate.verify_annihilation(vbsstate.build_pbc(S, L), "periodic")
        cases.append({"S": S, "L": L, "boundary": "periodic",
                      "all_zero": rep["all_zero"]})
    for p1 in range(1, 4):
        for p2 in range(1, 4):
            rep = vbsstate.verify_annihilation(
                vbsstate.build_open(2, 4, p1, p2), "open")
            cases.append({"S": 2, "L": 4, "boundary": "open",
                          "p1": p1, "p2": p2, "all_zero": rep["all_zero"]})
    ctrl = vbsstate.verify_annihilation(
        vbsstate.random_weight_zero_state(2, 4, seed=seed), "periodic")
    control_nonzero = not ctrl["all_zero"]
    return _report("ground_state",
                   "high-spin projectors annihilate the chain states on "
                   "every bond, exactly; random control does not vanish",
                   "bond_projector_annihilation",
                   all(c["all_zero"] for c in cases) and control_nonzero,
                   {"cases": cases, "control_nonzero": control_nonzero,
                    "seed": seed})


def suite_mps_equivalence():
    """Boson and matrix product constructions agree up to one global scalar."""
    cases = []
    for S in (1, 2):
        for L in (3, 4, 5, 6):
            boson = vbsstate.build_pbc(S, L)
            g = mpscore.contract_pbc(mpscore.tensor_g(S), L)
            f = mpscore.contract_pbc(mpscore.tensor_f(S), L)
            prop = g.proportional_to(boson)
            gauge = f.amps == g.amps and f.prefactor == g.prefactor
            cases.append({"S": S, "L": L, "boundary": "periodic",
                          "proportional": prop, "gauge_equal": gauge})
    passed = all(c["proportional"] and c["gauge_equal"] for c in cases)
    ratios = []
    open_ok = same_radicand = True
    for p1 in range(1, 4):
        for p2 in range(1, 4):
            b = vbsstate.build_open(2, 3, p1, p2)
            m = mpscore.contract_open(2, 3, p1, p2)
            prop = m.proportional_to(b)
            open_ok = open_ok and prop
            if prop:
                ref = min(m.amps)
                ratios.append((m.amps[ref], b.amps[ref]))
                same_radicand = same_radicand and m.prefactor == b.prefactor
    # under equal radicands the physical ratio is the Laurent one
    constant = same_radicand and bool(ratios) and all(
        n * ratios[0][1] == ratios[0][0] * d for n, d in ratios[1:])
    cases.append({"S": 2, "L": 3, "boundary": "open",
                  "proportional": open_ok, "ratio_constant": constant})
    return _report("mps_equivalence",
                   "matrix product contraction reproduces the boson "
                   "states exactly up to a parameter-independent scalar",
                   "mps_boson_equivalence", passed and open_ok and constant,
                   {"cases": cases})


def suite_sz_distribution():
    """Exact S=2 distribution identities and numeric normalization."""
    exact = transfercorr.sz_distribution_exact(2)
    ref = transfercorr.sz_probabilities_reference_spin2()
    exact_ok = all(exact[m] == ref[m] for m in range(-2, 3))
    total_exact = sum(exact.values(), RatQ(0)) == RatQ(1)
    iso = transfercorr.sz_distribution(2, 1)
    iso_ok = all(abs(p - 0.2) < 1e-12 for p in iso)
    grid = [Fraction(n, 4) for n in range(2, 9)]
    sums = []
    norm_ok = True
    for q0 in grid:
        s = sum(transfercorr.sz_distribution(2, q0))
        sums.append({"q": str(q0), "sum": s})
        norm_ok = norm_ok and abs(s - 1) < 1e-14
    aniso = transfercorr.sz_distribution(2, Fraction(1, 2))
    planar = aniso[2] > 0.2  # P(m=0) grows away from the isotropic point
    return _report("sz_distribution",
                   "spin-resolved probabilities match their closed forms "
                   "exactly and normalize to one",
                   "sz_probability_closed_forms_s2",
                   exact_ok and total_exact and iso_ok and norm_ok and planar,
                   {"exact_identities": exact_ok, "sum_exact_one": total_exact,
                    "isotropic_uniform": iso_ok, "sums": sums,
                    "planar_preference_at_q_half": planar})


def suite_closed_form_correlators():
    """Printed S=2/S=3 spin-spin correlators against the spectral route."""
    tol = 1e-9
    rows = []
    for S in (2, 3):
        for q0 in (Fraction(7, 10), Fraction(1), Fraction(13, 10)):
            for r in range(2, 9):
                a = transfercorr.closed_form_szsz(S, q0, r)
                b = transfercorr.two_point_thermo("sz", "sz", S, q0, r)
                rows.append({"S": S, "q": str(q0), "r": r, "closed": a,
                             "spectral": b,
                             "match": abs(a - b) <= tol * max(1.0, abs(a))})
    iso_ok = all(abs(transfercorr.closed_form_szsz(S, 1, r)
                     - transfercorr.isotropic_szsz_limit(S, r)) < 1e-12
                 for r in range(2, 9) for S in (2, 3))
    # the printed thermodynamic variant with an n-independent site-1 factor
    # collapses to zero here (the one-point function vanishes); flagged, the
    # finite-size-consistent form is the one in use
    q0 = Fraction(9, 10)
    finite = transfercorr.two_point_finite("sz", "sz", 2, q0, 200, 5)
    used = transfercorr.two_point_thermo("sz", "sz", 2, q0, 5)
    printed = transfercorr.two_point_thermo_printed_form("sz", "sz", 2, q0, 5)
    return _report("closed_form_correlators",
                   "closed-form spin-spin correlators match the spectral "
                   "computation and their isotropic limits",
                   "szsz_closed_form_s2_s3",
                   all(row["match"] for row in rows) and iso_ok,
                   {"tolerance": tol, "comparisons": rows,
                    "isotropic_limits": iso_ok,
                    "thermo_form_flag": {
                        "finite_L200": finite,
                        "implemented_form": used,
                        "printed_variant": printed,
                        "printed_variant_consistent": abs(printed - finite) < 1e-10,
                    }})


def suite_oracle_closure():
    """Finite-size transfer traces against brute-force dense contraction."""
    rows = []
    for q0 in (Fraction(1), Fraction(9, 10)):
        for r in range(2, 6):
            a = transfercorr.two_point_finite("sz", "sz", 2, q0, 10, r)
            b = mpscore.dense_pbc_two_point_sz(2, 10, q0, r)
            rows.append({"q": str(q0), "L": 10, "r": r, "transfer": a,
                         "dense": b, "match": abs(a - b) < 1e-10})
    conv = []
    q0 = Fraction(9, 10)
    thermo = transfercorr.two_point_thermo("sz", "sz", 2, q0, 5)
    for L in (20, 50, 100, 200):
        fin = transfercorr.two_point_finite("sz", "sz", 2, q0, L, 5)
        conv.append({"L": L, "finite": fin, "abs_diff": abs(fin - thermo)})
    converged = conv[-1]["abs_diff"] < 1e-10
    return _report("oracle_closure",
                   "finite-size transfer correlators equal the dense "
                   "contraction and converge to the infinite-chain value",
                   "finite_size_trace_formula",
                   all(row["match"] for row in rows) and converged,
                   {"dense_comparisons": rows, "convergence": conv,
                    "thermo_value": thermo})


def suite_algebra():
    """Operator identities of the deformed algebra on the polynomial spaces."""
    comm_ok = True
    for a in range(0, 9):
        for b in range(0, 9 - a):
            p = SitePoly.monomial({1: (a, b)})
            lhs = (apply_generator(apply_generator(p, XMINUS, 1), XPLUS, 1)
                   - apply_generator(apply_generator(p, XPLUS, 1), XMINUS, 1))
            w = a - b
            rhs = SitePoly.zero() if w == 0 else p.scale(
                q_integer(abs(w)) * (1 if w > 0 else -1))
            comm_ok = comm_ok and lhs == rhs
            # [H, X+-] = +-2 X+-: the generators shift the weight by exactly 2
            for gen, sgn in ((XPLUS, 2), (XMINUS, -2)):
                moved = apply_generator(p, gen, 1)
                comm_ok = comm_ok and apply_generator(moved, QH, 1) == moved.scale(
                    LaurentQ.q_power(w + sgn))
    boson_ok = True
    for a in range(0, 9):
        for b in range(0, 9 - a):
            p = SitePoly.monomial({1: (a, b)})
            l1 = (apply_boson(apply_boson(p, "adag", 1), "a", 1)
                  - apply_boson(apply_boson(p, "a", 1), "adag", 1).scale(
                      LaurentQ.q_power(1)))
            boson_ok = boson_ok and l1 == p.scale(LaurentQ.q_power(-a))
            l2 = (apply_boson(apply_boson(p, "bdag", 1), "b", 1)
                  - apply_boson(apply_boson(p, "b", 1), "bdag", 1).scale(
                      LaurentQ.q_power(1)))
            boson_ok = boson_ok and l2 == p.scale(LaurentQ.q_power(-b))
    product_ok = True
    for m in range(0, 7):
        lhs = [LaurentQ.one()]
        for j in range(1, m + 1):
            nxt = [LaurentQ.zero()] * (len(lhs) + 1)
            for d, c in enumerate(lhs):
                nxt[d] = nxt[d] + c
                nxt[d + 1] = nxt[d + 1] - c * LaurentQ.q_power(2 * j - 2)
            lhs = nxt
        rhs = [LaurentQ.q_power(k * (m - 1), (-1) ** k) * q_binomial(m, k)
               for k in range(m + 1)]
        product_ok = product_ok and lhs == rhs
    return _report("algebra",
                   "commutation relations, boson relations, and the "
                   "finite product identity hold exactly",
                   "deformed_algebra_identities",
                   comm_ok and boson_ok and product_ok,
                   {"commutators": comm_ok, "boson_relations": boson_ok,
                    "product_identity_m_le_6": product_ok})


def suite_symmetries():
    """Measured structural symmetries; reported, asserted where exact."""
    # translation invariance of the closed chain, exact
    trans_ok = True
    for S, L in ((1, 4), (2, 4)):
        st = vbsstate.build_pbc(S, L)
        trans_ok = trans_ok and st.translated().amps == st.amps
    # bar symmetry q <-> 1/q: spectrum and correlators
    bar_rows = []
    bar_ok = True
    for S in (1, 2, 3):
        q0 = Fraction(4, 5)
        e1 = transfercorr.spectral_data(S, q0).es
        e2 = transfercorr.spectral_data(S, 1 / q0).es
        d = float(np.abs(e1.eigenvalues - e2.eigenvalues).max())
        ok = bool(d < 1e-9 * abs(e1.top))
        bar_ok = bar_ok and ok
        bar_rows.append({"S": S, "spectrum_diff": d, "match": ok})
    for S in (2, 3):
        a = transfercorr.two_point_thermo("sz", "sz", S, Fraction(4, 5), 4)
        b = transfercorr.two_point_thermo("sz", "sz", S, Fraction(5, 4), 4)
        bar_ok = bar_ok and abs(a - b) < 1e-9 * max(1, abs(a))
    # spin flip + inversion, held exactly: reversal with m -> -m fixes the
    # amplitudes; m -> -m alone conjugates q with sign (-1)^(L S)
    flip_rows = []
    flip_ok = True
    for S, L in ((1, 6), (2, 5)):
        st = vbsstate.build_pbc(S, L)
        sign = -1 if (L * S) % 2 else 1
        ok = all(
            a == st.amps[tuple(-m for m in reversed(k))]
            and a == st.amps[tuple(-m for m in k)].bar() * sign
            for k, a in st.amps.items())
        flip_ok = flip_ok and ok
        flip_rows.append({"S": S, "L": L, "exact": ok})
    # exponential decay rate approaches lambda2/lambda1
    q0 = Fraction(9, 10)
    es = transfercorr.spectral_data(2, q0).es
    lam_ratio = es.groups[1][0] / es.groups[0][0]
    vals = [transfercorr.two_point_thermo("sz", "sz", 2, q0, r)
            for r in range(2, 14)]
    measured = vals[-1] / vals[-2]
    decay_ok = abs(measured - lam_ratio) < 1e-6
    # finite-size convergence monotone beyond a small size
    thermo = transfercorr.two_point_thermo("sz", "sz", 2, q0, 5)
    diffs = [abs(transfercorr.two_point_finite("sz", "sz", 2, q0, L, 5) - thermo)
             for L in range(10, 60, 5)]
    monotone_from = next(
        (i for i in range(len(diffs)) if all(
            diffs[j] >= diffs[j + 1] for j in range(i, len(diffs) - 1))),
        None)
    # closed-chain kernel via the numeric route; measured, not asserted
    kernel_rows = []
    for S, L in ((1, 4), (1, 6), (2, 4)):
        H = cgproj.hamiltonian(S, L, Fraction(4, 5)) @ np.eye((2 * S + 1) ** L)
        sv = np.linalg.svd(H, compute_uv=False)
        kernel_rows.append({"S": S, "L": L,
                            "kernel_dim": int((sv < 1e-10 * sv.max()).sum())})
    return _report("symmetries",
                   "translation, bar symmetry, spin flip, decay rate, "
                   "and measured kernel dimensions",
                   "structural_symmetries",
                   trans_ok and bar_ok and flip_ok and decay_ok,
                   {"translation_exact": trans_ok,
                    "bar_symmetry": bar_rows,
                    "spin_flip": flip_rows,
                    "decay_ratio_measured": measured,
                    "decay_ratio_expected": lam_ratio,
                    "monotone_from_index": monotone_from,
                    "finite_size_diffs": diffs,
                    "pbc_kernel_dims_measured": kernel_rows})


def suite_exact_certificates(spin=None):
    """Identity-level proofs beyond the numeric battery.

    The two-site solution space is identified exactly with the bond-product
    multiples (inclusion plus dimension count), and the closed-form spectrum
    with multiplicities is proved exactly on the blocks of the rational
    similar core: a lowering operator carries each block into the next
    larger one, and the trace differences name the level each step adds.
    The default run stops at S=4; with spin given, the spectrum certificate
    of that S alone is run (see the README for its cost).
    """
    if spin is not None:
        cert = transfercorr.conjecture_exact_certificate(spin)
        return _report("exact_certificates", "the spectrum closed form of "
                       "S=%d proved, as an identity in q" % spin,
                       "exact_identity_certificates", cert["proved"],
                       {"spectrum_certificates": [cert]})
    lemma = [vbsstate.verify_two_site_lemma(S) for S in (1, 2, 3)]
    certs = [transfercorr.conjecture_exact_certificate(S) for S in (1, 2, 3, 4)]
    return _report("exact_certificates",
                   "two-site solution space identified and the spectrum "
                   "closed form proved, as identities in q",
                   "exact_identity_certificates",
                   all(r["solution_space_identified"] for r in lemma)
                   and all(r["proved"] for r in certs),
                   {"two_site_lemma": lemma, "spectrum_certificates": certs})


SUITE_BY_NAME = {
    "spectrum": suite_spectrum_s2,
    "conjecture": suite_eigenvalue_conjecture,
    "divisibility": suite_divisibility,
    "groundstate": suite_ground_state,
    "mps": suite_mps_equivalence,
    "szdist": suite_sz_distribution,
    "correlators": suite_closed_form_correlators,
    "oracle": suite_oracle_closure,
    "algebra": suite_algebra,
    "symmetries": suite_symmetries,
    "certificates": suite_exact_certificates,
}

# the acceptance criteria 1..9, in order
ACCEPTANCE_SUITES = ("spectrum", "conjecture", "divisibility", "groundstate",
                     "mps", "szdist", "correlators", "oracle", "algebra")


def run_suite(name, seed=0, spin=None):
    """The report of one suite, exactly as `qvbs verify` prints it.

    With spin given, divisibility and certificates check that one S alone,
    in the same report shape. seed reaches only the ground-state suite's
    random control. The suite is looked up in SUITE_BY_NAME on each call,
    so a replaced entry is run.
    """
    if spin is not None and name not in ("divisibility", "certificates"):
        raise ValueError(
            "--spin applies only to --suite divisibility or certificates")
    fn = SUITE_BY_NAME.get(name)
    if fn is None:
        raise ValueError("unknown suite %r; choose from %s" % (
            name, ", ".join(sorted(SUITE_BY_NAME))))
    if spin is not None:
        return fn(spin=spin)
    return fn(seed=seed) if name == "groundstate" else fn()


def run_acceptance(seed=0, progress=None):
    """Run the full acceptance battery; one report entry per criterion.

    progress(report, seconds), if given, sees each criterion as it ends,
    with its wall time; the reports themselves hold no time.
    """
    items = []
    for i, name in enumerate(ACCEPTANCE_SUITES, start=1):
        t0 = time.perf_counter()
        rep = run_suite(name, seed=seed)
        seconds = time.perf_counter() - t0
        rep["criterion"] = i
        items.append(rep)
        if progress:
            progress(rep, seconds)
    return {"items": items, "passed": all(r["passed"] for r in items)}
