"""Screening verdicts: every branch of the conditional logic."""

import itertools

import pytest

from hodgescreen import (
    ConjectureSet,
    IdentityViolation,
    InvariantReport,
    Verdict,
    chain_identity,
    evaluate,
    exit_code_for,
    field_descent_bound,
    maximal_transcendence_verdict,
    screen,
    shimura_necessity,
    trdeg_lower_bound,
)
from hodgescreen.verdicts import GGPC, MOTIVATED


def make_report(flag_dim, hcodim, shimura=None, dim_g=None):
    g1 = flag_dim - hcodim
    levels = []
    if hcodim:
        levels.append((-2, hcodim))
    if g1:
        levels.append((-1, g1))
    mirrored = [(-k, d) for k, d in reversed(levels)]
    zero = (dim_g if dim_g is not None else 2 * flag_dim + 1) - 2 * flag_dim
    levels = levels + [(0, zero)] + mirrored
    return InvariantReport(
        dim_g=sum(d for _k, d in levels),
        flag_dim=flag_dim,
        hcodim=hcodim,
        g_minus_one_dim=g1,
        shimura_type=(hcodim == 0) if shimura is None else shimura,
        symmetric_grading=True,
        levels=tuple(levels),
    )


ALL_ON = ConjectureSet(motivated=True, gpc=True, ggpc=True)
ALL_OFF = ConjectureSet(motivated=False, gpc=False, ggpc=False)


def test_screen_consistent_when_trdeg_reaches_hcodim():
    rep = make_report(4, 2)
    for t in (2, 3, 4, 9):
        v = screen(t, rep, ALL_OFF)
        assert v.kind == "consistent"
        assert v.conditional_on == ()
        assert "no obstruction" in v.narrative


def test_screen_rejects_only_with_both_hypotheses():
    rep = make_report(4, 2)
    for motivated, gpc, ggpc in itertools.product((False, True), repeat=3):
        conj = ConjectureSet(motivated, gpc, ggpc)
        v = screen(1, rep, conj)
        if motivated and ggpc:
            assert v.kind == "not_from_geometry"
            assert set(v.conditional_on) == {MOTIVATED, GGPC}
            assert "not from geometry" in v.narrative
            assert "conditional on" in v.narrative
        else:
            assert v.kind == "bound"
            assert v.conditional_on == ()
            assert "not from geometry" not in v.narrative
            assert "no conclusion" in v.narrative


BOTH = ("hodge-cycles-motivated", "generalized-grothendieck-period-conjecture")
BOTH_TEXT = ("Hodge cycles are motivated; the generalized Grothendieck period "
             "conjecture")
NEEDS_BOTH = ("needs both 'Hodge cycles are motivated' and 'the generalized "
              "Grothendieck period conjecture' enabled; no conclusion about "
              "geometric origin")


def test_every_screening_branch_has_its_exact_verdict():
    """kind, payload, conditional_on and narrative of each branch of
    screen and shimura_necessity, word for word."""
    rep, shimura = make_report(4, 2), make_report(3, 0)
    no_ggpc = ConjectureSet(motivated=True, gpc=True, ggpc=False)
    cases = [
        (screen(3, rep, ALL_OFF), "consistent", {"trdeg": 3, "hcodim": 2}, (),
         "transcendence degree 3 >= horizontal codimension 2: no obstruction "
         "from the screening inequality"),
        (screen(1, rep, ALL_ON), "not_from_geometry", {"trdeg": 1, "hcodim": 2}, BOTH,
         "transcendence degree 1 < horizontal codimension 2: this Hodge structure "
         f"is not from geometry (conditional on: {BOTH_TEXT})"),
        (screen(1, rep, no_ggpc), "bound", {"trdeg": 1, "hcodim": 2}, (),
         "transcendence degree 1 < horizontal codimension 2, but the screening "
         f"conclusion {NEEDS_BOTH}"),
        (shimura_necessity(1, rep, ALL_ON), "consistent",
         {"trdeg": 1, "shimura_type": False}, (),
         "the Shimura-type necessity test does not reject this structure"),
        (shimura_necessity(0, shimura, ALL_ON), "consistent",
         {"trdeg": 0, "shimura_type": True}, (),
         "the Shimura-type necessity test does not reject this structure"),
        (shimura_necessity(0, rep, ALL_ON), "shimura_violation",
         {"trdeg": 0, "shimura_type": False}, BOTH,
         "the filtration is defined over the algebraic numbers but the group is "
         "not of Shimura type: this Hodge structure is not from geometry "
         f"(conditional on: {BOTH_TEXT})"),
        (shimura_necessity(0, rep, ALL_OFF), "bound",
         {"trdeg": 0, "shimura_type": False}, (),
         "the filtration is defined over the algebraic numbers and the group is "
         f"not of Shimura type, but the necessity conclusion {NEEDS_BOTH}"),
    ]
    for v, kind, payload, conditional_on, narrative in cases:
        assert (v.kind, v.payload, v.conditional_on, v.narrative) == (
            kind, payload, conditional_on, narrative)


def test_screen_is_monotone_in_trdeg():
    rep = make_report(5, 3)
    kinds = [screen(t, rep, ALL_ON).kind for t in range(6)]
    assert kinds == ["not_from_geometry"] * 3 + ["consistent"] * 3


def test_shimura_necessity_branches():
    non_shimura = make_report(4, 2)
    v = shimura_necessity(0, non_shimura, ALL_ON)
    assert v.kind == "shimura_violation"
    assert set(v.conditional_on) == {MOTIVATED, GGPC}
    assert "not from geometry" in v.narrative

    downgraded = shimura_necessity(0, non_shimura, ALL_OFF)
    assert downgraded.kind == "bound"
    assert "not from geometry" not in downgraded.narrative

    assert shimura_necessity(1, non_shimura, ALL_ON).kind == "consistent"
    shimura = make_report(3, 0)
    assert shimura_necessity(0, shimura, ALL_ON).kind == "consistent"


def test_shimura_violation_always_pairs_with_screen_rejection():
    # hcodim >= 1 whenever the group is not of Shimura type, so trdeg 0
    # already fails the main inequality; the exit code never needs the
    # violation kind itself
    rep = make_report(4, 2)
    verdicts, _chains = evaluate(0, rep, ALL_ON)
    kinds = {v.kind for v in verdicts}
    assert "shimura_violation" in kinds
    assert "not_from_geometry" in kinds
    assert exit_code_for(verdicts) == 10


def test_maximal_transcendence_is_an_equality_check():
    rep = make_report(4, 2)
    assert maximal_transcendence_verdict(3, rep) is None
    v = maximal_transcendence_verdict(4, rep)
    assert v.kind == "maximal_transcendence"
    assert v.conditional_on == ()
    assert v.payload == {"trdeg": 4, "flag_dim": 4}


def test_bounds_carry_their_single_hypothesis():
    rep = make_report(4, 2)
    descent = field_descent_bound(rep)
    assert descent.kind == "bound"
    assert descent.conditional_on == (MOTIVATED,)
    assert descent.payload["defining_field_trdeg_max"] == 2
    assert "Mumford-Tate" in descent.narrative

    lower = trdeg_lower_bound(4, 2, side="motivic Galois model")
    assert lower.conditional_on == (GGPC,)
    assert lower.payload["trdeg_min"] == 2
    assert "motivic Galois model" in lower.narrative
    assert trdeg_lower_bound(1, 5).payload["trdeg_min"] == 0  # clamped


def test_chain_identity_holds_and_detects_corruption():
    rep = make_report(4, 2)
    chain = chain_identity(rep)
    assert chain.flag_dim - chain.g_minus_one_dim == chain.hcodim
    assert chain == (4, 2, 2)
    with pytest.raises(IdentityViolation):
        chain_identity(rep._replace(g_minus_one_dim=1))


def test_evaluate_collects_both_sides():
    rep = make_report(4, 2)
    bigger = make_report(6, 3)
    verdicts, chains = evaluate(5, rep, ALL_ON, gand_report=bigger)
    sides = [v.narrative for v in verdicts if v.kind == "bound"]
    assert sum("Mumford-Tate side" in s for s in sides) == 2
    assert sum("motivic Galois model side" in s for s in sides) == 2
    assert len(chains) == 2
    assert exit_code_for(verdicts) == 0

    only_main, main_chains = evaluate(1, rep, ALL_ON)
    assert len(main_chains) == 1
    assert exit_code_for(only_main) == 10


def test_every_rejection_names_its_hypotheses():
    reports = [make_report(f, h) for f in range(1, 6) for h in range(0, f + 1)]
    for rep in reports:
        for t in range(0, rep.flag_dim + 1):
            verdicts, _ = evaluate(t, rep, ALL_ON)
            for v in verdicts:
                if "not from geometry" in v.narrative:
                    assert v.conditional_on, v
                    assert "conditional on" in v.narrative


KINDS = {"not_from_geometry", "consistent", "shimura_violation",
         "maximal_transcendence", "bound"}


def test_verdict_kind_is_validated():
    """Over the grid of test_every_rejection_names_its_hypotheses, with
    the toggles on and off, every kind is one of the five documented
    names, and each of the five occurs."""
    reports = [make_report(f, h) for f in range(1, 6) for h in range(0, f + 1)]
    seen = set()
    for rep in reports:
        for t in range(0, rep.flag_dim + 1):
            for conjectures in (ALL_ON, ALL_OFF):
                verdicts, _ = evaluate(t, rep, conjectures)
                seen.update(v.kind for v in verdicts)
    assert seen == KINDS


def test_exit_code_keyed_on_not_from_geometry_alone():
    assert exit_code_for([Verdict("bound", {}, (), "")]) == 0
    assert exit_code_for([Verdict("shimura_violation", {}, (), "")]) == 0
    assert exit_code_for([Verdict("not_from_geometry", {}, (), "")]) == 10
