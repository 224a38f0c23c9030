"""Conditional screening verdicts.

Every conclusion that depends on an open conjecture says so: a Verdict
carries machine-readable labels of the hypotheses it is conditional on,
and the narrative spells them out.  conditional_on is empty only for
unconditional arithmetic facts.  The conjecture toggles are explicit
inputs; nothing here defaults them on.

The screening inequality: a structure whose Hodge filtration is defined
over a field of transcendence degree strictly below the horizontal
codimension of its Mumford-Tate flag variety cannot come from geometry,
conditional on Hodge cycles being motivated plus the generalized
Grothendieck period conjecture.  The special case trdeg = 0 against a
group that is not of Shimura type is surfaced separately as
shimura_violation.  When the toggles are off, both downgrade to a bare
"bound" verdict that records the inequality but draws no conclusion.

The unconditional part is the identity

    flag_dim - dim g_{-1} = hcodim,

re-checked on every run: chain_identity raises IdentityViolation (which
would mean corrupted state) before it builds a ChainIdentity, so every
one it returns holds.  Beside it come the bookkeeping bounds: any
defining field of the filtration has transcendence degree at most
dim g_{-1} (conditional on motivated), and trdeg of the structure is at
least flag_dim minus that (conditional on the generalized period
conjecture).  When a larger group models the motivic Galois group, the
bound pair is computed on both sides.

Verdict, ChainIdentity and ConjectureSet are NamedTuples; the command
line writes each as its _asdict().
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import IdentityViolation
from .grading import InvariantReport

MOTIVATED = "hodge-cycles-motivated"
GGPC = "generalized-grothendieck-period-conjecture"

_LABEL_TEXT = {
    MOTIVATED: "Hodge cycles are motivated",
    GGPC: "the generalized Grothendieck period conjecture",
}


class ConjectureSet(NamedTuple):
    """Explicit toggles for the conditional hypotheses; gpc is recorded
    and echoed, but no verdict depends on it."""

    motivated: bool
    gpc: bool
    ggpc: bool


class Verdict(NamedTuple):
    """One conclusion or bound.  kind is one of not_from_geometry,
    consistent, shimura_violation, maximal_transcendence and bound; only
    the builders below make verdicts."""

    kind: str
    payload: dict
    conditional_on: tuple
    narrative: str


def _conditions_text(labels) -> str:
    return "; ".join(_LABEL_TEXT[l] for l in labels)


def _not_from_geometry(kind: str, payload: dict, conjectures: ConjectureSet,
                       premise: str, bare_premise: str, test: str) -> Verdict:
    """The rule both screens share: premise shows the structure is not from
    geometry, conditional on motivated Hodge cycles and the generalized
    period conjecture, so kind's verdict requires both toggles on.  Otherwise
    a bound records bare_premise and draws no conclusion."""
    labels = (MOTIVATED, GGPC)
    if conjectures.motivated and conjectures.ggpc:
        return Verdict(kind, payload, labels, (
            f"{premise}: this Hodge structure is not from geometry "
            f"(conditional on: {_conditions_text(labels)})"))
    needed = " and ".join(f"'{_LABEL_TEXT[label]}'" for label in labels)
    return Verdict("bound", payload, (), (
        f"{bare_premise}, but the {test} conclusion needs both {needed} "
        "enabled; no conclusion about geometric origin"))


def screen(trdeg_value: int, report: InvariantReport, conjectures: ConjectureSet) -> Verdict:
    """The main screening inequality trdeg < hcodim."""
    t, h = int(trdeg_value), report.hcodim
    payload = {"trdeg": t, "hcodim": h}
    if t >= h:
        return Verdict("consistent", payload, (), (
            f"transcendence degree {t} >= horizontal codimension {h}: "
            f"no obstruction from the screening inequality"))
    premise = f"transcendence degree {t} < horizontal codimension {h}"
    return _not_from_geometry("not_from_geometry", payload, conjectures,
                              premise, premise, "screening")


def shimura_necessity(trdeg_value: int, report: InvariantReport,
                      conjectures: ConjectureSet) -> Verdict:
    """Special case: a Q-bar-defined filtration forces Shimura type."""
    t = int(trdeg_value)
    payload = {"trdeg": t, "shimura_type": report.shimura_type}
    if t != 0 or report.shimura_type:
        return Verdict("consistent", payload, (),
                       "the Shimura-type necessity test does not reject this structure")
    premise = ("the filtration is defined over the algebraic numbers {} the group "
               "is not of Shimura type")
    return _not_from_geometry("shimura_violation", payload, conjectures,
                              premise.format("but"), premise.format("and"), "necessity")


def maximal_transcendence_verdict(trdeg_value: int, report: InvariantReport) -> Verdict | None:
    t = int(trdeg_value)
    if t != report.flag_dim:
        return None
    return Verdict("maximal_transcendence", {"trdeg": t, "flag_dim": report.flag_dim}, (), (
        f"transcendence degree {t} equals the flag variety dimension "
        f"{report.flag_dim}: the filtration is maximally transcendental"))


def field_descent_bound(report: InvariantReport, side: str = "Mumford-Tate") -> Verdict:
    """Upper bound on the transcendence degree of any field of definition
    of the filtration: dim g_{-1}, conditional on motivated Hodge cycles."""
    bound = report.g_minus_one_dim
    return Verdict("bound", {"defining_field_trdeg_max": bound}, (MOTIVATED,), (
        f"[{side} side] any field of definition of the filtration has "
        f"transcendence degree at most {bound} over the rationals "
        f"(conditional on: {_conditions_text((MOTIVATED,))})"))


def trdeg_lower_bound(flag_dim: int, defining_field_trdeg: int,
                      side: str = "Mumford-Tate") -> Verdict:
    """Lower bound trdeg >= flag_dim - trdeg(K), conditional on the
    generalized Grothendieck period conjecture."""
    dim, k = int(flag_dim), int(defining_field_trdeg)
    bound = max(0, dim - k)
    payload = {"trdeg_min": bound, "flag_dim": dim, "defining_field_trdeg": k}
    return Verdict("bound", payload, (GGPC,), (
        f"[{side} side] the transcendence degree of the structure is at least "
        f"{flag_dim} - {defining_field_trdeg} = {bound} "
        f"(conditional on: {_conditions_text((GGPC,))})"))


class ChainIdentity(NamedTuple):
    """flag_dim - dim g_{-1} = hcodim, an unconditional identity."""

    flag_dim: int
    g_minus_one_dim: int
    hcodim: int


def chain_identity(report: InvariantReport) -> ChainIdentity:
    """The identity read off report; raises IdentityViolation when it
    fails, so every ChainIdentity this returns holds."""
    if report.flag_dim - report.g_minus_one_dim != report.hcodim:
        raise IdentityViolation(
            f"flag_dim {report.flag_dim} - dim g_(-1) {report.g_minus_one_dim} "
            f"!= hcodim {report.hcodim}"
        )
    return ChainIdentity(report.flag_dim, report.g_minus_one_dim, report.hcodim)


def evaluate(trdeg_value: int, report: InvariantReport, conjectures: ConjectureSet,
             gand_report: InvariantReport | None = None):
    """Full verdict list for one structure.

    Returns (verdicts, chain_identities).  When a model of the motivic
    Galois group is supplied, the bound pair is emitted for both sides.
    """
    verdicts = [
        screen(trdeg_value, report, conjectures),
        shimura_necessity(trdeg_value, report, conjectures),
    ]
    maximal = maximal_transcendence_verdict(trdeg_value, report)
    if maximal is not None:
        verdicts.append(maximal)
    sides = [("Mumford-Tate", report)]
    if gand_report is not None:
        sides.append(("motivic Galois model", gand_report))
    chains = []
    for side, side_report in sides:
        verdicts.append(field_descent_bound(side_report, side=side))
        verdicts.append(trdeg_lower_bound(
            side_report.flag_dim, side_report.g_minus_one_dim, side=side))
        chains.append(chain_identity(side_report))
    return verdicts, chains


def exit_code_for(verdicts) -> int:
    """0 when nothing was screened out, 10 when the structure was."""
    return 10 if any(v.kind == "not_from_geometry" for v in verdicts) else 0
