"""Deterministic report assembly and rendering.

One payload dict feeds both output modes.  JSON output is canonical
(sorted keys, two-space indent, trailing newline) and the text renderer
walks the same payload, so repeated runs on the same input are
byte-identical in either mode.  Every section that a record carries is
that record's _asdict() (grading.InvariantReport, verdicts.Verdict,
verdicts.ChainIdentity, verdicts.ConjectureSet, hodge.PolarizationResult);
to_json sorts the keys and writes tuples as lists.  Exact scalars are
serialized in one place, the hook _exact that to_json hands json.dumps:
a Fraction becomes a JSON integer when integral and an "a/b" string
otherwise, and nothing is ever converted to a float.
"""

from __future__ import annotations

import json
from fractions import Fraction


def trdeg_json(result, seed, source: str = "flag_point") -> dict:
    """The trdeg section of a flags.TrdegResult.  A declared override is a
    result with no chart and no parameters, under source "override"."""
    return {
        "value": result.value,
        "source": source,
        "params": list(result.params),
        "chart_length": len(result.chart_coordinates),
        "seed": seed,
        "certificate": result.certificate,
    }


def group_json(algebra) -> dict:
    return {
        "name": algebra.name,
        "ambient_dim": algebra.ambient_dim,
        "dim": algebra.dim,
    }


def hodge_numbers_json(numbers) -> dict:
    return {
        "weight": numbers.weight,
        "dims": [[p, q, h] for p, q, h in numbers.types_sorted()],
        "total_dim": numbers.total_dim(),
    }


def _exact(value):
    """The JSON image of a scalar json cannot write itself: a Fraction."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"no exact JSON image for {type(value).__name__}")


def to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_exact) + "\n"


# -- text rendering --------------------------------------------------------------

def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _levels_line(levels) -> str:
    return "  ".join(f"{k}:{d}" for k, d in levels) or "(empty)"


def _render_invariants(lines, inv: dict, heading: str):
    lines.append(heading)
    lines.append(f"  dim g              {inv['dim_g']}")
    lines.append(f"  flag dim           {inv['flag_dim']}")
    lines.append(f"  hcodim             {inv['hcodim']}")
    lines.append(f"  dim g_(-1)         {inv['g_minus_one_dim']}")
    lines.append(f"  shimura type       {_yesno(inv['shimura_type'])}")
    lines.append(f"  symmetric grading  {_yesno(inv['symmetric_grading'])}")
    lines.append(f"  levels             {_levels_line(inv['levels'])}")


def _render_trdeg(lines, tr: dict):
    lines.append("transcendence degree")
    lines.append(f"  value              {tr['value']}")
    lines.append(f"  source             {tr['source']}")
    params = ", ".join(tr["params"]) or "(none)"
    lines.append(f"  params             {params}")
    seed = tr["seed"] if tr["seed"] is not None else "(none)"
    lines.append(f"  seed               {seed}")
    if tr["certificate"] is not None:
        cert = tr["certificate"]
        point = ", ".join(str(x) for x in cert["point"])
        lines.append(
            f"  certificate        rank {cert['evaluated_rank']} at ({point})"
        )


def render_text(payload: dict) -> str:
    lines = [f"hodgescreen {payload['command']} {payload['spec']}", ""]
    if "group" in payload:
        g = payload["group"]
        lines.append(
            f"group              {g['name']}   ambient {g['ambient_dim']}   dim {g['dim']}"
        )
    if "cocharacter" in payload:
        lam = ", ".join(str(w) for w in payload["cocharacter"])
        lines.append(f"cocharacter        [{lam}]")
    if "hodge_numbers" in payload:
        hn = payload["hodge_numbers"]
        cells = "  ".join(f"h({p},{q})={h}" for p, q, h in hn["dims"])
        lines.append(f"hodge numbers      weight {hn['weight']}   {cells}")
    lines.append("")
    if "checks" in payload:
        lines.append("checks")
        for name in sorted(payload["checks"]):
            lines.append(f"  {name.replace('_', ' '):<24} ok")
        lines.append("")
    if "invariants" in payload:
        _render_invariants(lines, payload["invariants"], "invariants (Mumford-Tate side)")
        lines.append("")
    if payload.get("gand_invariants"):
        _render_invariants(
            lines, payload["gand_invariants"], "invariants (motivic Galois model side)"
        )
        lines.append("")
    if payload.get("trdeg"):
        _render_trdeg(lines, payload["trdeg"])
        lines.append("")
    if "chain_identity" in payload:
        lines.append("chain identity")
        for chain in payload["chain_identity"]:
            lines.append(
                f"  flag_dim {chain['flag_dim']} - dim g_(-1) "
                f"{chain['g_minus_one_dim']} = hcodim {chain['hcodim']}  (holds)"
            )
        lines.append("")
    if "verdicts" in payload:
        lines.append("verdicts")
        for v in payload["verdicts"]:
            lines.append(f"  [{v['kind']}] {v['narrative']}")
        lines.append("")
    if payload.get("polarization"):
        pol = payload["polarization"]
        lines.append("polarization")
        lines.append(f"  status             {pol['status']}")
        if pol["detail"]:
            lines.append(f"  detail             {pol['detail']}")
        if pol["witness"] is not None:
            lines.append(f"  witness            {pol['witness']}")
        lines.append("")
    if payload.get("warnings"):
        lines.append("warnings")
        for w in payload["warnings"]:
            lines.append(f"  - {w}")
        lines.append("")
    lines.append(f"exit code {payload['exit_code']}")
    return "\n".join(lines) + "\n"
