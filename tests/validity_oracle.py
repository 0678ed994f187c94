"""The full interpretation validity check, kept as the reference that
gatcat.check_interpretation is checked against.

It checks each translated declaration judgment in full through
deriv.check_judgment: the translated context, the statement's scope and
presuppositions, then its claim.  gatcat.check_interpretation checks
the claims alone and takes the rest from the certified source; over
the same fuel the two must agree, error messages included.
"""

from gatc import deriv
from gatc.errors import GatError
from gatc.gatcat import Interpretation, _default_rules


def check_interpretation(
    interp: Interpretation, rules=None, fuel: deriv.Fuel = deriv.DEFAULT_FUEL
) -> deriv.JudgmentResult:
    rules = rules if rules is not None else _default_rules(interp.src, interp.dst)
    for d in interp.src.decls:
        j = deriv.Judgment(interp.apply_ctx(d.ctx), d.judgment().map(interp.apply))
        try:
            r = deriv.check_judgment(interp.dst, j, rules, fuel)
        except GatError as exc:
            raise type(exc)(f"at source symbol {d.name!r}: {exc}") from None
        if not r.ok:
            return deriv.JudgmentResult("inconclusive", f"obligation for {d.name!r}: {r.detail}")
    return deriv.JudgmentResult("ok")
