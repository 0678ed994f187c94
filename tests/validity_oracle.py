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
from gatc.gatcat import Interpretation


def check_interpretation(interp: Interpretation, fuel: deriv.Fuel = deriv.DEFAULT_FUEL) -> deriv.JudgmentResult:
    # a source under the Pi rules is checked over the target lifted to them
    dst = interp.dst.with_pi() if interp.src.pi else interp.dst
    for d in interp.src.decls:
        j = deriv.Judgment(interp.apply_ctx(d.ctx), d.judgment().map(interp.apply))
        try:
            r = deriv.check_judgment(dst, j, fuel=fuel)
        except GatError as exc:
            raise type(exc)(f"at source symbol {d.name!r}: {exc}") from None
        if not r.ok:
            return deriv.JudgmentResult("inconclusive", f"obligation for {d.name!r}: {r.detail}")
    return deriv.JudgmentResult("ok")
