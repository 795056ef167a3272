"""Name resolution shared by the implementation selectors.

``repro.symbolic.dispatch`` and ``repro.parallel.dispatch`` both pick one
name out of a fixed set with the same precedence — explicit argument, then an environment variable, then a
default — and must fail the same way on a typo.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.util.errors import DispatchError


def resolve_choice(
    arg: Optional[str],
    env_var: str,
    valid: Sequence[str],
    default: str,
    what: str,
) -> str:
    """Resolve a selector: ``arg`` > ``$env_var`` > ``default``.

    An unset or empty environment variable falls through to ``default``.
    A name outside ``valid`` raises :class:`~repro.util.errors.DispatchError`
    (a ``ValueError``) naming the source of the bad value and the valid
    set, so a typo fails at resolution time instead of deep inside the
    pipeline. ``what`` names the thing being selected (``"engine"``).
    """
    choice = arg if arg is not None else os.environ.get(env_var) or default
    if choice not in valid:
        source = f"the {what} argument" if arg is not None else f"${env_var}"
        raise DispatchError(
            f"unknown {what} {choice!r} (from {source}); "
            f"valid {what}s: " + ", ".join(valid)
        )
    return choice
