"""Recipe specs: the text form of what the autotuner searches over.

A recipe is the joint setting of the symbolic knobs our ablations show
interact — the fill-reducing ordering (plus its parameters) and the
supernode amalgamation bounds. ``mindeg`` nearly halves fill on sherman3
yet *loses* at P=8 because supernodes fragment (668 vs 83,
``benchmarks/results/ablation_ordering.txt``), so they are tuned jointly.
A recipe is those five fields of :class:`SolverOptions`; a spec string
(``amd``, ``dissect:leaf_size=96,pad=0.4``) sets exactly them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.numeric.solver import (
    DEFAULT_MAX_PADDING,
    DEFAULT_MAX_SUPERNODE,
    SolverOptions,
)
from repro.util.errors import DispatchError

#: Short spec-string aliases for the amalgamation knobs.
_SPEC_ALIASES = {
    "pad": "max_padding",
    "max": "max_supernode",
    "amalg": "amalgamation",
}


def _coerce(text: str):
    """Parse a spec-string value: bool, int, float, else the raw string."""
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_recipe(spec: str, base: Optional[SolverOptions] = None) -> SolverOptions:
    """Options from ``ordering[:key=value,...]`` (aliases: pad, max, amalg).

    A recipe knob the spec does not name takes its default; every other
    field is carried over from ``base``. A malformed spec, and any value
    ``SolverOptions`` rejects, raises
    :class:`~repro.util.errors.DispatchError` (a ``ValueError``).

    >>> parse_recipe("amd:pad=0.4").max_padding
    0.4
    """
    spec = spec.strip()
    ordering, _, rest = spec.partition(":")
    if not ordering:
        raise DispatchError(f"empty recipe spec {spec!r}")
    knobs: dict = {}
    params: list[tuple[str, object]] = []
    for part in filter(None, (p.strip() for p in rest.split(","))):
        name, sep, value = part.partition("=")
        if not sep:
            raise DispatchError(f"recipe spec field {part!r} is not key=value")
        name = _SPEC_ALIASES.get(name, name)
        if name in ("amalgamation", "max_padding", "max_supernode"):
            knobs[name] = _coerce(value)
        else:
            params.append((name, _coerce(value)))
    return dataclasses.replace(
        base if base is not None else SolverOptions(),
        ordering=ordering,
        ordering_params=tuple(params),
        amalgamation=knobs.get("amalgamation", True),
        max_padding=float(knobs.get("max_padding", DEFAULT_MAX_PADDING)),
        max_supernode=int(knobs.get("max_supernode", DEFAULT_MAX_SUPERNODE)),
    )


def recipe_spec(options: SolverOptions) -> str:
    """The spec string of ``options``' recipe, parseable by
    :func:`parse_recipe`; knobs at their defaults are left out.

    >>> recipe_spec(parse_recipe("amd:max=96,pad=0.4"))
    'amd:pad=0.4,max=96'
    """
    parts = [f"{k}={v}" for k, v in options.ordering_params]
    if not options.amalgamation:
        parts.append("amalg=false")
    if options.max_padding != DEFAULT_MAX_PADDING:
        parts.append(f"pad={options.max_padding:g}")
    if options.max_supernode != DEFAULT_MAX_SUPERNODE:
        parts.append(f"max={options.max_supernode}")
    return options.ordering + (":" + ",".join(parts) if parts else "")
