"""Ordering recipes: the unit the autotuner searches over.

An :class:`OrderingRecipe` bundles exactly the symbolic knobs our
ablations show interact — the fill-reducing ordering (plus its
parameters) and the supernode amalgamation tolerance. ``mindeg`` nearly
halves fill on sherman3 yet *loses* at P=8 because supernodes fragment
(668 vs 83, ``benchmarks/results/ablation_ordering.txt``); a recipe is
the joint setting that has to be tuned per pattern, not per knob.

Recipes are frozen, hashable, and round-trip through a compact
``spec`` string (``amd``, ``dissect:leaf_size=96,pad=0.4``) used by the
``repro analyze --recipe`` / ``repro tune`` CLIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.numeric.solver import (
    DEFAULT_MAX_PADDING,
    DEFAULT_MAX_SUPERNODE,
    DEFAULT_ORDERING,
    ORDERINGS,
    SolverOptions,
)

#: Short spec-string aliases for the amalgamation knobs.
_SPEC_ALIASES = {
    "pad": "max_padding",
    "max": "max_supernode",
    "amalg": "amalgamation",
}

_MAPPING_REMOVED = (
    "recipes no longer carry a mapping (got {!r}): a recipe is purely "
    "symbolic, and the task-to-processor mapping is an argument of the "
    "simulator call (simulate_schedule(..., mapping))"
)


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


@dataclass(frozen=True)
class OrderingRecipe:
    """One joint (ordering, ordering params, amalgamation) setting.

    Attributes
    ----------
    ordering:
        Name from :data:`repro.numeric.solver.ORDERINGS`.
    params:
        Sorted tuple of ``(name, value)`` keyword pairs for the ordering
        (e.g. ``(("leaf_size", 96),)``), kept hashable for cache keys.
    amalgamation / max_padding / max_supernode:
        The §3 supernode amalgamation knobs the recipe pins jointly with
        the ordering.

    These five fields are exactly what :meth:`apply` folds into
    :class:`SolverOptions`, so recipe identity is plan identity: how a
    plan's task graph is *placed* on processors is not a recipe's business.
    """

    ordering: str = DEFAULT_ORDERING
    params: tuple = ()
    amalgamation: bool = True
    max_padding: float = DEFAULT_MAX_PADDING
    max_supernode: int = DEFAULT_MAX_SUPERNODE

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        object.__setattr__(
            self, "params", tuple(sorted((str(k), v) for k, v in self.params))
        )
        if not (0.0 <= self.max_padding < 1.0):
            raise ValueError(f"max_padding must be in [0, 1), got {self.max_padding}")
        if self.max_supernode < 1:
            raise ValueError(f"max_supernode must be >= 1, got {self.max_supernode}")

    # ------------------------------------------------------------------
    def apply(self, base: Optional[SolverOptions] = None) -> SolverOptions:
        """Solver options with this recipe's knobs set.

        Everything the recipe does not own (postordering, task graph,
        equilibration) is carried over from ``base``.
        """
        import dataclasses

        base = base if base is not None else SolverOptions()
        return dataclasses.replace(
            base,
            ordering=self.ordering,
            ordering_params=self.params,
            amalgamation=self.amalgamation,
            max_padding=float(self.max_padding),
            max_supernode=int(self.max_supernode),
        )

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """Compact CLI form, parseable by :meth:`parse`."""
        parts = [f"{k}={v}" for k, v in self.params]
        if not self.amalgamation:
            parts.append("amalg=false")
        if self.max_padding != DEFAULT_MAX_PADDING:
            parts.append(f"pad={self.max_padding:g}")
        if self.max_supernode != DEFAULT_MAX_SUPERNODE:
            parts.append(f"max={self.max_supernode}")
        return self.ordering + (":" + ",".join(parts) if parts else "")

    @classmethod
    def parse(cls, spec: str) -> "OrderingRecipe":
        """Parse ``ordering[:key=value,...]`` (aliases: pad, max, amalg).

        >>> OrderingRecipe.parse("amd:pad=0.4").max_padding
        0.4
        """
        spec = spec.strip()
        ordering, _, rest = spec.partition(":")
        if not ordering:
            raise ValueError(f"empty recipe spec {spec!r}")
        kwargs: dict = {"ordering": ordering}
        params: list[tuple[str, object]] = []
        for part in filter(None, (p.strip() for p in rest.split(","))):
            name, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"recipe spec field {part!r} is not key=value")
            name = _SPEC_ALIASES.get(name, name)
            if name in ("map", "mapping"):
                raise ValueError(_MAPPING_REMOVED.format(part))
            if name in ("amalgamation", "max_padding", "max_supernode"):
                kwargs[name] = _coerce(value)
            else:
                params.append((name, _coerce(value)))
        kwargs["params"] = tuple(params)
        return cls(**kwargs)

    def __str__(self) -> str:
        return self.spec()
