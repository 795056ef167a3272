"""Ordering recipes: the unit the autotuner searches over and caches.

An :class:`OrderingRecipe` bundles exactly the symbolic knobs our
ablations show interact — the fill-reducing ordering (plus its
parameters) and the supernode amalgamation tolerance. ``mindeg`` nearly
halves fill on sherman3 yet *loses* at P=8 because supernodes fragment
(668 vs 83, ``benchmarks/results/ablation_ordering.txt``); a recipe is
the joint setting that has to be tuned per pattern, not per knob.

Recipes are frozen, hashable, and round-trip through dicts and a compact
``spec`` string (``amd``, ``dissect:leaf_size=96,pad=0.4``) used by the
``repro analyze --recipe`` / ``repro tune`` CLIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.numeric.solver import DEFAULT_ORDERING, ORDERINGS, SolverOptions

#: Short spec-string aliases for the amalgamation and mapping knobs.
_SPEC_ALIASES = {
    "pad": "max_padding",
    "max": "max_supernode",
    "amalg": "amalgamation",
    "map": "mapping",
}

#: 1-D mapping policies a recipe may name (2-D specs are ``2d``/``2d:PRxPC``).
_1D_MAPPINGS = ("cyclic", "blocked", "greedy")


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
    mapping:
        Task-to-processor mapping policy the tuned plan should execute
        under: a 1-D policy (``cyclic``/``blocked``/``greedy``) or a 2-D
        grid spec (``2d`` for the most-square grid, ``2d:PRxPC`` for an
        explicit shape). Spec alias ``map=``. Unlike the other knobs this
        is an *execution* choice, not a symbolic one — :meth:`apply`
        deliberately leaves it out of :class:`SolverOptions`, so it never
        enters ``symbolic_key()`` or plan identity; the serving layer
        reads it off the plan's recipe at refactorize time.
    """

    ordering: str = DEFAULT_ORDERING
    params: tuple = ()
    amalgamation: bool = True
    max_padding: float = 0.25
    max_supernode: int = 48
    mapping: str = "cyclic"

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
        if self.mapping not in _1D_MAPPINGS and self.mapping != "2d":
            shape = self.mapping[3:] if self.mapping.startswith("2d:") else ""
            pr, sep, pc = shape.partition("x")
            if not (sep and pr.isdigit() and pc.isdigit() and int(pr) >= 1
                    and int(pc) >= 1):
                raise ValueError(
                    f"unknown mapping policy {self.mapping!r} (want one of "
                    f"{_1D_MAPPINGS} or '2d'/'2d:PRxPC')"
                )

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

    @classmethod
    def from_options(cls, options: SolverOptions) -> "OrderingRecipe":
        """The recipe embedded in ``options`` (inverse of :meth:`apply`)."""
        return cls(
            ordering=options.ordering,
            params=options.ordering_params,
            amalgamation=options.amalgamation,
            max_padding=float(options.max_padding),
            max_supernode=int(options.max_supernode),
        )

    @property
    def key(self) -> tuple:
        """Hashable identity (what the recipe store compares)."""
        return (
            self.ordering,
            self.params,
            self.amalgamation,
            float(self.max_padding),
            int(self.max_supernode),
            self.mapping,
        )

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """Compact CLI form, parseable by :meth:`parse`."""
        parts = [f"{k}={v}" for k, v in self.params]
        if not self.amalgamation:
            parts.append("amalg=false")
        if self.max_padding != 0.25:
            parts.append(f"pad={self.max_padding:g}")
        if self.max_supernode != 48:
            parts.append(f"max={self.max_supernode}")
        if self.mapping != "cyclic":
            parts.append(f"map={self.mapping}")
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
            if name == "mapping":
                kwargs[name] = value  # keep '2d:2x4' a string, un-coerced
            elif name in ("amalgamation", "max_padding", "max_supernode"):
                kwargs[name] = _coerce(value)
            else:
                params.append((name, _coerce(value)))
        kwargs["params"] = tuple(params)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready form (tuples become lists)."""
        return {
            "ordering": self.ordering,
            "params": [[k, v] for k, v in self.params],
            "amalgamation": self.amalgamation,
            "max_padding": float(self.max_padding),
            "max_supernode": int(self.max_supernode),
            "mapping": self.mapping,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OrderingRecipe":
        return cls(
            ordering=d["ordering"],
            params=tuple((k, v) for k, v in d.get("params", ())),
            amalgamation=bool(d.get("amalgamation", True)),
            max_padding=float(d.get("max_padding", 0.25)),
            max_supernode=int(d.get("max_supernode", 48)),
            mapping=str(d.get("mapping", "cyclic")),
        )

    def __str__(self) -> str:
        return self.spec()
