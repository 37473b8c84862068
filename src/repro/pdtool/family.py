"""Design-family registry: one protocol from spec to netlist.

Before this module, ``repro.bench.generate`` hardcoded a per-design
``if/elif`` over the two MAC specs, and the FIR/ALU/fabric/CPU
generators each had their own ad-hoc entry points.  The registry
unifies them: a :class:`DesignFamily` knows its designs, builds their
specs and netlists at either scale, and supplies the fixed base
parameters its benchmarks assume — so benchmark generation, the CLI,
and the scenario matrix dispatch on
the *family token* (the first ``_``-separated token of a design name,
the same token :class:`~repro.pdtool.variation.VariationField` keys
systematic variation on) instead of growing more branches.

New families plug in with the decorator, mirroring the method registry
of :mod:`repro.experiments.scenarios`::

    @register_design_family("ring")
    class RingFamily:
        family = "ring"
        ...
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .cpu import (
    LARGE_CPU,
    PAPER_LARGE_CPU,
    PAPER_SMALL_CPU,
    SMALL_CPU,
    generate_cpu_netlist,
)
from .designs import (
    AluSpec,
    FirSpec,
    generate_alu_netlist,
    generate_fir_netlist,
)
from .fabric import (
    LARGE_FABRIC,
    PAPER_LARGE_FABRIC,
    PAPER_SMALL_FABRIC,
    SMALL_FABRIC,
    generate_fabric_netlist,
)
from .mac import (
    LARGE_MAC,
    PAPER_LARGE_MAC,
    PAPER_SMALL_MAC,
    SMALL_MAC,
    generate_mac_netlist,
)
from .netlist import Netlist

__all__ = [
    "DesignFamily",
    "design_family",
    "family_token",
    "register_design_family",
    "registered_design_families",
]


@runtime_checkable
class DesignFamily(Protocol):
    """What a registered design family must provide.

    A family unifies the whole construction chain for its designs:
    spec (:meth:`spec`) -> netlist (:meth:`netlist`) -> golden table
    (the bench layer calls :meth:`netlist`/:meth:`base_params` when it
    builds tables through ``BenchmarkStore``; the knob space comes from
    the benchmark, not the design).
    """

    #: The family token designs of this family are prefixed with.
    family: str

    def design_names(self) -> tuple[str, ...]:
        """Canonical design names this family can build, sorted."""
        ...

    def spec(self, design: str, full: bool | None = None) -> object:
        """The design's spec dataclass at the requested scale.

        Args:
            design: Canonical design name (e.g. ``"mac_small"``).
            full: Paper-scale when True, reduced when False; ``None``
                follows the ``PPATUNER_FULL`` environment convention.
        """
        ...

    def netlist(self, design: str, full: bool | None = None) -> Netlist:
        """Generate the design's gate-level netlist."""
        ...

    def base_params(self, design: str) -> dict[str, object]:
        """Fixed tool parameters for knobs the space does not tune."""
        ...


def _full_scale(full: bool | None) -> bool:
    if full is not None:
        return full
    from .. import env

    return env.full_scale()


class _SpecTableFamily:
    """Shared implementation: families defined by a spec table.

    Subclasses set :attr:`family`, :attr:`_designs` (design name ->
    ``(reduced_spec, paper_spec)``), :attr:`_generate`, and optionally
    :attr:`_base_params`.
    """

    family: str = ""
    _designs: dict[str, tuple[object, object]] = {}
    _base_params: dict[str, dict[str, object]] = {}

    def design_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._designs))

    def _lookup(self, design: str) -> tuple[object, object]:
        try:
            return self._designs[design]
        except KeyError:
            raise ValueError(
                f"unknown design {design!r} in family "
                f"{self.family!r}; known designs: "
                f"{', '.join(self.design_names())}"
            ) from None

    def spec(self, design: str, full: bool | None = None) -> object:
        reduced, paper = self._lookup(design)
        return paper if _full_scale(full) else reduced

    def netlist(self, design: str, full: bool | None = None) -> Netlist:
        return self._generate(self.spec(design, full))

    @staticmethod
    def _generate(spec: object) -> Netlist:
        raise NotImplementedError

    def base_params(self, design: str) -> dict[str, object]:
        self._lookup(design)
        return dict(self._base_params.get(design, {}))


#: Family token -> registered family instance.
_FAMILY_REGISTRY: dict[str, DesignFamily] = {}


def register_design_family(family: str):
    """Class decorator adding a design family to the registry.

    The class is instantiated once at registration and must satisfy the
    :class:`DesignFamily` protocol.  Re-registering a token replaces
    the previous entry (idempotent module reloads; tests can shadow and
    restore entries).

    Raises:
        TypeError: If the instance does not satisfy the protocol.
    """
    def decorate(cls):
        instance = cls()
        if not isinstance(instance, DesignFamily):
            raise TypeError(
                f"{cls.__name__} does not satisfy the DesignFamily "
                "protocol"
            )
        _FAMILY_REGISTRY[family] = instance
        return cls
    return decorate


def registered_design_families() -> tuple[str, ...]:
    """Registered family tokens, sorted."""
    return tuple(sorted(_FAMILY_REGISTRY))


def family_token(design: str) -> str:
    """The family token of a design name (first ``_`` token)."""
    return design.split("_")[0]


def design_family(design: str) -> DesignFamily:
    """Look up the registered family for a design (or family) name.

    Args:
        design: Canonical design name (``"fabric_small"``) or a bare
            family token (``"fabric"``).

    Raises:
        ValueError: For an unregistered family, reporting the token
            parsed from the design name and listing every registered
            family.
    """
    token = family_token(design)
    try:
        return _FAMILY_REGISTRY[token]
    except KeyError:
        raise ValueError(
            f"unknown design family {token!r} (parsed from design "
            f"{design!r}); registered families: "
            f"{', '.join(registered_design_families())}"
        ) from None


@register_design_family("mac")
class MacFamily(_SpecTableFamily):
    """Multiply-accumulate datapaths (the paper's two benchmarks)."""

    family = "mac"
    _designs = {
        "mac_small": (SMALL_MAC, PAPER_SMALL_MAC),
        "mac_large": (LARGE_MAC, PAPER_LARGE_MAC),
    }
    # The larger MAC is a deeper, slower design: benchmarks that do not
    # tune ``freq`` must pin the clock near its achievable speed or the
    # timing knobs saturate (the values the cached tables were built
    # with, kept exactly so they stay byte-identical).
    _base_params = {"mac_large": {"freq": 450.0}}
    _generate = staticmethod(generate_mac_netlist)


@register_design_family("fir")
class FirFamily(_SpecTableFamily):
    """Transposed-form FIR filters (MAC-adjacent datapaths)."""

    family = "fir"
    _designs = {
        "fir_small": (FirSpec(taps=4, width=6, name="fir_small"),
                      FirSpec(taps=8, width=12, name="fir_small")),
        "fir_large": (FirSpec(taps=8, width=8, name="fir_large"),
                      FirSpec(taps=16, width=16, name="fir_large")),
    }
    _generate = staticmethod(generate_fir_netlist)


@register_design_family("alu")
class AluFamily(_SpecTableFamily):
    """Small muxed ALU slices (control-flavoured)."""

    family = "alu"
    _designs = {
        "alu_small": (AluSpec(width=16, name="alu_small"),
                      AluSpec(width=48, name="alu_small")),
        "alu_large": (AluSpec(width=32, name="alu_large"),
                      AluSpec(width=96, name="alu_large")),
    }
    _generate = staticmethod(generate_alu_netlist)


@register_design_family("fabric")
class FabricFamily(_SpecTableFamily):
    """Structured-ASIC tile fabrics (regular, DFF/buffer-dominated)."""

    family = "fabric"
    _designs = {
        "fabric_small": (SMALL_FABRIC, PAPER_SMALL_FABRIC),
        "fabric_large": (LARGE_FABRIC, PAPER_LARGE_FABRIC),
    }
    _generate = staticmethod(generate_fabric_netlist)


@register_design_family("cpu")
class CpuFamily(_SpecTableFamily):
    """Z80/6502-class CPU cores (control-heavy mux datapaths)."""

    family = "cpu"
    _designs = {
        "cpu_small": (SMALL_CPU, PAPER_SMALL_CPU),
        "cpu_large": (LARGE_CPU, PAPER_LARGE_CPU),
    }
    _generate = staticmethod(generate_cpu_netlist)
