"""Tests for the DesignFamily registry."""

from __future__ import annotations

import pytest

from repro.pdtool.family import (
    _FAMILY_REGISTRY,
    DesignFamily,
    design_family,
    family_token,
    register_design_family,
    registered_design_families,
)


class TestRegistry:
    def test_builtin_families_registered(self):
        assert registered_design_families() == (
            "alu", "cpu", "fabric", "fir", "mac",
        )

    def test_every_family_satisfies_protocol(self):
        for token in registered_design_families():
            assert isinstance(design_family(token), DesignFamily)

    def test_lookup_by_design_name(self):
        assert design_family("mac_small").family == "mac"
        assert design_family("fabric_large").family == "fabric"
        assert design_family("cpu_small").family == "cpu"

    def test_lookup_by_bare_token(self):
        assert design_family("fir").family == "fir"

    def test_unknown_family_lists_registered(self):
        with pytest.raises(ValueError) as exc:
            design_family("ring_small")
        msg = str(exc.value)
        assert "'ring'" in msg  # the parsed token
        assert "'ring_small'" in msg  # the original design name
        for token in registered_design_families():
            assert token in msg

    def test_unknown_design_within_family(self):
        fam = design_family("mac")
        with pytest.raises(ValueError, match="mac_large, mac_small"):
            fam.spec("mac_medium")

    def test_family_token(self):
        assert family_token("fabric_small") == "fabric"
        assert family_token("mac") == "mac"

    def test_decorator_rejects_non_conforming(self):
        with pytest.raises(TypeError):
            @register_design_family("broken")
            class Broken:
                family = "broken"

        assert "broken" not in registered_design_families()

    def test_decorator_registers_and_replaces(self):
        class Stub:
            family = "mac"

            def design_names(self):
                return ("mac_stub",)

            def spec(self, design, full=None):
                return object()

            def netlist(self, design, full=None):
                raise NotImplementedError

            def parameter_space(self, design):
                raise NotImplementedError

            def base_params(self, design):
                return {}

        original = _FAMILY_REGISTRY["mac"]
        try:
            register_design_family("mac")(Stub)
            assert design_family("mac_small").design_names() == (
                "mac_stub",
            )
        finally:
            _FAMILY_REGISTRY["mac"] = original
        assert design_family("mac_small") is original


class TestFamilySurface:
    """Every registered family's full chain works for every design."""

    @pytest.mark.parametrize("token", registered_design_families())
    def test_designs_build(self, token):
        fam = design_family(token)
        names = fam.design_names()
        assert names == tuple(sorted(names))
        for design in names:
            assert family_token(design) == token
            assert fam.spec(design, full=False) is not None
            space = fam.parameter_space(design)
            assert space.dim >= 2
            base = fam.base_params(design)
            assert isinstance(base, dict)
            # Space knobs and base params never overlap: base pins only
            # what the space does not tune.
            assert not set(base) & set(space.names)

    @pytest.mark.parametrize("token", ("fabric", "cpu"))
    def test_new_family_netlists_validate(self, token):
        fam = design_family(token)
        small = fam.design_names()[1]  # *_small sorts after *_large
        nl = fam.netlist(small, full=False)
        nl.validate()
        assert nl.name == small

    def test_scale_selects_spec(self):
        fam = design_family("cpu")
        reduced = fam.spec("cpu_small", full=False)
        paper = fam.spec("cpu_small", full=True)
        assert paper.width > reduced.width

    def test_base_params_copied(self):
        fam = design_family("mac")
        params = fam.base_params("mac_large")
        assert params == {"freq": 450.0}
        params["freq"] = 0.0
        assert fam.base_params("mac_large") == {"freq": 450.0}


class TestLegacyShorthand:
    def test_legacy_shorthand_rejected(self):
        with pytest.raises(ValueError, match="unknown design family 'small'"):
            design_family("small")
