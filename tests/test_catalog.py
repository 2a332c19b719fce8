"""The built-in space catalog."""

import pytest

from homgenus.catalog import catalog_entry, catalog_list, catalog_space
from homgenus.structures import fixed_points


def test_catalog_names():
    names = catalog_list()
    assert names == [
        "S6",
        "CP1",
        "CP2",
        "CP3",
        "U3-flag",
        "U4-flag",
        "U5-flag",
        "G42",
        "G52",
        "G622",
        "U4-T2xU2",
        "G2-flag",
        "Sp2-flag",
        "HP1",
        "HP2",
        "CP3-sp",
    ]


def test_expected_tables_match_computation():
    for name in catalog_list():
        entry = catalog_entry(name)
        space = entry.space()
        if "euler" in entry.expected:
            assert entry.expected["euler"] == space.euler_characteristic, name
        if "dim" in entry.expected:
            assert entry.expected["dim"] == space.n, name


def test_euler_characteristics_frozen():
    chis = {name: catalog_space(name).euler_characteristic for name in catalog_list()}
    assert chis == {
        "S6": 2,
        "CP1": 2,
        "CP2": 3,
        "CP3": 4,
        "U3-flag": 6,
        "U4-flag": 24,
        "U5-flag": 120,
        "G42": 6,
        "G52": 10,
        "G622": 90,
        "U4-T2xU2": 12,
        "G2-flag": 12,
        "Sp2-flag": 8,
        "HP1": 2,
        "HP2": 3,
        "CP3-sp": 4,
    }


def test_unknown_name():
    with pytest.raises(KeyError, match="no catalog entry named"):
        catalog_entry("nope")


def test_standard_structure():
    std = catalog_entry("G42").standard_structure()
    assert std.to_signs() == "+"
    assert len(fixed_points(std)) == 6


def test_standard_structure_refused_where_none_exists():
    with pytest.raises(ValueError):
        catalog_entry("HP1").standard_structure()


def test_cp3_presets():
    entry = catalog_entry("CP3")
    assert sorted(entry.stable_presets) == ["cp3-e11-minus", "cp3-null", "cp3-standard"]
    assert entry.stable_structure("cp3-e11-minus").global_sign == -1
    assert entry.stable_structure("cp3-null").global_sign == 1
    with pytest.raises(KeyError):
        entry.stable_structure("bogus")


def test_preset_rows_follow_the_weights():
    # each table entry attaches to the coordinate its weight hits negatively,
    # so rows depend on which coset representative the enumeration picked
    entry = catalog_entry("CP3")
    space = entry.space()
    table, _ = entry.stable_presets["cp3-e11-minus"]
    for ws, row in zip(space.coset_root_images, table):
        for w, s in zip(ws, row):
            neg = next(j for j, c in enumerate(w) if c < 0)
            assert s == (-1 if neg == 0 else 1)


def test_hp2_notes_mention_the_obstruction():
    assert "obstruction" in catalog_entry("HP2").notes
