from natvar.catalog import list_patterns
from natvar.recipes import ADDED_TURNS, PATTERN_ORDER, RECIPES


def test_catalog_has_32_entries():
    assert len(list_patterns()) == 32


def test_exactly_nine_recipes():
    assert sum(1 for e in list_patterns() if e.has_recipe) == 9


def test_recipe_codes():
    codes = {e.code for e in list_patterns() if e.has_recipe}
    assert codes == {"A2.3", "A2.5", "B2.6.0", "B3.1.1", "B3.2.0", "B4.1", "B4.4", "C3.1", "C5.2"}


def test_capability_expansion_lookup():
    assert [e.id.name for e in list_patterns() if e.code == "C3.1"] == ["capability_expansion"]


def test_class_distribution():
    by_klass = {}
    for e in list_patterns():
        by_klass[e.id.klass] = by_klass.get(e.id.klass, 0) + 1
    assert by_klass == {"A": 10, "B": 8, "C": 14}


def test_catalog_names_unique():
    names = [e.id.name for e in list_patterns()]
    assert len(names) == len(set(names))


def test_recipes_match_catalog():
    assert {e.id.name for e in list_patterns() if e.has_recipe} == set(RECIPES)
    assert set(PATTERN_ORDER) == set(RECIPES)


def test_added_turn_counts():
    assert ADDED_TURNS == {
        "open_request_screening": 2,
        "open_request_user_detail_request": 2,
        "example_request": 2,
        "misunderstanding_report": 4,
        "other_correction": 2,
        "sequence_closer_not_helped": 2,
        "sequence_closer_repaired": 2,
        "capability_expansion": 10,
        "recipient_correction": 8,
    }


def test_dataset_restrictions():
    assert RECIPES["open_request_user_detail_request"].datasets == {"babi"}
    assert RECIPES["example_request"].datasets == {"smd"}
    assert RECIPES["recipient_correction"].datasets == {"smd"}
