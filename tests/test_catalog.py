from natvar.catalog import CATALOG
from natvar.recipes import PATTERN_ORDER, RECIPES


def test_catalog_has_32_entries():
    assert len(CATALOG) == 32


def test_exactly_nine_recipes():
    assert sum(1 for e in CATALOG if e.has_recipe) == 9


def test_recipe_codes():
    codes = {e.code for e in CATALOG if e.has_recipe}
    assert codes == {"A2.3", "A2.5", "B2.6.0", "B3.1.1", "B3.2.0", "B4.1", "B4.4", "C3.1", "C5.2"}


def test_capability_expansion_lookup():
    assert [e.name for e in CATALOG if e.code == "C3.1"] == ["capability_expansion"]


def test_class_distribution():
    by_klass = {}
    for e in CATALOG:
        by_klass[e.klass] = by_klass.get(e.klass, 0) + 1
    assert by_klass == {"A": 10, "B": 8, "C": 14}


def test_catalog_names_unique():
    names = [e.name for e in CATALOG]
    assert len(names) == len(set(names))


def test_recipes_match_catalog():
    assert {e.name for e in CATALOG if e.has_recipe} == set(RECIPES)


def test_pattern_order_is_the_table_row_order():
    # Assignment priority follows this order, which is RECIPES' row order.
    assert PATTERN_ORDER == (
        "open_request_screening",
        "open_request_user_detail_request",
        "example_request",
        "misunderstanding_report",
        "other_correction",
        "sequence_closer_not_helped",
        "sequence_closer_repaired",
        "capability_expansion",
        "recipient_correction",
    )


def test_added_turn_counts():
    assert {name: len(r.template) for name, r in RECIPES.items()} == {
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
