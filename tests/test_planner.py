import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from natvar.io import parse_corpus
from natvar.model import mean_utterances
from natvar.planner import (
    PlanConfig,
    PlanError,
    PlanMismatchError,
    ShortfallError,
    ablate,
    adjust_histogram,
    execute,
    overlap_histogram,
    plan,
    preset_config,
    render_review,
)
from natvar.recipes import (
    RECIPES,
    InjectionError,
    find_anchors,
    inject,
    iter_anchors,
    patterns_for_dataset,
)
from natvar.synthetic import make_babi_bytes, make_smd_bytes


class TestPlan:
    @pytest.mark.parametrize("fmt", ["babi", "smd"])
    def test_cap_counts_the_patterns_a_dialog_carries(self, fmt, small_babi_corpus,
                                                      small_smd_corpus):
        corpus = small_babi_corpus if fmt == "babi" else small_smd_corpus
        cfg = PlanConfig(targets={p: 10 for p in patterns_for_dataset(fmt)},
                         max_patterns_per_dialog=3, allow_shortfall=True)
        once = execute(corpus, plan(corpus, cfg))
        again = plan(once, replace(cfg, seed=1))
        assert again.assignments  # dialogs under the cap still take patterns
        twice = execute(once, again)
        assert max(len(d.applied_patterns) for d in twice.dialogs) == 3

    def test_zero_targets_give_empty_plan(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 0}, seed=1,
                         histogram_targets=None)
        pln = plan(small_smd_corpus, cfg)
        assert pln.assignments == ()

    def test_per_pattern_counts_exact(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 7, "capability_expansion": 9},
            seed=1, histogram_targets=None,
        )
        pln = plan(small_smd_corpus, cfg)
        counts = {}
        for a in pln.assignments:
            counts[a.pattern] = counts.get(a.pattern, 0) + 1
        assert counts == {"open_request_screening": 7, "capability_expansion": 9}

    def test_at_most_one_assignment_per_dialog_pattern(self, small_smd_corpus):
        cfg = PlanConfig(targets={"recipient_correction": 20}, seed=1,
                         histogram_targets=None)
        pln = plan(small_smd_corpus, cfg)
        pairs = [(a.dialog_id, a.pattern) for a in pln.assignments]
        assert len(pairs) == len(set(pairs))

    def test_shortfall_error_reports_counts(self, small_smd_corpus):
        # 30-dialog cycle fixture has 5 failure dialogs eligible for the
        # not-helped closer; asking for more must fail loudly.
        cfg = PlanConfig(targets={"sequence_closer_not_helped": 25}, seed=1,
                         histogram_targets=None)
        with pytest.raises(ShortfallError, match=r"eligible \d+ < target 25"):
            plan(small_smd_corpus, cfg)

    def test_allow_shortfall_caps_and_records(self, small_smd_corpus):
        cfg = PlanConfig(targets={"sequence_closer_not_helped": 25}, seed=1,
                         histogram_targets=None, allow_shortfall=True)
        pln = plan(small_smd_corpus, cfg)
        assert pln.shortfalls
        name, target, eligible = pln.shortfalls[0]
        assert (name, target) == ("sequence_closer_not_helped", 25)
        assert len(pln.assignments) == eligible

    def test_unknown_pattern_rejected(self, small_smd_corpus):
        with pytest.raises(PlanError, match="unknown pattern"):
            plan(small_smd_corpus, PlanConfig(targets={"nope": 1}, histogram_targets=None))

    def test_dataset_mismatch_rejected(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_user_detail_request": 1},
                         histogram_targets=None)
        with pytest.raises(PlanError, match="not applicable to smd"):
            plan(small_smd_corpus, cfg)

    def test_determinism(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 5,
                                  "misunderstanding_report": 5}, seed=33,
                         histogram_targets=None)
        assert plan(small_smd_corpus, cfg) == plan(small_smd_corpus, cfg)

    def test_seed_changes_selection(self, small_smd_corpus):
        out = set()
        for seed in range(4):
            cfg = PlanConfig(targets={"open_request_screening": 5}, seed=seed,
                             histogram_targets=None)
            out.add(tuple(a.dialog_id for a in plan(small_smd_corpus, cfg).assignments))
        assert len(out) > 1

    def test_per_dialog_cap_respected(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 12, "capability_expansion": 12,
                     "recipient_correction": 12, "misunderstanding_report": 12},
            seed=3, max_patterns_per_dialog=2, histogram_targets=None,
        )
        try:
            pln = plan(small_smd_corpus, cfg)
        except ShortfallError:
            return  # cap can squeeze candidates below target; that is the contract
        per_dialog = {}
        for a in pln.assignments:
            per_dialog[a.dialog_id] = per_dialog.get(a.dialog_id, 0) + 1
        assert max(per_dialog.values()) <= 2

    @pytest.mark.parametrize("fmt", ["smd", "babi"])
    def test_dialog_carrying_a_pattern_is_not_eligible_for_it(self, request, fmt):
        corpus = request.getfixturevalue(f"small_{fmt}_corpus")
        cfg = preset_config(f"{fmt}-table1", seed=0, allow_shortfall=True)
        updated = execute(corpus, plan(corpus, cfg))
        # The cap counts carried patterns and the first plan fills it; lift it
        # so that only eligibility decides.
        again = plan(updated, replace(cfg, seed=1, max_patterns_per_dialog=len(RECIPES)))
        carried = {d.id: d.applied_patterns for d in updated.dialogs}
        assert again.assignments
        assert not any(a.pattern in carried[a.dialog_id] for a in again.assignments)
        twice = execute(updated, again)
        for d, before in zip(twice.dialogs, updated.dialogs):
            assert [t for t in d.turns if t.injected_by in before.applied_patterns] \
                == [t for t in before.turns if t.injected_by]

    def test_plan_holds_no_table_of_anchors(self, babi_corpus, traced):
        # Eligibility needs only each dialog's first anchor. The stage holds
        # about 0.2 MB beyond the plan it returns; a table of every anchor of
        # every eligible (dialog, pattern) pair, 10,334 here, adds about 3.5 MB.
        cfg = preset_config("babi-table1", seed=0)
        pln, retained, peak = traced(lambda: plan(babi_corpus, cfg))
        assert len(pln.assignments) == 2844
        assert peak - retained < 1_000_000


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fmt", ["smd", "babi"])
def test_first_anchor_decides_eligibility(request, fmt, seed):
    # `plan` keeps only first-anchor eligibility and finds a picked dialog's
    # anchors afresh, which is exact only if both agree with the full list.
    corpus = request.getfixturevalue(f"{fmt}_corpus")
    for p in patterns_for_dataset(fmt):
        recipe = RECIPES[p]
        for d in corpus.dialogs:
            found = find_anchors(recipe, d, seed)
            first = next(iter_anchors(recipe, d, seed), None)
            assert (first is not None) == bool(found)
            assert first == (found[0] if found else None)
            assert find_anchors(recipe, d, seed) == found


class TestExecute:
    def test_empty_plan_is_identity(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 0}, seed=1,
                         histogram_targets=None)
        pln = plan(small_smd_corpus, cfg)
        assert execute(small_smd_corpus, pln) is small_smd_corpus

    def test_total_added_turns_law(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 6, "capability_expansion": 5,
                     "recipient_correction": 4}, seed=2, histogram_targets=None,
        )
        pln = plan(small_smd_corpus, cfg)
        updated = execute(small_smd_corpus, pln)
        added = sum(len(RECIPES[a.pattern].template) for a in pln.assignments)
        before = sum(len(d.turns) for d in small_smd_corpus.dialogs)
        after = sum(len(d.turns) for d in updated.dialogs)
        assert after - before == added

    def test_input_not_mutated(self, small_smd_corpus):
        snapshot = tuple(tuple(t.text for t in d.turns) for d in small_smd_corpus.dialogs)
        cfg = PlanConfig(targets={"capability_expansion": 8}, seed=2,
                         histogram_targets=None)
        execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        assert snapshot == tuple(tuple(t.text for t in d.turns) for d in small_smd_corpus.dialogs)

    def test_corpus_swap_rejected(self, small_smd_corpus, smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 3}, seed=2,
                         histogram_targets=None)
        pln = plan(small_smd_corpus, cfg)
        with pytest.raises(PlanMismatchError, match="mismatch"):
            execute(smd_corpus, pln)

    def test_anchor_past_the_last_turn_rejected(self, small_smd_corpus):
        cfg = PlanConfig(targets={"capability_expansion": 1}, seed=2, histogram_targets=None)
        pln = plan(small_smd_corpus, cfg)
        a = pln.assignments[0]
        n_turns = len(small_smd_corpus.dialog_by_id()[a.dialog_id].turns)
        moved = replace(a, anchor=replace(a.anchor, turn_index=n_turns))
        with pytest.raises(PlanMismatchError, match=f"anchor {n_turns} out of range"):
            execute(small_smd_corpus, replace(pln, assignments=(moved,)))


def _folded_inject(corpus, pln) -> tuple:
    """The reference for `execute`: `recipes.inject` folded over each dialog's
    assignments in plan order, each anchor moved to where its original turn
    now stands."""
    todo: dict[str, list] = {}
    for a in pln.assignments:
        todo.setdefault(a.dialog_id, []).append(a)
    dialogs = []
    for d in corpus.dialogs:
        for a in todo.get(d.id, ()):
            now = [i for i, t in enumerate(d.turns) if t.is_original]
            anchor = replace(a.anchor, turn_index=now[a.anchor.turn_index])
            d = inject(d, RECIPES[a.pattern], anchor, pln.seed)
        dialogs.append(d)
    return tuple(dialogs)


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(["babi", "smd"]), seed=st.integers(0, 10_000),
       n_dialogs=st.integers(1, 25), cap=st.integers(1, 5),
       edit=st.sampled_from([None, "move", "repeat"]), data=st.data())
def test_execute_equals_folded_inject(fmt, seed, n_dialogs, cap, edit, data):
    make = make_babi_bytes if fmt == "babi" else make_smd_bytes
    corpus = parse_corpus(make(seed=seed, n_dialogs=n_dialogs), fmt)
    cfg = PlanConfig(targets={p: n_dialogs for p in patterns_for_dataset(fmt)}, seed=seed,
                     max_patterns_per_dialog=cap, allow_shortfall=True)
    pln = plan(corpus, cfg)
    if edit and pln.assignments:
        # A moved anchor or a repeated pattern may fail a splice check; the
        # fold and `execute` must then fail with the same error.
        k = data.draw(st.integers(0, len(pln.assignments) - 1))
        a = pln.assignments[k]
        if edit == "move":
            n_turns = len(corpus.dialog_by_id()[a.dialog_id].turns)
            a = replace(a, anchor=replace(a.anchor, turn_index=data.draw(st.integers(0, n_turns - 1))))
        pln = replace(pln, assignments=pln.assignments[:k] + (a,) * (1 + (edit == "repeat"))
                      + pln.assignments[k + 1:])
    try:
        expected = _folded_inject(corpus, pln)
    except InjectionError as e:
        with pytest.raises(InjectionError) as got:
            execute(corpus, pln)
        assert str(got.value) == str(e)
    else:
        assert execute(corpus, pln).dialogs == expected


class TestAdjustHistogram:
    def test_exact_sum_untouched(self):
        assert adjust_histogram((10, 5, 2), total=17, n_dialogs=20, cap=4) == (10, 5, 2)

    def test_smd_preset_adjustment(self):
        got = adjust_histogram((288, 198, 57, 7, 0), total=542, n_dialogs=304, cap=4)
        assert got == (288, 190, 57, 7, 0)
        assert sum(got) == 542

    def test_babi_preset_adjustment_properties(self):
        got = adjust_histogram((1000, 981, 843, 375, 4), total=2844, n_dialogs=1000, cap=5)
        assert sum(got) == 2844
        assert got[0] == 1000
        assert got[4] == 4
        assert all(a >= b for a, b in zip(got, got[1:]))

    def test_monotone_preserved(self):
        got = adjust_histogram((9, 9, 9, 9), total=20, n_dialogs=10, cap=4)
        assert all(a >= b for a, b in zip(got, got[1:]))
        assert sum(got) == 20

    def test_addition_branch(self):
        got = adjust_histogram((5, 2, 0), total=10, n_dialogs=10, cap=3)
        assert sum(got) == 10
        assert all(a >= b for a, b in zip(got, got[1:]))


class TestOverlapHistogram:
    def test_uninjected_all_zero(self, small_smd_corpus):
        assert overlap_histogram(small_smd_corpus) == {1: 0}

    def test_single_dialog_three_patterns(self, small_smd_corpus):
        cfg = PlanConfig(
            targets={"open_request_screening": 1, "capability_expansion": 1,
                     "recipient_correction": 1},
            seed=1, histogram_targets=(1, 1, 1, 0), max_patterns_per_dialog=4,
        )
        updated = execute(small_smd_corpus, plan(small_smd_corpus, cfg))
        assert overlap_histogram(updated) == {1: 1, 2: 1, 3: 1, 4: 0}

    def test_monotone_nonincreasing(self, smd_corpus):
        cfg = preset_config("smd-table1", seed=9)
        updated = execute(smd_corpus, plan(smd_corpus, cfg))
        hist = overlap_histogram(updated)
        values = [hist[k] for k in sorted(hist)]
        assert values == sorted(values, reverse=True)


class TestAblate:
    def test_only_named_pattern_applied(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_screening": 4,
                                  "capability_expansion": 4}, seed=5,
                         histogram_targets=None)
        updated = ablate(small_smd_corpus, cfg, "capability_expansion")
        patterns = set().union(*(d.applied_patterns for d in updated.dialogs))
        assert patterns == {"capability_expansion"}
        assert len(updated.updated_dialogs()) == 4

    def test_invalid_pattern_for_dataset(self, small_smd_corpus):
        cfg = PlanConfig(targets={"open_request_user_detail_request": 2},
                         histogram_targets=None)
        with pytest.raises(PlanError, match="not applicable"):
            ablate(small_smd_corpus, cfg, "open_request_user_detail_request")

    def test_capability_expansion_mean(self, smd_corpus):
        cfg = preset_config("smd-table1", seed=7)
        updated = ablate(smd_corpus, cfg, "capability_expansion")
        assert mean_utterances(updated) == pytest.approx(10.32, abs=0.05)


class TestSampleReview:
    def _updated(self, corpus, n=6, seed=2):
        cfg = PlanConfig(targets={"open_request_screening": n}, seed=seed,
                         histogram_targets=None)
        return execute(corpus, plan(corpus, cfg))

    @staticmethod
    def _reviewed_ids(text):
        return [line.split()[1] for line in text.splitlines() if line.startswith("## ")]

    def test_fraction_one_takes_all(self, small_smd_corpus):
        updated = self._updated(small_smd_corpus)
        assert len(self._reviewed_ids(render_review(updated, 1.0, seed=0))) == 6

    def test_half_up_rounding(self, small_smd_corpus):
        updated = self._updated(small_smd_corpus, n=5)
        # round(0.5 x 5) = 2.5 -> 3 under half-up
        assert len(self._reviewed_ids(render_review(updated, 0.5, seed=0))) == 3

    def test_same_seed_same_sheet(self, small_smd_corpus):
        updated = self._updated(small_smd_corpus)
        assert render_review(updated, 0.5, 9) == render_review(updated, 0.5, 9)

    def test_no_updated_dialogs_rejected(self, small_smd_corpus):
        with pytest.raises(PlanError, match="no updated dialogs"):
            render_review(small_smd_corpus, 0.2, seed=1)

    def test_render_marks_injected_turns(self, small_smd_corpus):
        updated = self._updated(small_smd_corpus)
        text = render_review(updated, 1.0, seed=0)
        assert "[+open_request_screening]" in text

    def test_sample_subset_of_updated(self, small_smd_corpus):
        updated = self._updated(small_smd_corpus)
        reviewed = self._reviewed_ids(render_review(updated, 0.5, seed=4))
        updated_ids = {d.id for d in updated.updated_dialogs()}
        assert set(reviewed) <= updated_ids
