"""Tests for the Table 4 experiment roster."""

import pytest

from repro.experiments import EXPERIMENT_LABELS, TABLE4, describe, options_for
from repro.solver import CyclePolicy, GraphForm


class TestTable4:
    def test_six_experiments(self):
        assert len(EXPERIMENT_LABELS) == 6

    def test_paper_order(self):
        assert EXPERIMENT_LABELS == [
            "SF-Plain", "IF-Plain", "SF-Oracle", "IF-Oracle",
            "SF-Online", "IF-Online",
        ]

    def test_options_mapping(self):
        options = options_for("IF-Online")
        assert options.form is GraphForm.INDUCTIVE
        assert options.cycles is CyclePolicy.ONLINE

    def test_label_round_trips(self):
        for label in EXPERIMENT_LABELS:
            assert options_for(label).label == label

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            options_for("SF-Magic")

    def test_describe(self):
        assert "no cycle elimination" in describe("SF-Plain")
        assert "oracle" in describe("IF-Oracle")

    def test_overrides_forwarded(self):
        options = options_for("SF-Plain", seed=7, periodic_interval=13)
        assert options.seed == 7
        assert options.periodic_interval == 13

    def test_forms_and_policies_cover_product(self):
        pairs = {(form, policy) for form, policy, _ in TABLE4.values()}
        assert len(pairs) == 6
